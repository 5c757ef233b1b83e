#include "ml/hmm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/check.h"

namespace leaps::ml {

namespace {

/// Normalizes a row to a distribution with additive smoothing.
void normalize(std::vector<double>& row, double smoothing) {
  double total = 0.0;
  for (double& v : row) {
    v += smoothing;
    total += v;
  }
  LEAPS_CHECK(total > 0.0);
  for (double& v : row) v /= total;
}

struct ForwardResult {
  // alpha[t][s] scaled so each row sums to 1; scale[t] are the factors.
  std::vector<std::vector<double>> alpha;
  std::vector<double> scale;
  double log_likelihood = 0.0;
};

ForwardResult forward(const Sequence& seq,
                      const std::vector<double>& initial,
                      const std::vector<std::vector<double>>& a,
                      const std::vector<std::vector<double>>& b) {
  const std::size_t n = a.size();
  const std::size_t t_len = seq.size();
  ForwardResult out;
  out.alpha.assign(t_len, std::vector<double>(n, 0.0));
  out.scale.assign(t_len, 0.0);
  for (std::size_t t = 0; t < t_len; ++t) {
    const auto sym = static_cast<std::size_t>(seq[t]);
    double row_sum = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      double v;
      if (t == 0) {
        v = initial[s] * b[s][sym];
      } else {
        double acc = 0.0;
        for (std::size_t p = 0; p < n; ++p) {
          acc += out.alpha[t - 1][p] * a[p][s];
        }
        v = acc * b[s][sym];
      }
      out.alpha[t][s] = v;
      row_sum += v;
    }
    if (row_sum <= 0.0) {
      out.log_likelihood = -std::numeric_limits<double>::infinity();
      return out;
    }
    out.scale[t] = row_sum;
    for (std::size_t s = 0; s < n; ++s) out.alpha[t][s] /= row_sum;
    out.log_likelihood += std::log(row_sum);
  }
  return out;
}

/// beta[t][s], scaled with the forward pass's factors.
std::vector<std::vector<double>> backward(
    const Sequence& seq, const std::vector<std::vector<double>>& a,
    const std::vector<std::vector<double>>& b,
    const std::vector<double>& scale) {
  const std::size_t n = a.size();
  const std::size_t t_len = seq.size();
  std::vector<std::vector<double>> beta(t_len, std::vector<double>(n, 0.0));
  for (std::size_t s = 0; s < n; ++s) beta[t_len - 1][s] = 1.0;
  for (std::size_t t = t_len - 1; t > 0; --t) {
    const auto sym = static_cast<std::size_t>(seq[t]);
    for (std::size_t s = 0; s < n; ++s) {
      double acc = 0.0;
      for (std::size_t q = 0; q < n; ++q) {
        acc += a[s][q] * b[q][sym] * beta[t][q];
      }
      beta[t - 1][s] = acc / scale[t];
    }
  }
  return beta;
}

}  // namespace

Hmm Hmm::train(const std::vector<Sequence>& sequences,
               const std::vector<double>& weights, std::size_t num_symbols,
               const HmmParams& params) {
  if (sequences.size() != weights.size()) {
    throw std::invalid_argument("Hmm::train: sequences/weights mismatch");
  }
  if (num_symbols == 0 || params.states == 0) {
    throw std::invalid_argument("Hmm::train: empty model");
  }
  double weight_total = 0.0;
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    for (const int sym : sequences[i]) {
      if (sym < 0 || static_cast<std::size_t>(sym) >= num_symbols) {
        throw std::invalid_argument("Hmm::train: symbol out of range");
      }
    }
    if (weights[i] < 0.0) {
      throw std::invalid_argument("Hmm::train: negative weight");
    }
    if (!sequences[i].empty()) weight_total += weights[i];
  }
  if (weight_total <= 0.0) {
    throw std::invalid_argument("Hmm::train: no positively weighted data");
  }

  const std::size_t n = params.states;
  Hmm model;
  model.num_symbols_ = num_symbols;

  // Random (seeded) initialization, rows normalized.
  util::Rng rng(params.seed);
  model.initial_.assign(n, 0.0);
  model.transition_.assign(n, std::vector<double>(n, 0.0));
  model.emission_.assign(n, std::vector<double>(num_symbols, 0.0));
  for (double& v : model.initial_) v = 0.5 + rng.next_double();
  normalize(model.initial_, 0.0);
  for (auto& row : model.transition_) {
    for (double& v : row) v = 0.5 + rng.next_double();
    normalize(row, 0.0);
  }
  for (auto& row : model.emission_) {
    for (double& v : row) v = 0.5 + rng.next_double();
    normalize(row, 0.0);
  }

  double prev_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < params.max_iterations; ++iter) {
    // Expected-count accumulators.
    std::vector<double> pi_acc(n, 0.0);
    std::vector<std::vector<double>> a_acc(n, std::vector<double>(n, 0.0));
    std::vector<std::vector<double>> b_acc(
        n, std::vector<double>(num_symbols, 0.0));
    double total_ll = 0.0;

    for (std::size_t i = 0; i < sequences.size(); ++i) {
      const Sequence& seq = sequences[i];
      const double w = weights[i];
      if (seq.empty() || w <= 0.0) continue;
      const ForwardResult fwd =
          forward(seq, model.initial_, model.transition_, model.emission_);
      if (!std::isfinite(fwd.log_likelihood)) continue;
      total_ll += w * fwd.log_likelihood;
      const auto beta =
          backward(seq, model.transition_, model.emission_, fwd.scale);
      const std::size_t t_len = seq.size();

      // gamma[t][s] ∝ alpha[t][s] * beta[t][s] (already correctly scaled).
      for (std::size_t t = 0; t < t_len; ++t) {
        const auto sym = static_cast<std::size_t>(seq[t]);
        double norm = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
          norm += fwd.alpha[t][s] * beta[t][s];
        }
        if (norm <= 0.0) continue;
        for (std::size_t s = 0; s < n; ++s) {
          const double g = fwd.alpha[t][s] * beta[t][s] / norm;
          if (t == 0) pi_acc[s] += w * g;
          b_acc[s][sym] += w * g;
        }
      }
      // xi[t][s][q] for transitions.
      for (std::size_t t = 0; t + 1 < t_len; ++t) {
        const auto sym1 = static_cast<std::size_t>(seq[t + 1]);
        double norm = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
          for (std::size_t q = 0; q < n; ++q) {
            norm += fwd.alpha[t][s] * model.transition_[s][q] *
                    model.emission_[q][sym1] * beta[t + 1][q];
          }
        }
        if (norm <= 0.0) continue;
        for (std::size_t s = 0; s < n; ++s) {
          for (std::size_t q = 0; q < n; ++q) {
            const double xi = fwd.alpha[t][s] * model.transition_[s][q] *
                              model.emission_[q][sym1] * beta[t + 1][q] /
                              norm;
            a_acc[s][q] += w * xi;
          }
        }
      }
    }

    // Re-estimate (with smoothing to keep everything strictly positive).
    normalize(pi_acc, params.smoothing);
    model.initial_ = pi_acc;
    for (std::size_t s = 0; s < n; ++s) {
      normalize(a_acc[s], params.smoothing);
      model.transition_[s] = a_acc[s];
      normalize(b_acc[s], params.smoothing);
      model.emission_[s] = b_acc[s];
    }

    if (std::abs(total_ll - prev_ll) < params.tolerance) break;
    prev_ll = total_ll;
  }
  return model;
}

double Hmm::log_likelihood(const Sequence& sequence) const {
  if (sequence.empty()) return 0.0;
  for (const int sym : sequence) {
    LEAPS_CHECK_MSG(sym >= 0 &&
                        static_cast<std::size_t>(sym) < num_symbols_,
                    "symbol out of range");
  }
  return forward(sequence, initial_, transition_, emission_).log_likelihood;
}

void HmmClassifier::fit(const std::vector<Sequence>& benign,
                        const std::vector<Sequence>& mixed,
                        const std::vector<double>& mixed_weights,
                        std::size_t num_symbols) {
  LEAPS_CHECK_MSG(mixed.size() == mixed_weights.size(),
                  "mixed weights mismatch");
  const std::vector<double> ones(benign.size(), 1.0);
  HmmParams benign_params = options_.hmm;
  HmmParams mixed_params = options_.hmm;
  mixed_params.seed = options_.hmm.seed + 1;
  models_.clear();
  models_.push_back(Hmm::train(benign, ones, num_symbols, benign_params));
  models_.push_back(
      Hmm::train(mixed, mixed_weights, num_symbols, mixed_params));
  fitted_ = true;

  // Tune the LLR threshold on the training data, weighting mixed sequences
  // by their confidence (mislabeled sequences should not drag the cut).
  std::vector<std::pair<double, double>> scored;  // (llr, signed weight)
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const Sequence& s : benign) {
    const double v = score(s);
    scored.emplace_back(v, 1.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const double v = score(mixed[i]);
    scored.emplace_back(v, -mixed_weights[i]);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!std::isfinite(lo) || !std::isfinite(hi) || lo >= hi) {
    threshold_ = 0.0;
    return;
  }
  double best_threshold = 0.0;
  double best_score = -1.0;
  const std::size_t grid = std::max<std::size_t>(options_.threshold_grid, 3);
  for (std::size_t k = 0; k < grid; ++k) {
    const double th =
        lo + (hi - lo) * static_cast<double>(k) / static_cast<double>(grid - 1);
    double correct = 0.0;
    double total = 0.0;
    for (const auto& [v, w] : scored) {
      const double weight = std::abs(w);
      if (weight <= 0.0) continue;
      total += weight;
      const bool predicted_benign = v <= th;
      const bool is_benign = w > 0.0;
      if (predicted_benign == is_benign) correct += weight;
    }
    const double acc = total > 0.0 ? correct / total : 0.0;
    if (acc > best_score) {
      best_score = acc;
      best_threshold = th;
    }
  }
  threshold_ = best_threshold;
}

double HmmClassifier::score(const Sequence& sequence) const {
  LEAPS_CHECK_MSG(fitted_, "HmmClassifier used before fit()");
  if (sequence.empty()) return 0.0;
  const double per_symbol = 1.0 / static_cast<double>(sequence.size());
  return (models_[1].log_likelihood(sequence) -
          models_[0].log_likelihood(sequence)) *
         per_symbol;
}

int HmmClassifier::predict(const Sequence& sequence) const {
  return score(sequence) <= threshold_ ? 1 : -1;
}

const Hmm& HmmClassifier::benign_model() const {
  LEAPS_CHECK_MSG(fitted_, "HmmClassifier used before fit()");
  return models_[0];
}

}  // namespace leaps::ml
