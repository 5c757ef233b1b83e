#include "ml/svm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/trace.h"
#include "util/check.h"

namespace leaps::ml {

namespace {
constexpr double kTau = 1e-12;  // curvature floor (LIBSVM's tau)
constexpr double kAlphaEps = 1e-12;

double sq_norm(const FeatureVector& x) {
  return dot(x.data(), x.data(), x.size());
}

}  // namespace

SvmModel::SvmModel(std::vector<FeatureVector> support_vectors,
                   std::vector<double> coefficients, double bias,
                   KernelParams kernel)
    : svs_(std::move(support_vectors)),
      coef_(std::move(coefficients)),
      bias_(bias),
      kernel_(kernel) {
  LEAPS_CHECK(svs_.size() == coef_.size());
  sv_sq_norms_.reserve(svs_.size());
  for (const FeatureVector& sv : svs_) sv_sq_norms_.push_back(sq_norm(sv));
}

double SvmModel::decision_value(const FeatureVector& x) const {
  // Norm trick with the cached SV norms: one dot product per SV.
  const double xn = sq_norm(x);
  double f = bias_;
  for (std::size_t i = 0; i < svs_.size(); ++i) {
    f += coef_[i] * gaussian(sv_sq_norms_[i], xn,
                             dot(svs_[i].data(), x.data(), svs_[i].size()),
                             kernel_.sigma2);
  }
  return f;
}

int SvmModel::predict(const FeatureVector& x) const {
  return decision_value(x) >= 0.0 ? 1 : -1;
}

std::vector<SvmModel::Contribution> SvmModel::top_contributions(
    const FeatureVector& x, std::size_t top_k) const {
  std::vector<Contribution> all;
  all.reserve(svs_.size());
  for (std::size_t i = 0; i < svs_.size(); ++i) {
    Contribution c;
    c.sv_index = i;
    c.coefficient = coef_[i];
    c.kernel_value = kernel_(svs_[i], x);
    c.contribution = c.coefficient * c.kernel_value;
    all.push_back(c);
  }
  std::sort(all.begin(), all.end(), [](const Contribution& a,
                                       const Contribution& b) {
    const double ma = std::abs(a.contribution);
    const double mb = std::abs(b.contribution);
    if (ma != mb) return ma > mb;
    return a.sv_index < b.sv_index;
  });
  if (all.size() > top_k) all.resize(top_k);
  return all;
}

namespace {

/// Per-sample box bounds Cᵢ = λ·cᵢ. A zero weight pins αᵢ = 0, and so does
/// a `held_out` flag — a cross-validation row left out of the fit is a row
/// the solver may never move. Throws unless both classes keep a positive
/// bound.
std::vector<double> box_bounds(double lambda, const Dataset& data,
                               const std::vector<char>* held_out) {
  const std::size_t n = data.size();
  std::vector<double> C(n);
  bool has_pos = false;
  bool has_neg = false;
  for (std::size_t i = 0; i < n; ++i) {
    const bool out = held_out != nullptr && (*held_out)[i] != 0;
    C[i] = out ? 0.0 : lambda * data.weight[i];
    if (C[i] > 0.0) {
      (data.y[i] > 0 ? has_pos : has_neg) = true;
    }
  }
  if (!has_pos || !has_neg) {
    throw std::invalid_argument(
        "SvmTrainer: need positively-weighted samples of both classes");
  }
  return C;
}

/// The one SMO loop, over the active rows only: the Gram rows of `K` whose
/// row of `data` has Cᵢ > 0, in ascending order. A row with Cᵢ = 0 is in
/// neither I_up nor I_low, so it is never selected and never becomes a
/// support vector; leaving it out of every sweep changes no selection and
/// no sum. `K` must cover every row with Cᵢ > 0 and may cover more (a
/// fold's held-out rows, or an all-rows Gram). `rows` is the size of the
/// training set the automatic iteration cap is derived from: all of
/// `data` for a full fit, the fold's training rows for a cross-validation
/// fit.
SvmModel solve(const SvmParams& params, const Dataset& data,
               const GramMatrix& K, const std::vector<double>& C,
               std::size_t rows, TrainStats* stats,
               const std::vector<double>* warm_alpha) {
  LEAPS_SPAN("svm.solve");
  const std::size_t n = data.size();
  const std::vector<int>& y = data.y;

  // ---- warm start: clamp and repair feasibility, in row order ----------
  std::vector<double> seed(n, 0.0);
  if (warm_alpha != nullptr && !warm_alpha->empty()) {
    const std::size_t m = std::min(n, warm_alpha->size());
    for (std::size_t t = 0; t < m; ++t) {
      seed[t] = std::clamp((*warm_alpha)[t], 0.0, C[t]);
    }
    // Repair Σ α_i y_i = 0: shave the surplus class toward zero in row
    // order until the sum balances. (A seed exported from a prefix of this
    // dataset is already feasible and this loop is a no-op.)
    double s = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      s += seed[t] * static_cast<double>(y[t]);
    }
    if (std::abs(s) > kAlphaEps) {
      const int surplus_sign = s > 0.0 ? 1 : -1;
      for (std::size_t t = 0; t < n && std::abs(s) > kAlphaEps; ++t) {
        if (y[t] != surplus_sign || seed[t] <= 0.0) continue;
        const double take = std::min(seed[t], std::abs(s));
        seed[t] -= take;
        s -= static_cast<double>(surplus_sign) * take;
      }
      // If the box left nothing to shave (all surplus pinned at 0 already),
      // fall back to a cold start rather than iterate from an infeasible
      // point.
      if (std::abs(s) > kAlphaEps) std::fill(seed.begin(), seed.end(), 0.0);
    }
  }

  // ---- the active rows -------------------------------------------------
  // Entry p of every array below belongs to active row p; gram_row[p] is
  // its Gram row. The diagonal is lifted out of the flat matrix so the
  // working-set scan reads a contiguous array.
  LEAPS_CHECK(K.size() == 0 || K.rows().back() < n);
  std::vector<std::size_t> gram_row;
  for (std::size_t r = 0; r < K.size(); ++r) {
    if (C[K.rows()[r]] > 0.0) gram_row.push_back(r);
  }
  const std::size_t a = gram_row.size();
  LEAPS_CHECK_MSG(
      a == static_cast<std::size_t>(std::count_if(
               C.begin(), C.end(), [](double c) { return c > 0.0; })),
      "SvmTrainer: the Gram must cover every row with a positive bound");
  std::vector<double> yd(a);
  std::vector<double> Ca(a);
  std::vector<double> Kdiag(a);
  std::vector<double> alpha(a);
  for (std::size_t p = 0; p < a; ++p) {
    const std::size_t t = K.rows()[gram_row[p]];
    yd[p] = static_cast<double>(y[t]);
    Ca[p] = C[t];
    Kdiag[p] = K(gram_row[p], gram_row[p]);
    alpha[p] = seed[t];
  }
  // G_p = Σ_q α_q y_q K_pq (decision value minus bias). A pinned row's
  // seed is 0, so seeding from the active rows alone is exact.
  std::vector<double> G(a, 0.0);
  std::size_t warm_nonzero = 0;
  for (std::size_t q = 0; q < a; ++q) {
    if (alpha[q] <= kAlphaEps) continue;
    ++warm_nonzero;
    const double wq = yd[q] * alpha[q];
    const double* Kq = K.row(gram_row[q]);
    for (std::size_t p = 0; p < a; ++p) G[p] += wq * Kq[gram_row[p]];
  }

  const std::size_t max_iter =
      params.max_iterations > 0 ? params.max_iterations
                                : std::max<std::size_t>(100000, 200 * rows);

  const auto in_up = [&](std::size_t p) {
    return (yd[p] > 0 && alpha[p] < Ca[p]) || (yd[p] < 0 && alpha[p] > 0.0);
  };
  const auto in_low = [&](std::size_t p) {
    return (yd[p] > 0 && alpha[p] > 0.0) || (yd[p] < 0 && alpha[p] < Ca[p]);
  };
  // Violation score: -y_p ∇f_p = y_p - G_p.
  const auto viol = [&](std::size_t p) { return yd[p] - G[p]; };

  // First-order half of LIBSVM's WSS2: i is the maximal violator in I_up.
  // This pass runs once; afterwards each gradient sweep picks the next i.
  std::size_t i = a;
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < a; ++p) {
    if (in_up(p) && viol(p) > m) {
      m = viol(p);
      i = p;
    }
  }

  std::size_t iter = 0;
  bool converged = false;
  double m_final = 0.0;
  double M_final = 0.0;

  for (; iter < max_iter; ++iter) {
    // ---- second-order half of WSS2: j, and M = min over I_low ----------
    double M = std::numeric_limits<double>::infinity();
    std::size_t j = a;
    double best_gain = 0.0;
    const double* Ki = i < a ? K.row(gram_row[i]) : nullptr;
    const double Kii = i < a ? Kdiag[i] : 0.0;
    for (std::size_t p = 0; p < a; ++p) {
      if (!in_low(p)) continue;
      const double vp = viol(p);
      M = std::min(M, vp);
      if (i < a && vp < m) {
        const double b_ip = m - vp;  // > 0
        const double a_ip =
            std::max(Kii + Kdiag[p] - 2.0 * Ki[gram_row[p]], kTau);
        const double gain = -(b_ip * b_ip) / a_ip;
        if (gain < best_gain) {
          best_gain = gain;
          j = p;
        }
      }
    }
    m_final = m;
    M_final = M;
    if (i == a || j == a || m - M < params.epsilon) {
      converged = (i == a || j == a) ? true : (m - M < params.epsilon);
      break;
    }

    // ---- analytic two-variable update (Platt, per-sample bounds) -------
    const double eta =
        std::max(Kdiag[i] + Kdiag[j] - 2.0 * Ki[gram_row[j]], kTau);
    // E_i - E_j = (G_i - y_i) - (G_j - y_j) = -(viol(i) - viol(j)).
    const double delta = viol(i) - viol(j);  // = m - viol(j) > 0
    double L;
    double H;
    const double ai = alpha[i];
    const double aj = alpha[j];
    if (yd[i] != yd[j]) {
      L = std::max(0.0, aj - ai);
      H = std::min(Ca[j], Ca[i] + aj - ai);
    } else {
      L = std::max(0.0, ai + aj - Ca[i]);
      H = std::min(Ca[j], ai + aj);
    }
    // Platt: α_j += y_j (E_i - E_j) / η with E_i - E_j = -delta.
    double aj_new = aj - yd[j] * delta / eta;
    aj_new = std::clamp(aj_new, L, H);
    const double s = yd[i] * yd[j];
    double ai_new = std::clamp(ai + s * (aj - aj_new), 0.0, Ca[i]);
    // Snap to the box so bound membership stays *exact*: a clipped update
    // must not leave α a few ulps inside the bound, or the working-set
    // selection keeps proposing a step the arithmetic cannot take and the
    // solver stalls far from the optimum.
    const auto snap = [](double v, double upper) {
      const double tol = 1e-9 * std::max(1.0, upper);
      if (v < tol) return 0.0;
      if (v > upper - tol) return upper;
      return v;
    };
    ai_new = snap(ai_new, Ca[i]);
    aj_new = snap(aj_new, Ca[j]);

    const double dai = ai_new - ai;
    const double daj = aj_new - aj;
    if (std::abs(dai) < kAlphaEps && std::abs(daj) < kAlphaEps) {
      // No representable progress on the best pair: stop rather than spin,
      // and report honestly that the KKT gap was not driven below epsilon.
      converged = false;
      break;
    }
    alpha[i] = ai_new;
    alpha[j] = aj_new;
    // One sweep updates the gradient from Gram rows i and j and, with α
    // already updated, picks the next iteration's i.
    const double wi = yd[i] * dai;
    const double wj = yd[j] * daj;
    const double* Kj = K.row(gram_row[j]);
    std::size_t next_i = a;
    double next_m = -std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < a; ++p) {
      const std::size_t r = gram_row[p];
      G[p] += wi * Ki[r] + wj * Kj[r];
      if (in_up(p) && viol(p) > next_m) {
        next_m = viol(p);
        next_i = p;
      }
    }
    i = next_i;
    m = next_m;
  }

  // ---- bias: average over free support vectors, else midpoint ----------
  double b = 0.0;
  std::size_t free_count = 0;
  for (std::size_t p = 0; p < a; ++p) {
    if (alpha[p] > kAlphaEps && alpha[p] < Ca[p] - kAlphaEps) {
      b += viol(p);
      ++free_count;
    }
  }
  if (free_count > 0) {
    b /= static_cast<double>(free_count);
  } else if (std::isfinite(m_final) && std::isfinite(M_final)) {
    b = (m_final + M_final) / 2.0;
  }

  // ---- package the model ------------------------------------------------
  // A pinned row adds α·(…) = 0 to the objective, so summing over the
  // active rows alone is exact; it keeps its seed (0) in stats->alpha.
  std::vector<FeatureVector> svs;
  std::vector<double> coef;
  double objective = 0.0;
  for (std::size_t p = 0; p < a; ++p) {
    const std::size_t t = K.rows()[gram_row[p]];
    objective += alpha[p] * (yd[p] * G[p] / 2.0 - 1.0);
    if (alpha[p] > kAlphaEps) {
      svs.push_back(data.X[t]);
      coef.push_back(alpha[p] * yd[p]);
    }
    seed[t] = alpha[p];
  }
  if (stats != nullptr) {
    stats->iterations = iter;
    stats->support_vectors = svs.size();
    stats->converged = converged;
    stats->objective = objective;
    stats->alpha = std::move(seed);
    stats->warm_nonzero = warm_nonzero;
  }
  static obs::Gauge& last_iters = obs::MetricRegistry::global().gauge(
      "leaps_ml_svm_iterations", "SMO iterations of the last SVM training");
  last_iters.set(static_cast<std::int64_t>(iter));
  return SvmModel(std::move(svs), std::move(coef), b, params.kernel);
}

}  // namespace

SvmModel SvmTrainer::train(const Dataset& data, TrainStats* stats,
                           const std::vector<double>* warm_alpha) const {
  LEAPS_SPAN("svm.train");
  data.validate();
  const std::size_t n = data.size();
  LEAPS_CHECK_MSG(n >= 2, "SVM needs at least two samples");
  const std::vector<double> C = box_bounds(params_.lambda, data, nullptr);
  const GramMatrix K(data.X, params_.kernel, data.positive_rows());
  return solve(params_, data, K, C, n, stats, warm_alpha);
}

SvmModel SvmTrainer::train_fold(const Dataset& data, const GramMatrix& gram,
                                const std::vector<char>& held_out) const {
  LEAPS_SPAN("svm.train");
  const std::size_t n = data.size();
  LEAPS_CHECK(held_out.size() == n);
  const std::vector<double> C = box_bounds(params_.lambda, data, &held_out);
  const auto rows = static_cast<std::size_t>(
      std::count(held_out.begin(), held_out.end(), char{0}));
  return solve(params_, data, gram, C, rows, nullptr, nullptr);
}

}  // namespace leaps::ml
