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
}  // namespace

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) s += a[k] * b[k];
  return s;
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
  if (kernel_.type == KernelType::kGaussian) {
    sv_sq_norms_.reserve(svs_.size());
    for (const FeatureVector& sv : svs_) sv_sq_norms_.push_back(dot(sv, sv));
  }
}

double SvmModel::decision_value(const FeatureVector& x) const {
  double f = bias_;
  if (kernel_.type == KernelType::kGaussian) {
    // Norm trick with the cached SV norms: ‖sv−x‖² = ‖sv‖² + ‖x‖² − 2·sv·x.
    const double xn = dot(x, x);
    for (std::size_t i = 0; i < svs_.size(); ++i) {
      const double sq =
          std::max(0.0, sv_sq_norms_[i] + xn - 2.0 * dot(svs_[i], x));
      f += coef_[i] * std::exp(-sq / kernel_.sigma2);
    }
    return f;
  }
  for (std::size_t i = 0; i < svs_.size(); ++i) {
    f += coef_[i] * kernel_(svs_[i], x);
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

/// The one SMO loop. `K` is the Gram of every row of `data`; rows with
/// Cᵢ = 0 are in neither I_up nor I_low, so they are never selected and
/// never become support vectors. `rows` is the size of the training set
/// the automatic iteration cap is derived from: all of `data` for a full
/// fit, the fold's training rows for a cross-validation fit.
SvmModel solve(const SvmParams& params, const Dataset& data,
               const GramMatrix& K, const std::vector<double>& C,
               std::size_t rows, TrainStats* stats,
               const std::vector<double>* warm_alpha) {
  LEAPS_SPAN("svm.solve");
  const std::size_t n = data.size();
  // Diagonal entries feed the curvature terms of every working-set scan;
  // lift them out of the flat matrix once so the scan reads a contiguous
  // array instead of striding n doubles per element.
  std::vector<double> Kdiag(n);
  for (std::size_t t = 0; t < n; ++t) Kdiag[t] = K(t, t);
  const std::vector<int>& y = data.y;

  std::vector<double> alpha(n, 0.0);
  // G_i = Σ_j α_j y_j K_ij (decision value minus bias); all-zero initially.
  std::vector<double> G(n, 0.0);

  // ---- warm start: clamp, repair feasibility, seed the gradient ---------
  std::size_t warm_nonzero = 0;
  if (warm_alpha != nullptr && !warm_alpha->empty()) {
    const std::size_t m = std::min(n, warm_alpha->size());
    for (std::size_t t = 0; t < m; ++t) {
      alpha[t] = std::clamp((*warm_alpha)[t], 0.0, C[t]);
    }
    // Repair Σ α_i y_i = 0: shave the surplus class down toward zero,
    // largest entries untouched last so the seed stays close to the old
    // optimum. (A seed exported from a prefix of this dataset is already
    // feasible and this loop is a no-op.)
    double s = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      s += alpha[t] * static_cast<double>(y[t]);
    }
    if (std::abs(s) > kAlphaEps) {
      const int surplus_sign = s > 0.0 ? 1 : -1;
      for (std::size_t t = 0; t < n && std::abs(s) > kAlphaEps; ++t) {
        if (y[t] != surplus_sign || alpha[t] <= 0.0) continue;
        const double take = std::min(alpha[t], std::abs(s));
        alpha[t] -= take;
        s -= static_cast<double>(surplus_sign) * take;
      }
      // If the box left nothing to shave (all surplus pinned at 0 already),
      // fall back to a cold start rather than iterate from an infeasible
      // point.
      if (std::abs(s) > kAlphaEps) std::fill(alpha.begin(), alpha.end(), 0.0);
    }
    // Seed G with one contiguous row sweep per active seed entry.
    for (std::size_t j = 0; j < n; ++j) {
      if (alpha[j] <= kAlphaEps) continue;
      ++warm_nonzero;
      const double wj = static_cast<double>(y[j]) * alpha[j];
      const double* Kj = K.row(j);
      for (std::size_t t = 0; t < n; ++t) G[t] += wj * Kj[t];
    }
  }

  const std::size_t max_iter =
      params.max_iterations > 0 ? params.max_iterations
                                : std::max<std::size_t>(100000, 200 * rows);

  const auto in_up = [&](std::size_t t) {
    return (y[t] > 0 && alpha[t] < C[t]) || (y[t] < 0 && alpha[t] > 0.0);
  };
  const auto in_low = [&](std::size_t t) {
    return (y[t] > 0 && alpha[t] > 0.0) || (y[t] < 0 && alpha[t] < C[t]);
  };
  // Violation score: -y_t ∇f_t = y_t - G_t.
  const auto viol = [&](std::size_t t) {
    return static_cast<double>(y[t]) - G[t];
  };

  std::size_t iter = 0;
  bool converged = false;
  double m_final = 0.0;
  double M_final = 0.0;

  for (; iter < max_iter; ++iter) {
    // ---- working-set selection (LIBSVM WSS2: second-order on j) --------
    std::size_t i = n;
    double m = -std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      if (in_up(t) && viol(t) > m) {
        m = viol(t);
        i = t;
      }
    }
    double M = std::numeric_limits<double>::infinity();
    std::size_t j = n;
    double best_gain = 0.0;
    const double* Ki = i < n ? K.row(i) : nullptr;
    const double Kii = i < n ? Kdiag[i] : 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      if (!in_low(t)) continue;
      const double vt = viol(t);
      M = std::min(M, vt);
      if (i < n && vt < m) {
        const double b_it = m - vt;  // > 0
        const double a_it = std::max(Kii + Kdiag[t] - 2.0 * Ki[t], kTau);
        const double gain = -(b_it * b_it) / a_it;
        if (gain < best_gain) {
          best_gain = gain;
          j = t;
        }
      }
    }
    m_final = m;
    M_final = M;
    if (i == n || j == n || m - M < params.epsilon) {
      converged = (i == n || j == n) ? true : (m - M < params.epsilon);
      break;
    }

    // ---- analytic two-variable update (Platt, per-sample bounds) -------
    const double eta = std::max(Kdiag[i] + Kdiag[j] - 2.0 * Ki[j], kTau);
    // E_i - E_j = (G_i - y_i) - (G_j - y_j) = -(viol(i) - viol(j)).
    const double delta = viol(i) - viol(j);  // = m - viol(j) > 0
    double L;
    double H;
    const double ai = alpha[i];
    const double aj = alpha[j];
    if (y[i] != y[j]) {
      L = std::max(0.0, aj - ai);
      H = std::min(C[j], C[i] + aj - ai);
    } else {
      L = std::max(0.0, ai + aj - C[i]);
      H = std::min(C[j], ai + aj);
    }
    // Platt: α_j += y_j (E_i - E_j) / η with E_i - E_j = -delta.
    double aj_new = aj - static_cast<double>(y[j]) * delta / eta;
    aj_new = std::clamp(aj_new, L, H);
    const double s = static_cast<double>(y[i]) * static_cast<double>(y[j]);
    double ai_new = std::clamp(ai + s * (aj - aj_new), 0.0, C[i]);
    // Snap to the box so bound membership stays *exact*: a clipped update
    // must not leave α a few ulps inside the bound, or the working-set
    // selection keeps proposing a step the arithmetic cannot take and the
    // solver stalls far from the optimum.
    const auto snap = [](double a, double upper) {
      const double tol = 1e-9 * std::max(1.0, upper);
      if (a < tol) return 0.0;
      if (a > upper - tol) return upper;
      return a;
    };
    ai_new = snap(ai_new, C[i]);
    aj_new = snap(aj_new, C[j]);

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
    // Contiguous K[i][·] / K[j][·] sweeps — the flat rows make this the
    // streaming inner loop it should be.
    const double wi = static_cast<double>(y[i]) * dai;
    const double wj = static_cast<double>(y[j]) * daj;
    const double* Kj = K.row(j);
    for (std::size_t t = 0; t < n; ++t) {
      G[t] += wi * Ki[t] + wj * Kj[t];
    }
  }

  // ---- bias: average over free support vectors, else midpoint ----------
  double b = 0.0;
  std::size_t free_count = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] > kAlphaEps && alpha[t] < C[t] - kAlphaEps) {
      b += viol(t);
      ++free_count;
    }
  }
  if (free_count > 0) {
    b /= static_cast<double>(free_count);
  } else if (std::isfinite(m_final) && std::isfinite(M_final)) {
    b = (m_final + M_final) / 2.0;
  }

  // ---- package the model ------------------------------------------------
  std::vector<FeatureVector> svs;
  std::vector<double> coef;
  double objective = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    objective +=
        alpha[t] * (static_cast<double>(y[t]) * G[t] / 2.0 - 1.0);
    if (alpha[t] > kAlphaEps) {
      svs.push_back(data.X[t]);
      coef.push_back(alpha[t] * static_cast<double>(y[t]));
    }
  }
  if (stats != nullptr) {
    stats->iterations = iter;
    stats->support_vectors = svs.size();
    stats->converged = converged;
    stats->objective = objective;
    stats->alpha = alpha;
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
  const GramMatrix K(data.X, params_.kernel);
  return solve(params_, data, K, C, n, stats, warm_alpha);
}

SvmModel SvmTrainer::train_fold(const Dataset& data, const GramMatrix& gram,
                                const std::vector<char>& held_out) const {
  LEAPS_SPAN("svm.train");
  const std::size_t n = data.size();
  LEAPS_CHECK(gram.size() == n && held_out.size() == n);
  const std::vector<double> C = box_bounds(params_.lambda, data, &held_out);
  const auto rows = static_cast<std::size_t>(
      std::count(held_out.begin(), held_out.end(), char{0}));
  return solve(params_, data, gram, C, rows, nullptr, nullptr);
}

}  // namespace leaps::ml
