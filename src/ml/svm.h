// Weighted Support Vector Machine (Section III-D-2, Eqns. 2-5).
//
// Solves the dual problem of Eqn. 4,
//
//     min_α  -Σ αᵢ + ½ Σᵢⱼ αᵢ αⱼ yᵢ yⱼ k(xᵢ, xⱼ)
//     s.t.    0 ≤ αᵢ ≤ λ·cᵢ,   Σ αᵢ yᵢ = 0,
//
// with Sequential Minimal Optimization: LIBSVM-style maximal-violating-pair
// working-set selection, analytic two-variable updates with per-sample box
// bounds Cᵢ = λ·cᵢ, and a precomputed Gram matrix. A sample with cᵢ = 0 is
// pinned at αᵢ = 0 — CFG-certified-benign points in the mixed set simply
// cannot become (negative) support vectors, which is the entire LEAPS
// mechanism. Plain SVM is the cᵢ ≡ 1 special case.
//
// The solver only pays for rows that can move: the Gram covers the
// positive-weight rows, and every SMO sweep walks the ascending list of
// rows with Cᵢ > 0 (two sweeps per iteration). Skipping a pinned row
// changes no selection and no sum, so the result is bit-identical to
// sweeping all n rows (DESIGN.md §10).
//
// The paper's Eqn. 2 omits the bias; we keep the standard C-SVC bias b
// (LIBSVM, which the authors built on, has it), so the equality constraint
// above applies.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/dataset.h"
#include "ml/kernel.h"

namespace leaps::ml {

struct SvmParams {
  KernelParams kernel{};  // {}: designated initializers may leave it out
  /// λ in Eqn. 2 (the C of C-SVC).
  double lambda = 10.0;
  /// KKT violation tolerance for convergence.
  double epsilon = 1e-3;
  /// Hard iteration cap; 0 = automatic (max(10⁵, 200·n), n the training
  /// rows).
  std::size_t max_iterations = 0;
};

/// A trained classifier: f(x) = Σ αᵢ yᵢ k(svᵢ, x) + b; benign iff f(x) >= 0
/// (Eqn. 5: x is classified malicious if the prediction is negative).
class SvmModel {
 public:
  SvmModel() = default;
  SvmModel(std::vector<FeatureVector> support_vectors,
           std::vector<double> coefficients, double bias,
           KernelParams kernel);

  double decision_value(const FeatureVector& x) const;
  /// +1 (benign) or -1 (malicious).
  int predict(const FeatureVector& x) const;

  /// One support vector's share of f(x) — the explain unit of the verdict
  /// audit stream (serve/audit.h).
  struct Contribution {
    std::size_t sv_index = 0;    // into support_vectors()
    double coefficient = 0.0;    // αᵢ yᵢ (negative ⇒ pulls malicious)
    double kernel_value = 0.0;   // k(svᵢ, x)
    double contribution = 0.0;   // coefficient · kernel_value
  };
  /// The ≤ top_k support vectors with the largest |contribution| to f(x),
  /// most influential first (ties broken by sv_index for determinism).
  /// Off the hot path: costs one kernel evaluation per support vector.
  std::vector<Contribution> top_contributions(const FeatureVector& x,
                                              std::size_t top_k) const;

  std::size_t support_vector_count() const { return svs_.size(); }
  double bias() const { return bias_; }
  const KernelParams& kernel() const { return kernel_; }
  const std::vector<FeatureVector>& support_vectors() const { return svs_; }
  const std::vector<double>& coefficients() const { return coef_; }

 private:
  std::vector<FeatureVector> svs_;
  std::vector<double> coef_;  // αᵢ yᵢ
  /// ‖svᵢ‖², cached at construction so per-event scoring pays one dot
  /// product per SV instead of a difference-and-square pass.
  std::vector<double> sv_sq_norms_;
  double bias_ = 0.0;
  KernelParams kernel_;
};

struct TrainStats {
  std::size_t iterations = 0;
  std::size_t support_vectors = 0;
  bool converged = false;
  double objective = 0.0;  // final dual objective value
  /// Full dual solution, aligned with the training-set row order (not just
  /// the support vectors): n entries, 0 at every pinned row. Exported so a
  /// later retraining run on a grown dataset can warm-start SMO from this
  /// optimum — the continual-learning path in src/online/ depends on it.
  std::vector<double> alpha;
  /// Number of strictly-positive entries in the warm-start vector after
  /// box clamping (0 on a cold start) — diagnostic for warm-start quality.
  std::size_t warm_nonzero = 0;
};

class SvmTrainer {
 public:
  explicit SvmTrainer(SvmParams params) : params_(params) {}

  /// Trains on `data` (labels ±1, weights in [0,1]). Requires at least one
  /// sample of each class with positive weight. `stats`, when non-null,
  /// receives solver diagnostics.
  ///
  /// `warm_alpha`, when non-null and non-empty, seeds the SMO solver: entry
  /// i initializes αᵢ (missing trailing entries — a dataset that grew since
  /// the alphas were exported — start at 0). The seed is made feasible
  /// before the first iteration: each αᵢ is clamped into [0, λ·cᵢ] and the
  /// equality constraint Σ αᵢ yᵢ = 0 is repaired by shaving the surplus
  /// class, so any exported (or persisted and re-parsed) vector is a legal
  /// starting point. A warm start never changes the optimum the solver
  /// converges to — only how many iterations it takes to get there.
  SvmModel train(const Dataset& data, TrainStats* stats = nullptr,
                 const std::vector<double>* warm_alpha = nullptr) const;

  /// Cross-validation fit: trains on the rows of `data` whose `held_out`
  /// flag is 0, against `gram` — a Gram of `data` under params().kernel,
  /// built once and shared by every fold and λ of that kernel. It must
  /// cover every positive-weight row (GramMatrix(data.X, kernel,
  /// data.positive_rows()), or an all-rows build); the rows it covers
  /// beyond the fold's active ones are never read. A held-out row gets box
  /// bound Cᵢ = 0, the same pin a zero weight gets, so the model is
  /// bit-identical to train(data.subset(training rows)) without copying
  /// rows or building a fold-sized Gram (DESIGN.md §10). `data` must
  /// already be valid. The same both-classes requirement as train()
  /// applies to the training rows.
  SvmModel train_fold(const Dataset& data, const GramMatrix& gram,
                      const std::vector<char>& held_out) const;

  const SvmParams& params() const { return params_; }

 private:
  SvmParams params_;
};

}  // namespace leaps::ml
