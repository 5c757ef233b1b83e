// Kernel functions for the (W)SVM (Section III-D-2).
//
// The paper uses a Gaussian kernel k(x, z) = exp(-||x - z||² / σ²) with σ²
// as the radius parameter tuned by cross-validation; linear and polynomial
// kernels are provided for ablations.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace leaps::ml {

enum class KernelType : int {
  kGaussian = 0,
  kLinear,
  kPolynomial,
};

std::string_view kernel_type_name(KernelType t);

struct KernelParams {
  KernelType type = KernelType::kGaussian;
  double sigma2 = 1.0;  // Gaussian radius (σ²)
  int degree = 3;       // polynomial degree
  double coef0 = 1.0;   // polynomial offset

  double operator()(const std::vector<double>& a,
                    const std::vector<double>& b) const;
};

/// Full symmetric Gram matrix K[i][j] = k(X[i], X[j]).
///
/// Reference implementation: one KernelParams::operator() call per unique
/// pair into a nested vector. The SMO solver uses GramMatrix below; this
/// stays as the behavioral yardstick for tests and bench_train.
std::vector<std::vector<double>> gram_matrix(
    const std::vector<std::vector<double>>& X, const KernelParams& kernel);

/// Flat row-major Gram matrix — the SMO fast path.
///
/// The build copies X into one contiguous n×d block, precomputes per-row
/// squared norms once, and fills rows in parallel (util::parallel_for).
/// For the Gaussian kernel each pair costs a single dot product:
///     K_ij = exp(-(‖xi‖² + ‖xj‖² − 2·xi·xj) / σ²)
/// (clamped at 0 before the exp so cancellation can never push K above 1);
/// linear/polynomial reuse the same dot. Agreement with the direct
/// KernelParams evaluation is a property-test contract (≤ 1e-12), and the
/// result is bit-identical for every thread count: entry values depend only
/// on the inputs, and each entry is written exactly once. Every build is
/// one `svm.gram` span and adds n(n+1)/2 to leaps_ml_kernel_evals_total.
class GramMatrix {
 public:
  GramMatrix() = default;
  /// Builds the full symmetric matrix for the given rows.
  GramMatrix(const std::vector<std::vector<double>>& X,
             const KernelParams& kernel);

  double operator()(std::size_t i, std::size_t j) const {
    return k_[i * n_ + j];
  }
  /// Contiguous row i (n entries) — the SMO gradient sweeps iterate this.
  const double* row(std::size_t i) const { return k_.get() + i * n_; }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
  // Uninitialized on allocation (every entry is written by the build):
  // value-initializing n² doubles costs a full extra memory pass.
  std::unique_ptr<double[]> k_;
};

}  // namespace leaps::ml
