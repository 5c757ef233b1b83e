// The Gaussian kernel of the (W)SVM (Section III-D-2).
//
// The paper uses one kernel, k(x, z) = exp(-||x - z||² / σ²), with σ² as
// the radius parameter tuned by cross-validation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

namespace leaps::ml {

struct KernelParams {
  double sigma2 = 1.0;  // Gaussian radius (σ²)

  /// The reference form: one difference-and-square pass over the pair.
  double operator()(const std::vector<double>& a,
                    const std::vector<double>& b) const;
};

/// a·b over d entries, summed in index order: every fast-form kernel value
/// depends on this order.
inline double dot(const double* a, const double* b, std::size_t d) {
  double s = 0.0;
  for (std::size_t k = 0; k < d; ++k) s += a[k] * b[k];
  return s;
}

/// The fast form of k(a, b) from ‖a‖², ‖b‖² and a·b: the norm trick
/// ‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b, clamped at 0 before the exp so
/// cancellation can never push k above 1. GramMatrix and
/// SvmModel::decision_value both score through it, so a Gram entry
/// K(i, j) equals, bit for bit, the decision value at X[i] of a one-SV
/// model {X[j]} with coefficient 1 and bias 0.
inline double gaussian(double a_sq, double b_sq, double ab, double sigma2) {
  return std::exp(-std::max(0.0, a_sq + b_sq - 2.0 * ab) / sigma2);
}

/// Full symmetric Gram matrix K[i][j] = k(X[i], X[j]).
///
/// Reference implementation: one KernelParams::operator() call per unique
/// pair into a nested vector. The SMO solver uses GramMatrix below; this
/// stays as the behavioral yardstick for tests and bench_train.
std::vector<std::vector<double>> gram_matrix(
    const std::vector<std::vector<double>>& X, const KernelParams& kernel);

/// Flat row-major Gram matrix over a chosen set of rows — the SMO fast path.
///
/// `rows` lists, in ascending order, which rows of X the matrix covers;
/// Gram row r holds k(X[rows[r]], ·). The trainers build it over the
/// positive-weight rows only (Dataset::positive_rows): a row with cᵢ = 0
/// is pinned at αᵢ = 0, so no solver ever reads its kernel values. The
/// two-argument constructor covers every row.
///
/// The build copies the chosen rows into one contiguous m×d block,
/// precomputes per-row squared norms once, and fills rows in parallel
/// (util::parallel_for). Each pair costs a single dot product, scored by
/// gaussian(‖xi‖², ‖xj‖², xi·xj, σ²). Because `rows` ascends, an entry
/// is computed with the same operands in the same order whichever rows are
/// left out, so it is bit-identical to the entry of an all-rows build.
/// Agreement with the direct KernelParams evaluation is a property-test
/// contract (≤ 1e-12), and the result is bit-identical for every thread
/// count: entry values depend only on the inputs, and each entry is
/// written exactly once. Every build is one `svm.gram` span and adds
/// m(m+1)/2 to leaps_ml_kernel_evals_total.
///
/// The m² doubles live in their own anonymous mapping, returned to the
/// kernel when the matrix dies. From the heap, a matrix below glibc's
/// mmap threshold would stay resident after it is freed.
class GramMatrix {
 public:
  GramMatrix() = default;
  /// Builds the full symmetric matrix over every row of X.
  GramMatrix(const std::vector<std::vector<double>>& X,
             const KernelParams& kernel);
  /// Builds the full symmetric matrix over X[rows[0]], X[rows[1]], …;
  /// `rows` must ascend strictly.
  GramMatrix(const std::vector<std::vector<double>>& X,
             const KernelParams& kernel, std::vector<std::size_t> rows);

  /// Entry (r, s) in Gram-row coordinates (positions in rows()).
  double operator()(std::size_t r, std::size_t s) const {
    return k_[r * n_ + s];
  }
  /// Contiguous Gram row r (size() entries) — the SMO sweeps gather from
  /// this.
  const double* row(std::size_t r) const { return k_.get() + r * n_; }
  std::size_t size() const { return n_; }
  /// The row of X behind each Gram row, ascending.
  const std::vector<std::size_t>& rows() const { return rows_; }

 private:
  struct Unmap {
    std::size_t bytes;
    void operator()(double* p) const;
  };

  std::size_t n_ = 0;
  std::vector<std::size_t> rows_;
  // Mapped fresh and written only by the build: no value-initializing
  // pass over the n² doubles.
  std::unique_ptr<double[], Unmap> k_;
};

}  // namespace leaps::ml
