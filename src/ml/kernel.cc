#include "ml/kernel.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <new>
#include <numeric>

#include "obs/registry.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace leaps::ml {

double KernelParams::operator()(const std::vector<double>& a,
                                const std::vector<double>& b) const {
  LEAPS_DCHECK(a.size() == b.size());
  LEAPS_DCHECK(sigma2 > 0.0);
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::exp(-sq / sigma2);
}

std::vector<std::vector<double>> gram_matrix(
    const std::vector<std::vector<double>>& X, const KernelParams& kernel) {
  const std::size_t n = X.size();
  std::vector<std::vector<double>> K(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel(X[i], X[j]);
      K[i][j] = v;
      K[j][i] = v;
    }
  }
  return K;
}

void GramMatrix::Unmap::operator()(double* p) const {
  if (p != nullptr) munmap(p, bytes);
}

GramMatrix::GramMatrix(const std::vector<std::vector<double>>& X,
                       const KernelParams& kernel)
    : GramMatrix(X, kernel, [&] {
        std::vector<std::size_t> all(X.size());
        std::iota(all.begin(), all.end(), std::size_t{0});
        return all;
      }()) {}

GramMatrix::GramMatrix(const std::vector<std::vector<double>>& X,
                       const KernelParams& kernel,
                       std::vector<std::size_t> rows)
    : n_(rows.size()), rows_(std::move(rows)) {
  LEAPS_SPAN("svm.gram");
  const double sigma2 = kernel.sigma2;
  LEAPS_DCHECK(sigma2 > 0.0);
  // Each unique pair is evaluated once (the mirror write is free), so the
  // metric counts the upper triangle: n(n+1)/2 per build over n rows.
  static obs::Counter& kernel_evals = obs::MetricRegistry::global().counter(
      "leaps_ml_kernel_evals_total",
      "kernel evaluations spent building SVM gram matrices");
  kernel_evals.inc(n_ * (n_ + 1) / 2);
  const std::size_t d = n_ == 0 ? 0 : X[rows_.front()].size();
  // One contiguous n×d block: the pair loop below reads rows without
  // pointer chasing.
  std::vector<double> xs(n_ * d);
  std::vector<double> sq(n_);  // ‖xi‖², for the norm trick
  for (std::size_t i = 0; i < n_; ++i) {
    LEAPS_CHECK(rows_[i] < X.size() && (i == 0 || rows_[i - 1] < rows_[i]));
    const std::vector<double>& x = X[rows_[i]];
    LEAPS_DCHECK(x.size() == d);
    std::copy(x.begin(), x.end(), xs.begin() + i * d);
    sq[i] = dot(&xs[i * d], &xs[i * d], d);
  }
  if (n_ == 0) return;

  const std::size_t bytes = n_ * n_ * sizeof(double);
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  k_ = std::unique_ptr<double[], Unmap>(static_cast<double*>(map),
                                        Unmap{bytes});
  // Upper triangle first, row-major writes only: pair (i, j>i) is owned by
  // row i's chunk, so every entry has exactly one writer and the result is
  // independent of the thread count. Mirroring inline would store at
  // stride n_ — for power-of-two n_ that lands every write in the same L1
  // set (and shares lines across chunks); the separate tiled pass below
  // keeps both passes cache-friendly.
  util::parallel_for(0, n_, 8, [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      const double* xi = &xs[i * d];
      double* Ki = &k_[i * n_];
      Ki[i] = 1.0;
      for (std::size_t j = i + 1; j < n_; ++j) {
        Ki[j] = gaussian(sq[i], sq[j], dot(xi, &xs[j * d], d), sigma2);
      }
    }
  });

  // Mirror the lower triangle as a tiled transpose: each destination row j
  // writes contiguously, and a 64×64 source tile stays resident while its
  // column slice is consumed. Entries are copied (never recomputed), and
  // each is written by exactly one chunk, so symmetry is exact and the
  // bytes are thread-count-independent.
  constexpr std::size_t kTile = 64;
  util::parallel_for(0, n_, kTile, [&](std::size_t jb, std::size_t je) {
    for (std::size_t ib = 0; ib < je; ib += kTile) {
      const std::size_t ie = std::min(ib + kTile, n_);
      for (std::size_t j = std::max(jb, ib + 1); j < je; ++j) {
        double* Kj = &k_[j * n_];
        const std::size_t end = std::min(ie, j);
        for (std::size_t i = ib; i < end; ++i) Kj[i] = k_[i * n_ + j];
      }
    }
  });
}

}  // namespace leaps::ml
