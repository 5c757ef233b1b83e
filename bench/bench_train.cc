// bench_train — training fast-path timings: flat Gram build, SMO solve,
// condensed Jaccard and cached-NN UPGMA, swept over the shared thread pool
// size (1/2/4/8).
//
// Two claims are measured:
//   * the fast paths beat the reference implementations on one thread
//     (algorithmic win: flat memory, interned tokens, cached neighbors);
//   * the parallel stages scale with threads while producing bit-identical
//     results (the binary prints hardware_concurrency and the pool size
//     each row actually ran with, so a 1-core box's flat curve reads as
//     what it is).
//
// End-to-end training time is leapsbench's train_putty20k (`train_s`,
// and `ml.tune_ms` under --trace 1), on a 35k-event log with the paper's
// full 10-fold tune.
//
// Knobs: LEAPS_RUNS (best-of repetitions per timing, default 5, fast 3),
// LEAPS_FAST=1 (small preset).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "ml/distance.h"
#include "ml/hcluster.h"
#include "ml/kernel.h"
#include "ml/svm.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace leaps;

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  const std::chrono::duration<double, std::milli> d =
      std::chrono::steady_clock::now() - t0;
  return d.count();
}

/// Best-of-R wall time: the minimum is the least noise-contaminated sample
/// on a shared box, and all the micro-stages here are deterministic.
template <typename F>
double best_of_ms(int reps, F&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

std::vector<std::vector<double>> random_rows(std::size_t n, std::size_t d,
                                             util::Rng& rng) {
  std::vector<std::vector<double>> X(n, std::vector<double>(d));
  for (auto& row : X) {
    for (double& v : row) v = 4.0 * rng.next_double() - 2.0;
  }
  return X;
}

std::vector<ml::StringSet> random_sets(std::size_t n, util::Rng& rng) {
  // ~30 tokens drawn from a 60-symbol vocabulary: roughly the shape of the
  // pipeline's module/function sets.
  std::vector<ml::StringSet> sets(n);
  for (auto& s : sets) {
    for (int t = 0; t < 60; ++t) {
      if (rng.next_bool(0.5)) s.push_back("module_" + std::to_string(t));
    }
    if (s.empty()) s.push_back("module_0");
    std::sort(s.begin(), s.end());
  }
  return sets;
}

ml::Dataset blob_dataset(std::size_t n, util::Rng& rng) {
  ml::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = (i % 2) == 0;
    const double c = pos ? 0.0 : 2.5;
    data.add({c + rng.next_gaussian(), c + rng.next_gaussian(),
              c + rng.next_gaussian()},
             pos ? +1 : -1, 1.0);
  }
  return data;
}

}  // namespace

int main() {
  const bool fast = util::env_flag("LEAPS_FAST");
  const std::vector<std::size_t> gram_sizes =
      fast ? std::vector<std::size_t>{128, 256}
           : std::vector<std::size_t>{256, 512};
  const std::vector<std::size_t> cluster_sizes =
      fast ? std::vector<std::size_t>{150, 300}
           : std::vector<std::size_t>{300, 600};
  const int reps = static_cast<int>(util::env_int("LEAPS_RUNS", fast ? 3 : 5));

  std::printf("LEAPS reproduction — training fast paths (bench_train)\n");
  std::printf("config: hardware_concurrency=%u pool_threads=%zu\n\n",
              std::thread::hardware_concurrency(), util::Parallel::threads());

  // ---- single-thread: fast path vs reference ----------------------------
  util::Parallel::set_threads(1);
  std::printf("single-thread fast path vs reference (ms)\n");
  std::printf("%-6s %10s %10s %12s %12s %10s %10s\n", "n", "gram_ref",
              "gram_fast", "jaccard_ref", "jaccard_fast", "upgma_ref",
              "upgma_fast");
  for (std::size_t s = 0; s < gram_sizes.size(); ++s) {
    const std::size_t n = gram_sizes[s];
    util::Rng rng(100 + s);
    const auto X = random_rows(n, 6, rng);
    ml::KernelParams kernel;
    kernel.sigma2 = 8.0;
    const double gram_ref_ms =
        best_of_ms(reps, [&] { (void)ml::gram_matrix(X, kernel); });
    const double gram_fast_ms =
        best_of_ms(reps, [&] { (void)ml::GramMatrix(X, kernel); });

    const std::size_t cn = cluster_sizes[s];
    const auto sets = random_sets(cn, rng);
    std::vector<std::vector<double>> nested(cn,
                                            std::vector<double>(cn, 0.0));
    const double jaccard_ref_ms = best_of_ms(reps, [&] {
      for (std::size_t i = 0; i < cn; ++i) {
        for (std::size_t j = i + 1; j < cn; ++j) {
          nested[i][j] = nested[j][i] =
              ml::set_dissimilarity(sets[i], sets[j]);
        }
      }
    });
    const ml::CondensedMatrix condensed = ml::jaccard_condensed(sets);
    const double jaccard_fast_ms =
        best_of_ms(reps, [&] { (void)ml::jaccard_condensed(sets); });

    const ml::HierarchicalClusterer clusterer({.cut_distance = 0.5});
    const double upgma_ref_ms =
        best_of_ms(reps, [&] { (void)clusterer.cluster_reference(nested); });
    const double upgma_fast_ms = best_of_ms(reps, [&] {
      ml::CondensedMatrix dm = condensed;  // cluster() consumes its input
      (void)clusterer.cluster(std::move(dm));
    });
    std::printf("%-6zu %10.1f %10.1f %12.1f %12.1f %10.1f %10.1f\n", n,
                gram_ref_ms, gram_fast_ms, jaccard_ref_ms, jaccard_fast_ms,
                upgma_ref_ms, upgma_fast_ms);
  }

  // ---- thread sweep over the parallel stages ----------------------------
  util::Rng rng(42);
  const auto Xg = random_rows(gram_sizes.back(), 6, rng);
  ml::KernelParams kernel;
  kernel.sigma2 = 8.0;
  const auto sets = random_sets(cluster_sizes.back(), rng);
  const ml::Dataset smo_data = blob_dataset(fast ? 200 : 400, rng);

  std::printf("\nthread sweep (ms; same bytes out at every width)\n");
  std::printf("%-8s %5s %9s %12s %9s\n", "threads", "pool", "gram",
              "jaccard", "smo");
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::Parallel::set_threads(threads);
    const double gram_ms =
        best_of_ms(reps, [&] { (void)ml::GramMatrix(Xg, kernel); });
    const double jaccard_ms =
        best_of_ms(reps, [&] { (void)ml::jaccard_condensed(sets); });
    const double smo_ms =
        best_of_ms(reps, [&] { (void)ml::SvmTrainer({}).train(smo_data); });
    std::printf("%-8zu %5zu %9.1f %12.1f %9.1f\n", threads,
                util::Parallel::threads(), gram_ms, jaccard_ms, smo_ms);
  }
  if (std::thread::hardware_concurrency() < 4) {
    std::printf(
        "\n(machine has fewer than 4 hardware threads; expect ~1x "
        "scaling here)\n");
  }
  return 0;
}
