// bench_train — training fast-path timings: flat Gram build, SMO solve,
// condensed Jaccard, cached-NN UPGMA, and the end-to-end prepare+tune+train
// pipeline, swept over the shared thread pool size (1/2/4/8).
//
// Two claims are measured:
//   * the fast paths beat the reference implementations on one thread
//     (algorithmic win: flat memory, interned tokens, cached neighbors);
//   * the parallel stages scale with threads while producing bit-identical
//     results (the binary prints hardware_concurrency and the pool size
//     each row actually ran with, so a 1-core CI box's flat curve reads as
//     what it is).
//
// The tune column also records structure: Gram builds per tune_svm call,
// read from the leaps_ml_kernel_evals_total delta (one full-dataset Gram
// per σ², DESIGN.md §10).
//
// Knobs: LEAPS_EVENTS (end-to-end training-log size, default 3000),
// LEAPS_RUNS (best-of repetitions per timing, default 5, fast 3),
// LEAPS_FAST=1 (small preset). LEAPS_BENCH_JSON=<path> additionally writes
// the measurements as a JSON snapshot (the format of the checked-in
// BENCH_train.json baseline). LEAPS_BENCH_BASELINE=<path> compares this
// box's core count against the checked-in snapshot before writing:
// mismatches are annotated in the JSON, or refused outright with
// LEAPS_BENCH_STRICT=1 (speedup columns are incomparable across core
// counts).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "ml/cross_validation.h"
#include "ml/distance.h"
#include "ml/hcluster.h"
#include "ml/kernel.h"
#include "ml/svm.h"
#include "obs/registry.h"
#include "sim/scenario.h"
#include "trace/partition.h"
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

struct SingleThreadRow {
  std::size_t n = 0;
  double gram_ref_ms = 0.0;
  double gram_fast_ms = 0.0;
  double jaccard_ref_ms = 0.0;
  double jaccard_fast_ms = 0.0;
  double upgma_ref_ms = 0.0;
  double upgma_fast_ms = 0.0;
};

struct ThreadRow {
  std::size_t threads = 0;
  std::size_t pool_threads = 0;  // util::Parallel::threads() after set
  double tune_grams = 0.0;       // Gram builds per tune_svm call
  double gram_ms = 0.0;
  double jaccard_ms = 0.0;
  double smo_ms = 0.0;
  double tune_ms = 0.0;
  double e2e_ms = 0.0;
};

struct E2eInput {
  trace::PartitionedLog benign;
  trace::PartitionedLog mixed;
};

E2eInput build_e2e_input(std::size_t train_events) {
  sim::SimConfig cfg;
  cfg.benign_events = train_events;
  cfg.mixed_events = train_events * 3 / 4;
  cfg.malicious_events = train_events / 2;
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("vim_reverse_tcp_online"), cfg);
  return {trace::partition_raw(logs.benign), trace::partition_raw(logs.mixed)};
}

/// prepare (cluster-heavy) + CV tune (fold×grid fan-out) + final train
/// (Gram + SMO) — the whole leaps-train hot path minus file I/O.
double run_e2e(const E2eInput& in) {
  const auto t0 = std::chrono::steady_clock::now();
  core::FitOptions options;
  options.tune = ml::CrossValidationOptions{
      .lambdas = {1.0, 10.0}, .sigma2s = {2.0, 8.0}, .folds = 5};
  (void)core::fit_detector(in.benign, in.mixed, options);
  return ms_since(t0);
}

}  // namespace

int main() {
  const bool fast = util::env_flag("LEAPS_FAST");
  const auto train_events = static_cast<std::size_t>(
      util::env_int("LEAPS_EVENTS", fast ? 1500 : 3000));
  const std::vector<std::size_t> gram_sizes =
      fast ? std::vector<std::size_t>{128, 256}
           : std::vector<std::size_t>{256, 512};
  const std::vector<std::size_t> cluster_sizes =
      fast ? std::vector<std::size_t>{150, 300}
           : std::vector<std::size_t>{300, 600};
  const int reps = static_cast<int>(util::env_int("LEAPS_RUNS", fast ? 3 : 5));
  const std::size_t default_threads = util::Parallel::threads();

  std::printf("LEAPS reproduction — training fast paths (bench_train)\n");
  std::printf(
      "config: train_events=%zu hardware_concurrency=%u pool_threads=%zu\n\n",
      train_events, std::thread::hardware_concurrency(), default_threads);

  // ---- single-thread: fast path vs reference ----------------------------
  util::Parallel::set_threads(1);
  std::vector<SingleThreadRow> st_rows;
  std::printf("single-thread fast path vs reference (ms)\n");
  std::printf("%-6s %10s %10s %12s %12s %10s %10s\n", "n", "gram_ref",
              "gram_fast", "jaccard_ref", "jaccard_fast", "upgma_ref",
              "upgma_fast");
  for (std::size_t s = 0; s < gram_sizes.size(); ++s) {
    SingleThreadRow row;
    row.n = gram_sizes[s];
    util::Rng rng(100 + s);
    const auto X = random_rows(row.n, 6, rng);
    ml::KernelParams kernel;
    kernel.sigma2 = 8.0;
    row.gram_ref_ms =
        best_of_ms(reps, [&] { (void)ml::gram_matrix(X, kernel); });
    row.gram_fast_ms =
        best_of_ms(reps, [&] { (void)ml::GramMatrix(X, kernel); });

    const std::size_t cn = cluster_sizes[s];
    const auto sets = random_sets(cn, rng);
    std::vector<std::vector<double>> nested(cn,
                                            std::vector<double>(cn, 0.0));
    row.jaccard_ref_ms = best_of_ms(reps, [&] {
      for (std::size_t i = 0; i < cn; ++i) {
        for (std::size_t j = i + 1; j < cn; ++j) {
          nested[i][j] = nested[j][i] =
              ml::set_dissimilarity(sets[i], sets[j]);
        }
      }
    });
    const ml::CondensedMatrix condensed = ml::jaccard_condensed(sets);
    row.jaccard_fast_ms =
        best_of_ms(reps, [&] { (void)ml::jaccard_condensed(sets); });

    const ml::HierarchicalClusterer clusterer({.cut_distance = 0.5});
    row.upgma_ref_ms =
        best_of_ms(reps, [&] { (void)clusterer.cluster_reference(nested); });
    row.upgma_fast_ms = best_of_ms(reps, [&] {
      ml::CondensedMatrix dm = condensed;  // cluster() consumes its input
      (void)clusterer.cluster(std::move(dm));
    });
    std::printf("%-6zu %10.1f %10.1f %12.1f %12.1f %10.1f %10.1f\n", row.n,
                row.gram_ref_ms, row.gram_fast_ms, row.jaccard_ref_ms,
                row.jaccard_fast_ms, row.upgma_ref_ms, row.upgma_fast_ms);
    st_rows.push_back(row);
  }

  // ---- thread sweep over the parallel stages ----------------------------
  const std::size_t gram_n = gram_sizes.back();
  const std::size_t cluster_n = cluster_sizes.back();
  util::Rng rng(42);
  const auto Xg = random_rows(gram_n, 6, rng);
  ml::KernelParams kernel;
  kernel.sigma2 = 8.0;
  const auto sets = random_sets(cluster_n, rng);
  const ml::Dataset smo_data = blob_dataset(fast ? 200 : 400, rng);
  const E2eInput e2e = build_e2e_input(train_events);

  std::printf("\nthread sweep (ms; same bytes out at every width)\n");
  std::printf("%-8s %5s %9s %12s %9s %9s %6s %10s %9s\n", "threads",
              "pool", "gram", "jaccard", "smo", "tune", "grams", "e2e",
              "speedup");
  const obs::Counter& kernel_evals =
      obs::MetricRegistry::global().counter("leaps_ml_kernel_evals_total");
  const double evals_per_gram =
      static_cast<double>(smo_data.size() * (smo_data.size() + 1) / 2);
  std::vector<ThreadRow> rows;
  double base_e2e = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::Parallel::set_threads(threads);
    ThreadRow row;
    row.threads = threads;
    row.pool_threads = util::Parallel::threads();
    row.gram_ms =
        best_of_ms(reps, [&] { (void)ml::GramMatrix(Xg, kernel); });
    row.jaccard_ms =
        best_of_ms(reps, [&] { (void)ml::jaccard_condensed(sets); });
    row.smo_ms =
        best_of_ms(reps, [&] { (void)ml::SvmTrainer({}).train(smo_data); });
    const std::uint64_t evals0 = kernel_evals.value();
    row.tune_ms = best_of_ms(reps, [&] {
      ml::CrossValidationOptions cv;
      cv.folds = 5;
      cv.lambdas = {1.0, 10.0};
      cv.sigma2s = {2.0, 8.0};
      util::Rng tune_rng(7);
      (void)ml::tune_svm(smo_data, {}, cv, tune_rng);
    });
    row.tune_grams = static_cast<double>(kernel_evals.value() - evals0) /
                     evals_per_gram / reps;
    row.e2e_ms = run_e2e(e2e);
    if (threads == 1) base_e2e = row.e2e_ms;
    rows.push_back(row);
    std::printf("%-8zu %5zu %9.1f %12.1f %9.1f %9.1f %6.1f %10.1f %8.2fx\n",
                threads, row.pool_threads, row.gram_ms, row.jaccard_ms,
                row.smo_ms, row.tune_ms, row.tune_grams, row.e2e_ms,
                base_e2e > 0.0 ? base_e2e / row.e2e_ms : 1.0);
  }
  if (std::thread::hardware_concurrency() < 4) {
    std::printf(
        "\n(machine has fewer than 4 hardware threads; expect ~1x "
        "scaling here)\n");
  }

  // ---- JSON snapshot ----------------------------------------------------
  const std::string json_path = util::env_string("LEAPS_BENCH_JSON", "");
  if (!json_path.empty()) {
    const bench::BaselineGuard guard = bench::check_bench_baseline();
    std::ofstream os(json_path, std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    os << "{\n  \"benchmark\": \"bench_train\",\n"
       << "  \"config\": {\"train_events\": " << train_events
       << ", \"gram_n\": " << gram_n << ", \"cluster_n\": " << cluster_n
       << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ", \"pool_threads\": " << default_threads << guard.annotation
       << "},\n"
       << "  \"single_thread\": [\n";
    for (std::size_t i = 0; i < st_rows.size(); ++i) {
      char line[256];
      std::snprintf(
          line, sizeof line,
          "    {\"n\": %zu, \"gram_ref_ms\": %.1f, \"gram_fast_ms\": %.1f, "
          "\"jaccard_ref_ms\": %.1f, \"jaccard_fast_ms\": %.1f, "
          "\"upgma_ref_ms\": %.1f, \"upgma_fast_ms\": %.1f}%s\n",
          st_rows[i].n, st_rows[i].gram_ref_ms, st_rows[i].gram_fast_ms,
          st_rows[i].jaccard_ref_ms, st_rows[i].jaccard_fast_ms,
          st_rows[i].upgma_ref_ms, st_rows[i].upgma_fast_ms,
          i + 1 < st_rows.size() ? "," : "");
      os << line;
    }
    os << "  ],\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char line[256];
      std::snprintf(
          line, sizeof line,
          "    {\"threads\": %zu, \"pool_threads\": %zu, \"gram_ms\": %.1f, "
          "\"jaccard_ms\": %.1f, \"smo_ms\": %.1f, \"tune_ms\": %.1f, "
          "\"tune_gram_builds\": %.1f, \"e2e_ms\": %.1f, "
          "\"speedup\": %.2f}%s\n",
          rows[i].threads, rows[i].pool_threads, rows[i].gram_ms,
          rows[i].jaccard_ms, rows[i].smo_ms, rows[i].tune_ms,
          rows[i].tune_grams, rows[i].e2e_ms,
          base_e2e > 0.0 ? base_e2e / rows[i].e2e_ms : 1.0,
          i + 1 < rows.size() ? "," : "");
      os << line;
    }
    os << "  ]\n}\n";
    std::printf("(JSON -> %s)\n", json_path.c_str());
  }
  return 0;
}
