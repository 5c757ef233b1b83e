// Shared harness for the reproduction binaries.
//
// bench_paper regenerates the paper's evaluation (Table I, Figures 5-7);
// the other experiment binaries cover the extension and ablation studies.
// Knobs come from the environment so CI can run a fast smoke pass:
//   LEAPS_RUNS    averaging runs (paper: 10)
//   LEAPS_EVENTS  benign-log events per scenario (mixed = 3/4, malicious = 1/2)
//   LEAPS_FOLDS   cross-validation folds (paper: 10)
//   LEAPS_FAST=1  small preset (overrides the above downward)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/experiment.h"
#include "util/env.h"

namespace leaps::bench {

/// Guard for re-capturing a checked-in BENCH_*.json: speedup columns are
/// only comparable when the new box has the same core count the baseline
/// was measured on. Point LEAPS_BENCH_BASELINE at the checked-in snapshot;
/// on a mismatch the bench either refuses (LEAPS_BENCH_STRICT=1) or
/// annotates the new JSON so the divergence is recorded, never silent.
struct BaselineGuard {
  unsigned baseline_concurrency = 0;  // 0 = no baseline consulted
  bool mismatch = false;
  /// Extra fields for the JSON "config" object ("" when comparable).
  std::string annotation;
};

inline BaselineGuard check_bench_baseline() {
  BaselineGuard g;
  const std::string path = util::env_string("LEAPS_BENCH_BASELINE", "");
  if (path.empty()) return g;
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "bench: cannot read baseline %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  const std::string key = "\"hardware_concurrency\":";
  const auto pos = text.find(key);
  if (pos == std::string::npos) {
    std::fprintf(stderr, "bench: baseline %s lacks hardware_concurrency\n",
                 path.c_str());
    std::exit(1);
  }
  g.baseline_concurrency = static_cast<unsigned>(
      std::strtoul(text.c_str() + pos + key.size(), nullptr, 10));
  const unsigned here = std::thread::hardware_concurrency();
  if (g.baseline_concurrency == here) return g;
  g.mismatch = true;
  if (util::env_flag("LEAPS_BENCH_STRICT")) {
    std::fprintf(stderr,
                 "bench: refusing to re-capture — this box has %u hardware "
                 "threads but the baseline %s was measured with %u "
                 "(LEAPS_BENCH_STRICT=1); results would not be comparable\n",
                 here, path.c_str(), g.baseline_concurrency);
    std::exit(1);
  }
  std::fprintf(stderr,
               "bench: warning — %u hardware threads here vs %u in baseline "
               "%s; annotating the JSON (set LEAPS_BENCH_STRICT=1 to refuse "
               "instead)\n",
               here, g.baseline_concurrency, path.c_str());
  std::ostringstream ann;
  ann << ", \"baseline_hardware_concurrency\": " << g.baseline_concurrency
      << ", \"baseline_core_mismatch\": true";
  g.annotation = ann.str();
  return g;
}

inline core::ExperimentOptions options_from_env() {
  core::ExperimentOptions opt;
  opt.runs = static_cast<std::size_t>(util::env_int("LEAPS_RUNS", 10));
  const auto events =
      static_cast<std::size_t>(util::env_int("LEAPS_EVENTS", 12000));
  opt.sim.benign_events = events;
  opt.sim.mixed_events = events * 3 / 4;
  opt.sim.malicious_events = events / 2;
  opt.cv.folds = static_cast<std::size_t>(util::env_int("LEAPS_FOLDS", 10));
  if (util::env_flag("LEAPS_FAST")) {
    opt.runs = std::min<std::size_t>(opt.runs, 2);
    opt.sim.benign_events = std::min<std::size_t>(opt.sim.benign_events, 4000);
    opt.sim.mixed_events = std::min<std::size_t>(opt.sim.mixed_events, 3000);
    opt.sim.malicious_events =
        std::min<std::size_t>(opt.sim.malicious_events, 2000);
    opt.cv.folds = 5;
  }
  return opt;
}

inline void print_banner(const char* what,
                         const core::ExperimentOptions& opt) {
  std::printf("LEAPS reproduction — %s\n", what);
  std::printf(
      "config: events=%zu/%zu/%zu runs=%zu cv_folds=%zu "
      "(LEAPS_RUNS/LEAPS_EVENTS/LEAPS_FOLDS/LEAPS_FAST to adjust)\n\n",
      opt.sim.benign_events, opt.sim.mixed_events, opt.sim.malicious_events,
      opt.runs, opt.cv.folds);
}

/// When LEAPS_CSV_DIR is set, opens `<dir>/<name>` for writing and prints
/// the header; otherwise returns nullptr (CSV output disabled). The caller
/// owns the handle (fclose).
inline std::FILE* open_csv(const char* name, const char* header) {
  const std::string dir = util::env_string("LEAPS_CSV_DIR", "");
  if (dir.empty()) return nullptr;
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return nullptr;
  }
  std::fprintf(f, "%s\n", header);
  std::printf("(CSV -> %s)\n", path.c_str());
  return f;
}

}  // namespace leaps::bench
