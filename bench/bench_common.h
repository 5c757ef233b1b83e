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

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "util/env.h"

namespace leaps::bench {

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
