// Shared test fixture: a small but genuinely trained detector plus the
// partitioned logs it was trained on. Skips hyper-parameter search (the
// default SvmParams are fine for asserting *consistency*, which is what
// the stream/serving tests check — accuracy has its own suites).
#pragma once

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "sim/scenario.h"
#include "trace/partition.h"

namespace leaps::testing {

struct TrainedDetector {
  trace::PartitionedLog benign;
  trace::PartitionedLog mixed;
  trace::PartitionedLog malicious;
  std::shared_ptr<const core::Detector> detector;
};

/// core::fit_detector with the default options; the detector carries the
/// ContinualState the online-learning tests retrain from.
inline TrainedDetector train_small_detector(
    const std::string& scenario = "vim_reverse_tcp_online",
    std::size_t events = 1500, std::uint64_t seed = 7) {
  sim::SimConfig cfg;
  cfg.benign_events = events;
  cfg.mixed_events = events * 3 / 4;
  cfg.malicious_events = events / 2;
  cfg.seed = seed;
  const sim::ScenarioLogs logs =
      sim::generate_scenario(sim::find_scenario(scenario), cfg);

  TrainedDetector out;
  out.benign = trace::partition_raw(logs.benign);
  out.mixed = trace::partition_raw(logs.mixed);
  out.malicious = trace::partition_raw(logs.malicious);
  out.detector = std::make_shared<const core::Detector>(
      core::fit_detector(out.benign, out.mixed).detector);
  return out;
}

}  // namespace leaps::testing
