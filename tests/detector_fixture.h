// Shared test fixture: a small but genuinely trained detector plus the
// partitioned logs it was trained on. Skips hyper-parameter search (the
// default SvmParams are fine for asserting *consistency*, which is what
// the stream/serving tests check — accuracy has its own suites).
#pragma once

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "ml/svm.h"
#include "sim/scenario.h"
#include "trace/partition.h"

namespace leaps::testing {

struct TrainedDetector {
  trace::PartitionedLog benign;
  trace::PartitionedLog mixed;
  trace::PartitionedLog malicious;
  std::shared_ptr<const core::Detector> detector;
};

/// `with_continual` attaches the ContinualState (benign CFG + scaled train
/// set + dual solution) that the online-learning tests retrain from.
inline TrainedDetector train_small_detector(
    const std::string& scenario = "vim_reverse_tcp_online",
    std::size_t events = 1500, std::uint64_t seed = 7,
    bool with_continual = false) {
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

  const core::TrainingData td =
      core::LeapsPipeline().prepare(out.benign, out.mixed);
  ml::Dataset train = td.benign;
  train.append(td.mixed);
  ml::MinMaxScaler scaler;
  scaler.fit(train.X);
  scaler.transform_in_place(train);
  ml::TrainStats stats;
  const ml::SvmModel model = ml::SvmTrainer({}).train(train, &stats);
  auto detector =
      std::make_shared<core::Detector>(td.preprocessor, scaler, model);
  if (with_continual) {
    core::ContinualState continual;
    continual.benign_cfg = td.benign_cfg.graph;
    continual.train = std::move(train);
    continual.alpha = std::move(stats.alpha);
    detector->set_continual(std::move(continual));
  }
  out.detector = std::move(detector);
  return out;
}

}  // namespace leaps::testing
