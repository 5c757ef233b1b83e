// Failure-injection and degenerate-input robustness: the library must fail
// loudly and specifically on unusable input, and keep working on unusual
// but valid input.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.h"
#include "core/pipeline.h"
#include "ml/svm.h"
#include "sim/address_space.h"
#include "sim/profiles.h"
#include "sim/scenario.h"
#include "trace/partition.h"

namespace leaps {
namespace {

// A "mixed" log that is actually clean: CFG weights go to ~0 everywhere and
// WSVM training must refuse with an actionable error instead of fitting a
// meaningless boundary.
TEST(Robustness, CleanMixedLogRefusesToTrainAWeightedModel) {
  sim::SimConfig cfg;
  cfg.benign_events = 2000;
  cfg.mixed_events = 1500;
  cfg.malicious_events = 100;
  const sim::ScenarioSpec& spec = sim::find_scenario("vim_reverse_tcp");
  const sim::ScenarioLogs logs = sim::generate_scenario(spec, cfg);

  // Use a second clean run as the "mixed" input.
  sim::SimConfig clean_cfg = cfg;
  clean_cfg.seed = cfg.seed + 17;
  const sim::ScenarioLogs clean = sim::generate_scenario(spec, clean_cfg);

  const trace::PartitionedLog benign = trace::partition_raw(logs.benign);
  const trace::PartitionedLog fake_mixed = trace::partition_raw(clean.benign);
  const core::TrainingData td =
      core::LeapsPipeline().prepare(benign, fake_mixed);

  // Nearly all mixed windows carry ~zero weight…
  double total_weight = 0.0;
  for (const double w : td.mixed.weight) total_weight += w;
  EXPECT_LT(total_weight, 0.15 * static_cast<double>(td.mixed.size()));

  // …and if they are *all* zero, the trainer refuses loudly.
  ml::Dataset train = td.benign;
  ml::Dataset zeroed = td.mixed;
  std::fill(zeroed.weight.begin(), zeroed.weight.end(), 0.0);
  train.append(zeroed);
  try {
    ml::SvmTrainer({}).train(train);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("both classes"),
              std::string::npos);
  }
}

TEST(Robustness, TinyLogsFlowThroughThePipeline) {
  sim::SimConfig cfg;
  cfg.benign_events = 40;  // 4 windows
  cfg.mixed_events = 30;
  cfg.malicious_events = 20;
  const sim::ScenarioLogs logs =
      sim::generate_scenario(sim::find_scenario("putty_codeinject"), cfg);
  const trace::PartitionedLog benign = trace::partition_raw(logs.benign);
  const trace::PartitionedLog mixed = trace::partition_raw(logs.mixed);
  const core::TrainingData td = core::LeapsPipeline().prepare(benign, mixed);
  EXPECT_EQ(td.benign.size(), 4u);
  EXPECT_EQ(td.mixed.size(), 3u);
  td.benign.validate();
  td.mixed.validate();
}

TEST(Robustness, ExperimentRejectsTooFewWindows) {
  core::ExperimentOptions opt;
  opt.sim.benign_events = 30;  // 3 windows: unusable for a 50/50 split
  opt.sim.mixed_events = 30;
  opt.sim.malicious_events = 30;
  opt.runs = 1;
  const core::ExperimentRunner runner(opt);
  EXPECT_THROW(
      runner.run_scenario(sim::find_scenario("vim_reverse_tcp")),
      std::logic_error);
}

TEST(Robustness, ScanOnShortLogYieldsNoWindows) {
  sim::SimConfig cfg;
  cfg.benign_events = 500;
  cfg.mixed_events = 400;
  cfg.malicious_events = 100;
  const sim::ScenarioLogs logs =
      sim::generate_scenario(sim::find_scenario("vim_reverse_tcp"), cfg);
  const trace::PartitionedLog benign = trace::partition_raw(logs.benign);
  const trace::PartitionedLog mixed = trace::partition_raw(logs.mixed);
  const core::Detector detector = core::fit_detector(benign, mixed).detector;
  trace::PartitionedLog stub;
  stub.events.assign(benign.events.begin(), benign.events.begin() + 7);
  const auto result = detector.scan(stub);  // < one window
  EXPECT_TRUE(result.window_labels.empty());
  EXPECT_DOUBLE_EQ(result.malicious_fraction(), 0.0);
}

TEST(Robustness, DetectorHandlesForeignApplicationLogs) {
  // Scanning a different application's trace must not crash: unseen sets
  // map to nearest clusters and the verdicts are merely unreliable.
  sim::SimConfig cfg;
  cfg.benign_events = 1500;
  cfg.mixed_events = 1200;
  cfg.malicious_events = 100;
  const sim::ScenarioLogs vim =
      sim::generate_scenario(sim::find_scenario("vim_reverse_tcp"), cfg);
  const sim::ScenarioLogs chrome = sim::generate_scenario(
      sim::find_scenario("chrome_reverse_https"), cfg);
  const trace::PartitionedLog benign = trace::partition_raw(vim.benign);
  const trace::PartitionedLog mixed = trace::partition_raw(vim.mixed);
  const core::Detector detector = core::fit_detector(benign, mixed).detector;
  const auto result = detector.scan(trace::partition_raw(chrome.benign));
  EXPECT_EQ(result.window_labels.size(), 150u);
}

TEST(Robustness, DeepStackEventsSurviveTheFullFrontEnd) {
  trace::RawLog log;
  log.process_name = "deep.exe";
  log.modules.push_back({0x140000000, 0x100000, "deep.exe"});
  log.modules.push_back({0x7FF800000000, 0x10000, "lib.dll"});
  log.symbols.push_back({0x7FF800001000, "F"});
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    trace::RawEvent e;
    e.seq = seq;
    e.tid = 1;
    e.type = trace::EventType::kFileRead;
    e.stack.push_back(0x7FF800001000);
    for (int d = 0; d < 500; ++d) {  // pathological stack depth
      e.stack.push_back(0x140000000 + 0x100 + (seq * 13 + d) % 256 * 0x80);
    }
    log.events.push_back(std::move(e));
  }
  const trace::PartitionedLog part = trace::partition_raw(log);
  EXPECT_EQ(part.events[0].app_stack.size(), 500u);
  const cfg::InferredCfg inferred = cfg::CfgInference().infer(part);
  EXPECT_GT(inferred.graph.edge_count(), 0u);
  const cfg::WeightAssessor assessor(inferred.graph);
  EXPECT_NO_THROW(assessor.assess(inferred));
}

TEST(Robustness, ExecutorSurvivesMinimalStackDepth) {
  const sim::LibraryRegistry registry = sim::LibraryRegistry::standard();
  sim::ExecConfig cfg;
  cfg.max_stack_depth = 3;
  const sim::Executor ex(registry, cfg);
  util::Rng rng(1);
  const sim::Program app =
      sim::build_program(sim::app_spec("vim"), sim::kAppImageBase, rng);
  const trace::RawLog log = ex.run_benign(app, 300, util::Rng(2));
  EXPECT_EQ(log.events.size(), 300u);
}

TEST(Robustness, ScenarioRejectsAbsurdPayloadRatio) {
  sim::SimConfig cfg;
  cfg.exec.payload_ratio = 1.5;
  EXPECT_THROW(
      sim::generate_scenario(sim::find_scenario("vim_reverse_tcp"), cfg),
      std::logic_error);
}

}  // namespace
}  // namespace leaps
