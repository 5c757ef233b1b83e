// Integration tests for the LEAPS training pipeline and detector on
// simulated scenarios: weights must separate ground-truth benign from
// malicious events, and a trained detector must flag payload activity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "core/persist.h"
#include "core/pipeline.h"
#include "ml/cross_validation.h"
#include "ml/svm.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "util/rng.h"

namespace leaps::core {
namespace {

struct PreparedScenario {
  sim::ScenarioLogs logs;
  trace::PartitionedLog benign;
  trace::PartitionedLog mixed;
  trace::PartitionedLog malicious;
  TrainingData td;
};

/// The scenario's logs, without running the pipeline (`td` stays empty).
PreparedScenario simulate(const std::string& name, std::size_t events) {
  PreparedScenario out;
  sim::SimConfig cfg;
  cfg.benign_events = events;
  cfg.mixed_events = events;
  cfg.malicious_events = events / 2;
  out.logs = sim::generate_scenario(sim::find_scenario(name), cfg);
  out.benign = trace::partition_raw(out.logs.benign);
  out.mixed = trace::partition_raw(out.logs.mixed);
  out.malicious = trace::partition_raw(out.logs.malicious);
  return out;
}

PreparedScenario prepare(const std::string& name, std::size_t events = 3000) {
  PreparedScenario out = simulate(name, events);
  out.td = LeapsPipeline().prepare(out.benign, out.mixed);
  return out;
}

/// A WSVM detector fitted on the scenario with λ = 10 and the given σ².
Detector fit(const PreparedScenario& s, double sigma2 = 8.0) {
  FitOptions options;
  options.svm.kernel.sigma2 = sigma2;
  return fit_detector(s.benign, s.mixed, options).detector;
}

TEST(Pipeline, BenignDatasetIsAllPositiveWeightOne) {
  const PreparedScenario s = prepare("vim_reverse_tcp");
  EXPECT_FALSE(s.td.benign.empty());
  for (std::size_t i = 0; i < s.td.benign.size(); ++i) {
    EXPECT_EQ(s.td.benign.y[i], 1);
    EXPECT_DOUBLE_EQ(s.td.benign.weight[i], 1.0);
  }
  s.td.benign.validate();
}

TEST(Pipeline, MixedDatasetIsNegativeWithUnitIntervalWeights) {
  const PreparedScenario s = prepare("putty_reverse_https_online");
  EXPECT_FALSE(s.td.mixed.empty());
  for (std::size_t i = 0; i < s.td.mixed.size(); ++i) {
    EXPECT_EQ(s.td.mixed.y[i], -1);
    EXPECT_GE(s.td.mixed.weight[i], 0.0);
    EXPECT_LE(s.td.mixed.weight[i], 1.0);
  }
  s.td.mixed.validate();
}

// The heart of LEAPS: CFG-derived benignity must track ground truth.
TEST(Pipeline, EventBenignitySeparatesTruthClasses) {
  for (const char* name :
       {"winscp_reverse_tcp", "vim_codeinject", "chrome_reverse_https",
        "notepad++_reverse_tcp_online"}) {
    const PreparedScenario s = prepare(name);
    double benign_sum = 0.0;
    double malicious_sum = 0.0;
    std::size_t benign_n = 0;
    std::size_t malicious_n = 0;
    for (std::size_t i = 0; i < s.mixed.events.size(); ++i) {
      const auto it = s.td.event_benignity.find(s.mixed.events[i].seq);
      const double b = it == s.td.event_benignity.end() ? 1.0 : it->second;
      if (s.logs.mixed_truth[i]) {
        malicious_sum += b;
        ++malicious_n;
      } else {
        benign_sum += b;
        ++benign_n;
      }
    }
    ASSERT_GT(benign_n, 0u) << name;
    ASSERT_GT(malicious_n, 0u) << name;
    const double mean_benign = benign_sum / static_cast<double>(benign_n);
    const double mean_malicious =
        malicious_sum / static_cast<double>(malicious_n);
    EXPECT_GT(mean_benign, 0.9) << name;
    // Offline detour events carry benign stack prefixes whose explicit
    // edges score 1, so malicious means float above 0 — but far below the
    // benign mean.
    EXPECT_LT(mean_malicious, 0.35) << name;
    EXPECT_GT(mean_benign - mean_malicious, 0.6) << name;
  }
}

TEST(Pipeline, WindowWeightsTrackPayloadContent) {
  const PreparedScenario s = prepare("winscp_reverse_tcp_online");
  const std::size_t window = s.td.preprocessor.window();
  // Window weight approximates the malicious event fraction: compare the
  // two series by mean absolute deviation and correlation.
  double mad = 0.0;
  double sum_w = 0.0, sum_t = 0.0, sum_ww = 0.0, sum_tt = 0.0, sum_wt = 0.0;
  const auto n = static_cast<double>(s.td.mixed.size());
  for (std::size_t w = 0; w < s.td.mixed.size(); ++w) {
    double truth_fraction = 0.0;
    for (const std::size_t idx : s.td.mixed_windows.event_indices[w]) {
      truth_fraction += s.logs.mixed_truth[idx] ? 1.0 : 0.0;
    }
    truth_fraction /= static_cast<double>(window);
    const double weight = s.td.mixed.weight[w];
    mad += std::abs(weight - truth_fraction);
    sum_w += weight;
    sum_t += truth_fraction;
    sum_ww += weight * weight;
    sum_tt += truth_fraction * truth_fraction;
    sum_wt += weight * truth_fraction;
  }
  mad /= n;
  const double cov = sum_wt / n - (sum_w / n) * (sum_t / n);
  const double var_w = sum_ww / n - (sum_w / n) * (sum_w / n);
  const double var_t = sum_tt / n - (sum_t / n) * (sum_t / n);
  ASSERT_GT(var_w, 0.0);
  ASSERT_GT(var_t, 0.0);
  const double corr = cov / std::sqrt(var_w * var_t);
  EXPECT_LT(mad, 0.15);
  // At 3000-event logs the inferred benign CFG is sparse enough that some
  // windows are mis-weighted; 0.75 still indicates strong agreement.
  EXPECT_GT(corr, 0.75);
}

TEST(Pipeline, InferredCfgsAreNonTrivial) {
  const PreparedScenario s = prepare("notepad++_codeinject");
  EXPECT_GT(s.td.benign_cfg.graph.edge_count(), 50u);
  EXPECT_GT(s.td.mixed_cfg.graph.edge_count(),
            s.td.benign_cfg.graph.edge_count() / 2);
  // The mixed CFG contains payload-region nodes the benign CFG lacks.
  const auto benign_nodes = s.td.benign_cfg.graph.nodes();
  const auto mixed_nodes = s.td.mixed_cfg.graph.nodes();
  EXPECT_GT(mixed_nodes.back(), benign_nodes.back());
}

TEST(Pipeline, MemapCoversMostMixedEvents) {
  const PreparedScenario s = prepare("vim_reverse_https");
  // Nearly every event has at least one affiliated inferred path.
  EXPECT_GT(s.td.event_benignity.size(), s.mixed.events.size() * 8 / 10);
}

TEST(Detector, FlagsPayloadLogAndPassesBenignLog) {
  const PreparedScenario s = simulate("vim_reverse_tcp_online", 4000);
  const Detector detector = fit(s);
  const auto benign_scan = detector.scan(s.benign);
  const auto malicious_scan = detector.scan(s.malicious);
  ASSERT_GT(benign_scan.window_labels.size(), 0u);
  ASSERT_GT(malicious_scan.window_labels.size(), 0u);
  EXPECT_LT(benign_scan.malicious_fraction(), 0.35);
  EXPECT_GT(malicious_scan.malicious_fraction(), 0.65);
}

TEST(Detector, StreamMatchesBatchScan) {
  const PreparedScenario s = simulate("vim_reverse_tcp_online", 3000);
  const Detector detector = fit(s);

  const auto batch = detector.scan(s.malicious);
  Detector::Stream stream = detector.stream();
  std::vector<int> online;
  for (const trace::PartitionedEvent& e : s.malicious.events) {
    if (const auto verdict = stream.push(e)) online.push_back(*verdict);
  }
  EXPECT_EQ(online, batch.window_labels);
  EXPECT_EQ(stream.tally().malicious_windows, batch.malicious_windows);
  EXPECT_EQ(stream.events_seen(), s.malicious.events.size());
}

TEST(Detector, StreamEmitsOnlyOnWindowBoundaries) {
  const PreparedScenario s = simulate("vim_reverse_tcp", 2000);
  const Detector detector = fit(s, ml::KernelParams{}.sigma2);
  Detector::Stream stream = detector.stream();
  const std::size_t window = detector.preprocessor().window();
  for (std::size_t i = 0; i < 3 * window; ++i) {
    const auto verdict = stream.push(s.benign.events[i]);
    EXPECT_EQ(verdict.has_value(), (i + 1) % window == 0) << "event " << i;
  }
}

TEST(Detector, CalibrationBoundsFalseAlarms) {
  const PreparedScenario s = simulate("putty_reverse_https_online", 4000);
  Detector detector = fit(s);

  for (const double target : {0.0, 0.02, 0.10}) {
    const double achieved = detector.calibrate(s.benign, target);
    EXPECT_LE(achieved, target + 1e-12) << "target " << target;
    // The calibration set itself must honor the bound exactly.
    const auto scan = detector.scan(s.benign);
    EXPECT_LE(scan.malicious_fraction(), target + 1e-12);
  }
  // Tighter targets move the threshold down (more permissive to benign).
  detector.calibrate(s.benign, 0.10);
  const double loose = detector.decision_threshold();
  detector.calibrate(s.benign, 0.0);
  EXPECT_LT(detector.decision_threshold(), loose);
  // The malicious log must still be substantially flagged at 2%.
  detector.calibrate(s.benign, 0.02);
  EXPECT_GT(detector.scan(s.malicious).malicious_fraction(), 0.5);
  EXPECT_THROW(detector.calibrate(s.benign, 1.5), std::logic_error);
}

// The one step-by-step copy of the fitting recipe, kept as the reference
// fit_detector must reproduce byte for byte.
TEST(FitDetector, MatchesTheExplicitRecipe) {
  const PreparedScenario s = prepare("vim_reverse_tcp_online", 1200);
  ml::CrossValidationOptions grid;
  grid.folds = 3;
  grid.lambdas = {1.0, 10.0};
  grid.sigma2s = {2.0, 8.0};
  for (const bool weighted : {true, false}) {
    for (const bool tuned : {false, true}) {
      SCOPED_TRACE(std::string(weighted ? "weighted" : "plain") +
                   (tuned ? ", tuned" : ", fixed"));
      FitOptions options;
      options.weighted = weighted;
      options.svm.kernel.sigma2 = 8.0;
      if (tuned) options.tune = grid;

      ml::Dataset train = s.td.benign;
      train.append(s.td.mixed);
      if (!weighted) {
        std::fill(train.weight.begin(), train.weight.end(), 1.0);
      }
      ml::MinMaxScaler scaler;
      scaler.fit(train.X);
      scaler.transform_in_place(train);
      ml::SvmParams params = options.svm;
      if (tuned) {
        ml::CrossValidationOptions cv = grid;
        cv.weighted_validation = weighted;
        util::Rng rng(7);
        params = ml::tune_svm(train, options.svm, cv, rng).best;
      }
      ml::TrainStats stats;
      const ml::SvmModel model = ml::SvmTrainer(params).train(train, &stats);
      Detector reference(s.td.preprocessor, scaler, model);
      reference.set_continual(
          {s.td.benign_cfg.graph, train, stats.alpha, params.lambda});

      const FitResult fitted = fit_detector(s.benign, s.mixed, options);
      EXPECT_EQ(fitted.grid.has_value(), tuned);
      std::stringstream want;
      std::stringstream got;
      save_detector(reference, want);
      save_detector(fitted.detector, got);
      EXPECT_EQ(got.str(), want.str());
    }
  }
}

TEST(Detector, RequiresFittedComponents) {
  EXPECT_THROW(Detector(Preprocessor(), ml::MinMaxScaler(), ml::SvmModel()),
               std::logic_error);
}

TEST(Pipeline, DefaultBenignityAppliesToUnmappedEvents) {
  PipelineOptions opt;
  opt.default_benignity = 0.0;  // treat unmapped as malicious
  trace::PartitionedLog empty_benign;
  trace::PartitionedLog mixed;
  // Events with empty app stacks: no paths map to them.
  for (std::uint64_t i = 0; i < 10; ++i) {
    trace::PartitionedEvent e;
    e.seq = i;
    e.type = trace::EventType::kFileRead;
    trace::StackFrame f;
    f.address = 0x1000 + i;
    f.module = "x.dll";
    f.function = "f";
    e.system_stack.push_back(f);
    mixed.events.push_back(e);
    empty_benign.events.push_back(e);
  }
  const TrainingData td = LeapsPipeline(opt).prepare(empty_benign, mixed);
  ASSERT_EQ(td.mixed.size(), 1u);  // one 10-event window
  EXPECT_DOUBLE_EQ(td.mixed.weight[0], 1.0);  // 1 - benignity(0) = 1
}

}  // namespace
}  // namespace leaps::core
