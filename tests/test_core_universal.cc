// Integration tests for the universal (cross-application) classifier.
#include <gtest/gtest.h>

#include "core/universal.h"
#include "sim/scenario.h"
#include "trace/partition.h"

namespace leaps::core {
namespace {

std::vector<AppLogs> make_apps(std::size_t events = 3000) {
  sim::SimConfig cfg;
  cfg.benign_events = events;
  cfg.mixed_events = events * 3 / 4;
  cfg.malicious_events = events / 2;
  std::vector<AppLogs> apps;
  for (const char* name : {"vim_reverse_tcp", "putty_reverse_https_online"}) {
    const sim::ScenarioLogs logs =
        sim::generate_scenario(sim::find_scenario(name), cfg);
    apps.push_back({name, trace::partition_raw(logs.benign),
                    trace::partition_raw(logs.mixed),
                    trace::partition_raw(logs.malicious)});
  }
  return apps;
}

TEST(Universal, OneDetectorCoversMultipleApplications) {
  const std::vector<AppLogs> apps = make_apps();
  UniversalOptions opt;
  opt.svm.kernel.sigma2 = 8.0;
  const UniversalEvaluation u = train_universal(apps, opt);

  ASSERT_EQ(u.per_app.size(), 2u);
  for (const auto& [name, m] : u.per_app) {
    EXPECT_GT(m.acc, 0.7) << name;
    EXPECT_GE(m.tpr, 0.0);
    EXPECT_LE(m.tnr, 1.0);
  }
  EXPECT_GT(u.pooled.acc, 0.7);
  // The detector works as a regular detector on any app's slice.
  const auto scan = u.detector.scan(apps[0].malicious);
  EXPECT_GT(scan.malicious_fraction(), 0.5);
}

TEST(Universal, PooledIsWithinPerAppEnvelope) {
  const std::vector<AppLogs> apps = make_apps();
  UniversalOptions opt;
  opt.svm.kernel.sigma2 = 8.0;
  const UniversalEvaluation u = train_universal(apps, opt);
  double lo = 1.0;
  double hi = 0.0;
  for (const auto& [name, m] : u.per_app) {
    lo = std::min(lo, m.acc);
    hi = std::max(hi, m.acc);
  }
  EXPECT_GE(u.pooled.acc, lo - 1e-9);
  EXPECT_LE(u.pooled.acc, hi + 1e-9);
}

TEST(Universal, DeterministicForFixedSeed) {
  const std::vector<AppLogs> apps = make_apps(2000);
  UniversalOptions opt;
  const UniversalEvaluation a = train_universal(apps, opt);
  const UniversalEvaluation b = train_universal(apps, opt);
  EXPECT_EQ(a.pooled.acc, b.pooled.acc);
  EXPECT_EQ(a.per_app.begin()->second.tpr, b.per_app.begin()->second.tpr);
}

// The universal classifier weighs each application with the same rule as
// prepare(), so PipelineOptions::align_cfgs reaches its weights: on a
// source-level trojan, alignment moves the weights and so the model.
TEST(Universal, HonoursCfgAlignment) {
  sim::SimConfig cfg;
  cfg.benign_events = 3000;
  cfg.mixed_events = 2250;
  cfg.malicious_events = 1000;
  const sim::ScenarioLogs logs =
      sim::generate_source_trojan_scenario("winscp", "reverse_tcp", cfg);
  const std::vector<AppLogs> apps = {
      {"winscp", trace::partition_raw(logs.benign),
       trace::partition_raw(logs.mixed), trace::partition_raw(logs.malicious)}};

  const auto decision_values = [&](bool align) {
    UniversalOptions opt;
    opt.pipeline.align_cfgs = align;
    opt.svm.kernel.sigma2 = 8.0;
    const Detector detector = train_universal(apps, opt).detector;
    std::vector<double> values;
    for (const ml::FeatureVector& x :
         detector.preprocessor().make_windows(apps[0].malicious).X) {
      values.push_back(detector.decision_value(x));
    }
    return values;
  };
  const std::vector<double> aligned = decision_values(true);
  const std::vector<double> unaligned = decision_values(false);
  ASSERT_FALSE(aligned.empty());
  ASSERT_EQ(aligned.size(), unaligned.size());
  EXPECT_NE(aligned, unaligned);
}

TEST(Universal, RejectsEmptyInput) {
  EXPECT_THROW(train_universal({}, {}), std::logic_error);
}

}  // namespace
}  // namespace leaps::core
