// Tests for decision-value drift detection (src/online/drift.h): the
// two-sample KS primitives, the reference/live window state machine, the
// trigger/cooldown cycle, serialization round trips, and — the property
// the durability drill rests on — that the monitor's state is a pure
// function of its observation sequence, independent of server worker
// count when fed through a single session.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "detector_fixture.h"
#include "obs/registry.h"
#include "online/drift.h"
#include "online/manager.h"
#include "serve/server.h"

namespace leaps::online {
namespace {

using testing::TrainedDetector;
using testing::train_small_detector;

const TrainedDetector& fixture() {
  static const TrainedDetector f = train_small_detector(
      "vim_reverse_tcp_online", 1200, 7);
  return f;
}

// --- KS primitives --------------------------------------------------------

TEST(KsTest, IdenticalSamplesHaveZeroStatistic) {
  const std::vector<double> a = {0.1, 0.5, 0.9, 1.3, 2.0};
  EXPECT_DOUBLE_EQ(DriftMonitor::ks_statistic(a, a), 0.0);
  EXPECT_NEAR(DriftMonitor::ks_p_value(0.0, a.size(), a.size()), 1.0, 1e-9);
}

TEST(KsTest, DisjointSamplesHaveStatisticOne) {
  std::vector<double> low, high;
  for (int i = 0; i < 64; ++i) {
    low.push_back(static_cast<double>(i) * 0.01);
    high.push_back(10.0 + static_cast<double>(i) * 0.01);
  }
  EXPECT_DOUBLE_EQ(DriftMonitor::ks_statistic(low, high), 1.0);
  EXPECT_LT(DriftMonitor::ks_p_value(1.0, low.size(), high.size()), 1e-12);
}

TEST(KsTest, StatisticIsOrderInvariantAndSymmetric) {
  const std::vector<double> a = {3.0, 1.0, 2.0, 0.5};
  const std::vector<double> b = {2.5, 0.75, 1.5};
  std::vector<double> a_sorted = a, b_sorted = b;
  std::sort(a_sorted.begin(), a_sorted.end());
  std::sort(b_sorted.begin(), b_sorted.end());
  const double d = DriftMonitor::ks_statistic(a, b);
  EXPECT_DOUBLE_EQ(d, DriftMonitor::ks_statistic(a_sorted, b_sorted));
  EXPECT_DOUBLE_EQ(d, DriftMonitor::ks_statistic(b, a));
}

TEST(KsTest, EmptySampleYieldsZero) {
  EXPECT_DOUBLE_EQ(DriftMonitor::ks_statistic({}, {1.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(DriftMonitor::ks_statistic({1.0}, {}), 0.0);
}

TEST(KsTest, PValueIsClampedAndMonotonicInD) {
  double prev = 1.0;
  for (double d = 0.0; d <= 1.0; d += 0.1) {
    const double p = DriftMonitor::ks_p_value(d, 100, 100);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_LE(p, prev + 1e-12) << "p must not grow with D";
    prev = p;
  }
}

// --- monitor state machine ------------------------------------------------

DriftOptions small_options() {
  DriftOptions options;
  options.enabled = true;
  options.reference_target = 16;
  options.live_window = 8;
  options.min_live = 4;
  options.p_threshold = 0.01;
  return options;
}

/// Reference values 0..15, then shifted live values — guaranteed drift.
void fill_reference(DriftMonitor& monitor) {
  for (int i = 0; i < 16; ++i) {
    monitor.observe(static_cast<double>(i) * 0.1, 1);
  }
}

TEST(DriftMonitorTest, ReferenceFreezesAtTarget) {
  DriftMonitor monitor(small_options());
  for (int i = 0; i < 15; ++i) monitor.observe(0.1 * i, 1);
  EXPECT_FALSE(monitor.status().reference_frozen);
  monitor.observe(1.5, 1);
  const DriftStatus frozen = monitor.status();
  EXPECT_TRUE(frozen.reference_frozen);
  EXPECT_EQ(frozen.reference_size, 16u);
  EXPECT_EQ(frozen.live_size, 0u);
  monitor.observe(2.0, 1);
  EXPECT_EQ(monitor.status().live_size, 1u);
}

TEST(DriftMonitorTest, NoEvaluationBeforeMinLive) {
  DriftMonitor monitor(small_options());
  fill_reference(monitor);
  for (int i = 0; i < 3; ++i) monitor.observe(100.0, -1);
  EXPECT_FALSE(monitor.evaluate());
  EXPECT_EQ(monitor.status().evaluations, 0u);
}

TEST(DriftMonitorTest, ShiftedDistributionFiresAndCoolsDown) {
  DriftMonitor monitor(small_options());
  fill_reference(monitor);
  for (int i = 0; i < 8; ++i) monitor.observe(100.0 + i, -1);
  EXPECT_TRUE(monitor.evaluate());
  const DriftStatus fired = monitor.status();
  EXPECT_TRUE(fired.trigger_pending);
  EXPECT_EQ(fired.triggers, 1u);
  EXPECT_DOUBLE_EQ(fired.ks_statistic, 1.0);
  EXPECT_LT(fired.p_value, 0.01);

  // Consuming the trigger clears the live window: the natural cooldown.
  EXPECT_TRUE(monitor.consume_trigger());
  EXPECT_FALSE(monitor.trigger_pending());
  EXPECT_EQ(monitor.status().live_size, 0u);
  EXPECT_FALSE(monitor.evaluate()) << "no re-fire until live refills";
  EXPECT_FALSE(monitor.consume_trigger());

  // A refilled live window at the same shift fires again.
  for (int i = 0; i < 8; ++i) monitor.observe(100.0 + i, -1);
  EXPECT_TRUE(monitor.evaluate());
  EXPECT_EQ(monitor.status().triggers, 2u);
}

TEST(DriftMonitorTest, MatchingDistributionStaysQuiet) {
  DriftMonitor monitor(small_options());
  fill_reference(monitor);
  // Live drawn from the same ramp: KS must not clear the 1% bar.
  for (int i = 0; i < 8; ++i) {
    monitor.observe(static_cast<double>(i * 2) * 0.1, 1);
  }
  EXPECT_FALSE(monitor.evaluate());
  EXPECT_EQ(monitor.status().triggers, 0u);
  EXPECT_GE(monitor.status().p_value, 0.01);
}

TEST(DriftMonitorTest, AdvanceGenerationResetsWindowsKeepsHistory) {
  DriftMonitor monitor(small_options());
  fill_reference(monitor);
  for (int i = 0; i < 8; ++i) monitor.observe(100.0, -1);
  monitor.advance_generation();
  const DriftStatus s = monitor.status();
  EXPECT_EQ(s.generation, 1u);
  EXPECT_EQ(s.observed, 0u);
  EXPECT_FALSE(s.reference_frozen);
  EXPECT_EQ(s.reference_size, 0u);
  EXPECT_EQ(s.live_size, 0u);
  EXPECT_EQ(s.sketch.count, 0u);
  ASSERT_EQ(s.generations.size(), 2u);
  EXPECT_EQ(s.generations[0].benign, 16u);
  EXPECT_EQ(s.generations[0].malicious, 8u);
}

TEST(DriftMonitorTest, RestoreTriggerRelatchesWithoutCounting) {
  DriftMonitor monitor(small_options());
  fill_reference(monitor);
  for (int i = 0; i < 8; ++i) monitor.observe(100.0, -1);
  EXPECT_TRUE(monitor.evaluate());
  const std::uint64_t triggers = monitor.status().triggers;
  EXPECT_TRUE(monitor.consume_trigger());
  monitor.restore_trigger();  // what journal replay does for kTrigger
  EXPECT_TRUE(monitor.trigger_pending());
  EXPECT_EQ(monitor.status().triggers, triggers)
      << "restoring a journaled trigger must not double-count";
}

TEST(DriftMonitorTest, SerializeRoundTripIsExact) {
  DriftMonitor monitor(small_options());
  fill_reference(monitor);
  for (int i = 0; i < 6; ++i) monitor.observe(50.0 + 0.25 * i, -1);
  monitor.evaluate();
  monitor.advance_generation();
  for (int i = 0; i < 5; ++i) monitor.observe(0.33 * i, 1);

  DriftMonitor copy(small_options());
  ASSERT_TRUE(copy.deserialize(monitor.serialize()).ok());
  EXPECT_TRUE(copy == monitor);
  EXPECT_EQ(copy.serialize(), monitor.serialize());
}

TEST(DriftMonitorTest, DeserializeRejectsGarbage) {
  DriftMonitor monitor(small_options());
  EXPECT_FALSE(monitor.deserialize("not a drift blob").ok());
  EXPECT_FALSE(monitor.deserialize("").ok());
  const std::string good = monitor.serialize();
  EXPECT_FALSE(
      monitor.deserialize(std::string_view(good).substr(0, good.size() / 2))
          .ok());
}

TEST(DriftMonitorTest, ConstructorRejectsWindowsACheckpointCannotRestore) {
  // deserialize() caps both windows at kMaxWindow, so a larger monitor
  // would write a checkpoint no restore could load.
  DriftOptions options = small_options();
  options.reference_target = DriftOptions::kMaxWindow + 1;
  EXPECT_THROW(DriftMonitor{options}, std::invalid_argument);
  options = small_options();
  options.live_window = DriftOptions::kMaxWindow + 1;
  EXPECT_THROW(DriftMonitor{options}, std::invalid_argument);
  // A disabled monitor is held to the same bound.
  options.enabled = false;
  EXPECT_THROW(DriftMonitor{options}, std::invalid_argument);
  EXPECT_NO_THROW(DriftMonitor{small_options()});
}

TEST(DriftMonitorTest, StateIsAPureFunctionOfTheSequence) {
  // Same observation sequence, interleaved with different evaluate() call
  // patterns — the serialized state must be identical (evaluations that
  // cannot run are free, ones that run latch the same KS result).
  DriftMonitor a(small_options());
  DriftMonitor b(small_options());
  for (int i = 0; i < 16; ++i) {
    a.observe(0.1 * i, 1);
    b.observe(0.1 * i, 1);
    b.evaluate();  // no-op: reference not frozen / live empty
  }
  for (int i = 0; i < 8; ++i) {
    a.observe(100.0 + i, -1);
    b.observe(100.0 + i, -1);
  }
  EXPECT_TRUE(a.evaluate());
  EXPECT_TRUE(b.evaluate());
  EXPECT_EQ(a.serialize(), b.serialize());
}

// --- worker-count determinism through the serving stack -------------------

/// Drives one server at the given worker count: a single session replays
/// benign then malicious traffic with drift enabled, and the resulting
/// monitor state is returned serialized. Per-session windows are scored
/// in submission order regardless of worker count, so the bytes must be
/// identical at 1 and 8 workers.
std::string drive_drift(std::size_t workers) {
  const TrainedDetector& f = fixture();
  serve::ServerOptions server_options;
  server_options.workers = workers;
  serve::DetectionServer server(server_options);
  server.registry().add("default", f.detector);

  OnlineOptions options;
  options.retrain.min_new_events = 1u << 30;  // drift is the only trigger
  options.drift.enabled = true;
  // Reference = exactly one benign replay, live = one malicious replay —
  // no benign stragglers ever reach the live window.
  options.drift.reference_target =
      f.detector->scan(f.benign).window_labels.size();
  options.drift.live_window =
      f.detector->scan(f.malicious).window_labels.size();
  options.drift.min_live =
      std::min<std::size_t>(options.drift.live_window, 6);
  options.drift.p_threshold = 0.05;
  OnlineManager manager(&server, options);
  manager.install();
  server.start();
  auto session = server.open_session({"host", 1}, "default");
  EXPECT_NE(session, nullptr);
  if (session == nullptr) return "";

  for (const trace::PartitionedEvent& e : f.benign.events) {
    server.submit(session, e);
  }
  server.drain();
  for (const trace::PartitionedEvent& e : f.malicious.events) {
    server.submit(session, e);
  }
  server.drain();
  manager.poll_once();

  // Extract the monitor state through its public face: a fresh monitor
  // fed the same status — serialize via the report's full state instead.
  const DriftStatus s = manager.report().drift;
  std::string fingerprint;
  fingerprint += std::to_string(s.generation) + "|";
  fingerprint += std::to_string(s.observed) + "|";
  fingerprint += std::to_string(s.reference_size) + "|";
  fingerprint += std::to_string(s.reference_frozen) + "|";
  fingerprint += std::to_string(s.live_size) + "|";
  char buf[256];  // the sketch line needs up to 171 bytes
  std::snprintf(buf, sizeof buf, "%.17g|%.17g|", s.ks_statistic, s.p_value);
  fingerprint += buf;
  fingerprint += std::to_string(s.evaluations) + "|";
  fingerprint += std::to_string(s.triggers) + "|";
  std::snprintf(buf, sizeof buf, "%llu|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g",
                static_cast<unsigned long long>(s.sketch.count), s.sketch.sum,
                s.sketch.min, s.sketch.max, s.sketch.q50, s.sketch.q90,
                s.sketch.q99);
  fingerprint += buf;
  for (const GenerationMix& g : s.generations) {
    fingerprint += '|';
    fingerprint += std::to_string(g.benign);
    fingerprint += '/';
    fingerprint += std::to_string(g.malicious);
  }
  server.stop();
  manager.stop();
  return fingerprint;
}

TEST(DriftDeterminism, OneVersusEightWorkersByteIdentical) {
  const std::string one = drive_drift(1);
  const std::string eight = drive_drift(8);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight)
      << "single-session drift state must not depend on worker count";
}

// --- drift-triggered retrain through the manager --------------------------

TEST(DriftRetrain, TriggerSchedulesARetrainAlongsideTheVolumePath) {
  const TrainedDetector& f = fixture();
  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::DetectionServer server(server_options);
  server.registry().add("default", f.detector);

  OnlineOptions options;
  options.accumulator.admit_floor = 0.0;
  options.retrain.min_new_events = 1u << 30;  // volume trigger parked
  options.retrain.max_new_samples = 32;
  options.gates = {.max_disagreement = 1.0,
                   .max_latency_ratio = 1e9,
                   .min_windows = 2};
  options.drift.enabled = true;
  options.drift.reference_target =
      f.detector->scan(f.benign).window_labels.size();
  options.drift.live_window =
      f.detector->scan(f.malicious).window_labels.size();
  options.drift.min_live =
      std::min<std::size_t>(options.drift.live_window, 6);
  options.drift.p_threshold = 0.05;
  OnlineManager manager(&server, options);
  obs::MetricRegistry registry;
  const obs::MetricRegistry::Registration registration =
      manager.register_with(registry);
  manager.install();
  server.start();
  auto session = server.open_session({"host", 1}, "default");
  ASSERT_NE(session, nullptr);

  for (const trace::PartitionedEvent& e : f.benign.events) {
    ASSERT_TRUE(server.submit(session, e));
  }
  server.drain();
  manager.poll_once();
  EXPECT_EQ(manager.report().retrain_cycles, 0u)
      << "volume trigger must stay parked";

  for (const trace::PartitionedEvent& e : f.malicious.events) {
    ASSERT_TRUE(server.submit(session, e));
  }
  server.drain();
  manager.poll_once();  // drift fires -> retrain consumes the trigger

  const OnlineReport report = manager.report();
  EXPECT_GE(report.drift.triggers, 1u);
  EXPECT_FALSE(report.drift.trigger_pending) << "retrain must consume it";
  EXPECT_EQ(report.drift_retrains, 1u);
  EXPECT_EQ(report.retrain_cycles, 1u);
  // The drift samples read the same report.
  std::map<std::string, std::int64_t> samples;
  for (const obs::MetricSample& s : registry.collect()) {
    samples[s.name] = s.type == obs::MetricType::kCounter
                          ? static_cast<std::int64_t>(s.counter_value)
                          : s.gauge_value;
  }
  EXPECT_EQ(samples.at("leaps_online_drift_triggers_total"),
            static_cast<std::int64_t>(report.drift.triggers));
  EXPECT_EQ(samples.at("leaps_online_drift_retrains_total"), 1);
  EXPECT_EQ(samples.at("leaps_online_drift_generation"),
            report.drift.generation);
  EXPECT_EQ(samples.at("leaps_online_drift_p_value_ppm"),
            static_cast<std::int64_t>(report.drift.p_value * 1e6));
  server.stop();
  manager.stop();
}

}  // namespace
}  // namespace leaps::online
