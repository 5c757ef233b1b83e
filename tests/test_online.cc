// Tests for the online-learning subsystem (src/online/): verdict diffing,
// the CFG accumulator's fold/admit/evict behavior, warm-started SMO
// retraining, registry shadow staging (RCU promote / rollback), the
// server-level shadow streams, and the OnlineManager control loop driven
// deterministically via poll_once(). Runs under -DLEAPS_SANITIZE=thread
// in CI (ctest -L online / -L concurrency).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "detector_fixture.h"
#include "durable/store.h"
#include "obs/registry.h"
#include "online/accumulator.h"
#include "online/manager.h"
#include "online/retrain.h"
#include "online/shadow.h"
#include "online/verdict_diff.h"
#include "serve/server.h"

namespace leaps::online {
namespace {

using leaps::testing::TrainedDetector;
using leaps::testing::train_small_detector;

/// Fixture detector carrying ContinualState (the online path needs it).
const TrainedDetector& fixture() {
  static const TrainedDetector* f = new TrainedDetector(
      train_small_detector("vim_reverse_tcp_online", 1500, 7));
  return *f;
}

/// Slices a log into whole windows of the detector's window size.
std::vector<std::vector<trace::PartitionedEvent>> windows_of(
    const trace::PartitionedLog& log, std::size_t window) {
  std::vector<std::vector<trace::PartitionedEvent>> out;
  for (std::size_t i = 0; i + window <= log.events.size(); i += window) {
    out.emplace_back(log.events.begin() + i, log.events.begin() + i + window);
  }
  return out;
}

// --- diff_sequences / VerdictDiff ----------------------------------------

TEST(DiffSequences, CountsDisagreementsAndLengthDelta) {
  const SequenceDiff same = diff_sequences({1, -1, 1}, {1, -1, 1});
  EXPECT_TRUE(same.identical());
  EXPECT_EQ(same.compared, 3u);
  EXPECT_EQ(same.disagreements, 0u);

  const SequenceDiff diff = diff_sequences({1, 1, 1, 1}, {1, -1, 1});
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.compared, 3u);
  EXPECT_EQ(diff.disagreements, 1u);
  EXPECT_EQ(diff.length_delta, 1u);
  ASSERT_EQ(diff.mismatch_indices.size(), 1u);
  EXPECT_EQ(diff.mismatch_indices[0], 1u);
  EXPECT_DOUBLE_EQ(diff.disagreement_rate(), 1.0 / 3.0);
}

TEST(VerdictDiffTest, ConcurrentRecordsAllLand) {
  VerdictDiff diff;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&diff] {
      for (int i = 0; i < kPerThread; ++i) {
        diff.record(1, i % 10 == 0 ? -1 : 1, 100, 200);
      }
    });
  }
  for (auto& t : threads) t.join();
  const DiffStats s = diff.stats();
  EXPECT_EQ(s.compared, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.disagreements,
            static_cast<std::uint64_t>(kThreads * kPerThread / 10));
  EXPECT_DOUBLE_EQ(s.latency_ratio(), 2.0);
  diff.reset();
  EXPECT_EQ(diff.stats().compared, 0u);
}

// --- ShadowEvaluator gates ------------------------------------------------

TEST(ShadowEvaluatorTest, UndecidedUntilMinWindows) {
  ShadowEvaluator eval({.max_disagreement = 0.5,
                        .max_latency_ratio = 10.0,
                        .min_windows = 4});
  const serve::SessionKey key{"s", 1};
  for (int i = 0; i < 3; ++i) eval.record(key, 1, 1, 10, 10);
  EXPECT_EQ(eval.decision(), RolloverDecision::kUndecided);
  eval.record(key, 1, 1, 10, 10);
  EXPECT_EQ(eval.decision(), RolloverDecision::kPromote);
}

TEST(ShadowEvaluatorTest, DisagreementGateRollsBack) {
  ShadowEvaluator eval({.max_disagreement = 0.25,
                        .max_latency_ratio = 100.0,
                        .min_windows = 4});
  const serve::SessionKey key{"s", 1};
  // 2 of 4 disagree: rate 0.5 > 0.25.
  eval.record(key, 1, 1, 10, 10);
  eval.record(key, 1, -1, 10, 10);
  eval.record(key, 1, 1, 10, 10);
  eval.record(key, -1, 1, 10, 10);
  EXPECT_EQ(eval.decision(), RolloverDecision::kRollback);
}

TEST(ShadowEvaluatorTest, LatencyGateRollsBackDespiteAgreement) {
  ShadowEvaluator eval({.max_disagreement = 1.0,
                        .max_latency_ratio = 2.0,
                        .min_windows = 2});
  const serve::SessionKey key{"s", 1};
  eval.record(key, 1, 1, 10, 100);  // shadow 10x slower
  eval.record(key, 1, 1, 10, 100);
  EXPECT_EQ(eval.decision(), RolloverDecision::kRollback);
}

// --- Warm-started SMO -----------------------------------------------------

TEST(WarmStart, SeededSolveConvergesFasterOnSameData) {
  const TrainedDetector& f = fixture();
  const core::ContinualState* state = f.detector->continual();
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->alpha.size(), state->train.size());

  ml::SvmParams params;
  params.kernel = f.detector->model().kernel();
  ml::TrainStats cold, warm;
  ml::SvmTrainer(params).train(state->train, &cold);
  ml::SvmTrainer(params).train(state->train, &warm, &state->alpha);
  EXPECT_GT(warm.warm_nonzero, 0u);
  EXPECT_LT(warm.iterations, cold.iterations)
      << "re-solving from the previous optimum should take fewer SMO "
         "iterations than a cold start";
}

TEST(WarmStart, GarbageSeedIsRepairedNotTrusted) {
  const TrainedDetector& f = fixture();
  const core::ContinualState* state = f.detector->continual();
  ASSERT_NE(state, nullptr);

  ml::SvmParams params;
  params.kernel = f.detector->model().kernel();
  // Wildly infeasible seed: all entries far above the box, wrong balance.
  const std::vector<double> garbage(state->train.size(), 1e9);
  ml::TrainStats stats;
  const ml::SvmModel seeded =
      ml::SvmTrainer(params).train(state->train, &stats, &garbage);
  const ml::SvmModel cold = ml::SvmTrainer(params).train(state->train);
  // The repaired seed must not change the optimum: identical verdicts on
  // every training row.
  for (const ml::FeatureVector& x : state->train.X) {
    EXPECT_EQ(seeded.predict(x), cold.predict(x));
  }
}

TEST(WarmStart, ShortSeedPadsGrownRowsWithZero) {
  const TrainedDetector& f = fixture();
  const core::ContinualState* state = f.detector->continual();
  ASSERT_NE(state, nullptr);
  // Simulate a grown dataset: duplicate the first benign row; the seed is
  // one entry short and the trainer must pad, not throw.
  ml::Dataset grown = state->train;
  grown.add(grown.X.front(), grown.y.front(), grown.weight.front());
  ml::SvmParams params;
  params.kernel = f.detector->model().kernel();
  ml::TrainStats stats;
  EXPECT_NO_THROW(
      ml::SvmTrainer(params).train(grown, &stats, &state->alpha));
  EXPECT_GT(stats.warm_nonzero, 0u);
}

// --- OnlineCfgAccumulator -------------------------------------------------

TEST(Accumulator, FoldsGrowTheGraphAndDrainResetsProgress) {
  const TrainedDetector& f = fixture();
  const std::size_t window = f.detector->preprocessor().window();
  AccumulatorOptions options;
  options.fold_batch_events = 64;
  options.admit_floor = 0.0;
  OnlineCfgAccumulator acc(cfg::AddressGraph{}, options);

  const auto wins = windows_of(f.benign, window);
  ASSERT_GT(wins.size(), 4u);
  for (const auto& w : wins) acc.observe_window(w.data(), w.size());
  EXPECT_FALSE(acc.graph_snapshot().empty());  // folds the last batch

  const AccumulatorStats stats = acc.stats();
  EXPECT_EQ(stats.windows_observed, wins.size());
  EXPECT_EQ(stats.windows_admitted, wins.size());
  EXPECT_EQ(stats.windows_rejected, 0u);
  EXPECT_GT(stats.edges_added, 0u);
  EXPECT_GT(stats.folds, 0u);
  EXPECT_EQ(acc.events_since_drain(), wins.size() * window);

  const std::vector<PendingWindow> drained = acc.drain_windows();
  EXPECT_EQ(drained.size(), wins.size());
  for (const PendingWindow& p : drained) {
    EXPECT_EQ(p.events.size(), window);
    EXPECT_GE(p.benignity, 0.0);
    EXPECT_LE(p.benignity, 1.0);
  }
  EXPECT_EQ(acc.events_since_drain(), 0u);
  EXPECT_TRUE(acc.drain_windows().empty());
}

TEST(Accumulator, AdmissionFloorRejectsEverythingAboveOne) {
  const TrainedDetector& f = fixture();
  const std::size_t window = f.detector->preprocessor().window();
  ASSERT_NE(f.detector->continual(), nullptr);
  AccumulatorOptions options;
  options.admit_floor = 1.01;  // benignity is capped at 1.0
  OnlineCfgAccumulator acc(f.detector->continual()->benign_cfg, options);

  const auto wins = windows_of(f.benign, window);
  for (const auto& w : wins) acc.observe_window(w.data(), w.size());
  (void)acc.graph_snapshot();  // folds the last batch

  const AccumulatorStats stats = acc.stats();
  EXPECT_EQ(stats.windows_observed, wins.size());
  EXPECT_EQ(stats.windows_admitted, 0u);
  EXPECT_EQ(stats.windows_rejected, wins.size());
  EXPECT_EQ(stats.edges_added, 0u);  // rejected windows teach nothing
  EXPECT_TRUE(acc.drain_windows().empty());
}

TEST(Accumulator, MaliciousWindowsScoreBelowBenignOnes) {
  // The poisoning guard's premise: against the benign CFG, windows from
  // the malicious log score lower than windows from the benign log.
  const TrainedDetector& f = fixture();
  const std::size_t window = f.detector->preprocessor().window();
  ASSERT_NE(f.detector->continual(), nullptr);
  const cfg::AddressGraph& benign_cfg = f.detector->continual()->benign_cfg;

  auto mean_benignity = [&](const trace::PartitionedLog& log) {
    AccumulatorOptions options;
    options.admit_floor = 0.0;
    OnlineCfgAccumulator acc(benign_cfg, options);
    for (const auto& w : windows_of(log, window)) {
      acc.observe_window(w.data(), w.size());
    }
    double sum = 0.0;
    const auto drained = acc.drain_windows();
    for (const PendingWindow& p : drained) sum += p.benignity;
    return drained.empty() ? 0.0 : sum / static_cast<double>(drained.size());
  };
  EXPECT_GT(mean_benignity(f.benign), mean_benignity(f.malicious));
}

TEST(Accumulator, RetentionBoundEvictsOldest) {
  const TrainedDetector& f = fixture();
  const std::size_t window = f.detector->preprocessor().window();
  AccumulatorOptions options;
  options.admit_floor = 0.0;
  options.max_pending_windows = 2;
  OnlineCfgAccumulator acc(cfg::AddressGraph{}, options);

  const auto wins = windows_of(f.benign, window);
  ASSERT_GT(wins.size(), 3u);
  for (const auto& w : wins) acc.observe_window(w.data(), w.size());
  const std::vector<PendingWindow> drained = acc.drain_windows();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(acc.stats().windows_evicted, wins.size() - 2);
}

// --- retrain ---------------------------------------------------------------

TEST(Retrain, PreV2DetectorCannotRetrainOnline) {
  // A detector without ContinualState (anything loaded from a v1 file).
  const core::Detector& trained = *fixture().detector;
  const core::Detector plain(trained.preprocessor(), trained.scaler(),
                             trained.model());
  OnlineCfgAccumulator acc(cfg::AddressGraph{}, {});
  const RetrainResult result = retrain(plain, acc.drain_windows(), acc, {});
  EXPECT_EQ(result.candidate, nullptr);
  EXPECT_NE(result.error.find("continual"), std::string::npos);
}

TEST(Retrain, WarmCycleGrowsDatasetAndSavesIterations) {
  const TrainedDetector& f = fixture();
  const core::ContinualState* state = f.detector->continual();
  ASSERT_NE(state, nullptr);
  const std::size_t window = f.detector->preprocessor().window();

  AccumulatorOptions acc_options;
  acc_options.admit_floor = 0.0;
  OnlineCfgAccumulator acc(state->benign_cfg, acc_options);
  RetrainConfig config;
  config.max_new_samples = 32;

  for (const auto& w : windows_of(f.benign, window)) {
    acc.observe_window(w.data(), w.size());
  }
  EXPECT_GT(acc.events_since_drain(), 0u);

  const RetrainResult result =
      retrain(*f.detector, acc.drain_windows(), acc, config);
  ASSERT_NE(result.candidate, nullptr) << result.error;
  EXPECT_GT(result.new_samples, 0u);
  EXPECT_LE(result.new_samples, config.max_new_samples);
  EXPECT_EQ(result.train_size, state->train.size() + result.new_samples);
  ASSERT_NE(result.candidate->continual(), nullptr);
  EXPECT_EQ(result.candidate->continual()->train.size(), result.train_size);
  EXPECT_EQ(result.candidate->continual()->alpha.size(), result.train_size);
  EXPECT_EQ(result.candidate->continual()->lambda, state->lambda);
  ASSERT_TRUE(result.measured_cold);
  EXPECT_LT(result.warm_iterations, result.cold_iterations)
      << "warm start must beat the cold baseline on the grown problem";
  EXPECT_EQ(result.iterations_saved,
            result.cold_iterations - result.warm_iterations);
  // The drain emptied the accumulator: a second cycle has nothing to fit.
  EXPECT_EQ(acc.events_since_drain(), 0u);
  const RetrainResult empty =
      retrain(*f.detector, acc.drain_windows(), acc, config);
  EXPECT_EQ(empty.candidate, nullptr);
}

TEST(Retrain, RefitSolvesAtTheIncumbentsLambda) {
  // A detector fit at λ = 100: its refit is exactly the warm-started SMO
  // solve of the grown problem in the incumbent's own box, and the
  // candidate's state records that λ for the cycle after it.
  const TrainedDetector& f = fixture();
  core::FitOptions options;
  options.svm.lambda = 100.0;
  const core::Detector incumbent =
      core::fit_detector(f.benign, f.mixed, options).detector;
  const core::ContinualState* state = incumbent.continual();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->lambda, 100.0);

  AccumulatorOptions acc_options;
  acc_options.admit_floor = 0.0;
  OnlineCfgAccumulator acc(state->benign_cfg, acc_options);
  for (const auto& w :
       windows_of(f.benign, incumbent.preprocessor().window())) {
    acc.observe_window(w.data(), w.size());
  }
  const std::vector<PendingWindow> windows = acc.drain_windows();
  ASSERT_FALSE(windows.empty());
  ml::Dataset grown = state->train;
  for (const PendingWindow& w : windows) {
    grown.add(incumbent.scaler().transform(
                  incumbent.preprocessor().window_features(w.events)),
              +1, std::clamp(w.benignity, 0.0, 1.0));
  }
  const auto warm_fit = [&](double lambda) {
    return ml::SvmTrainer({.kernel = incumbent.model().kernel(),
                           .lambda = lambda})
        .train(grown, nullptr, &state->alpha);
  };
  const ml::SvmModel want = warm_fit(100.0);

  RetrainConfig config;
  config.measure_cold_baseline = false;
  const RetrainResult result = retrain(incumbent, windows, acc, config);
  ASSERT_NE(result.candidate, nullptr) << result.error;
  const ml::SvmModel& got = result.candidate->model();
  EXPECT_EQ(got.bias(), want.bias());
  EXPECT_EQ(got.coefficients(), want.coefficients());
  EXPECT_EQ(got.support_vectors(), want.support_vectors());
  ASSERT_NE(result.candidate->continual(), nullptr);
  EXPECT_EQ(result.candidate->continual()->lambda, 100.0);
  // The box matters here: a solve at the old fixed λ = 10 is another model.
  EXPECT_NE(warm_fit(10.0).coefficients(), want.coefficients());
}

// --- DetectorRegistry shadow staging --------------------------------------

TEST(RegistryShadow, StagePromoteAndQuarantine) {
  const TrainedDetector& f = fixture();
  serve::DetectorRegistry registry;
  auto candidate = std::make_shared<const core::Detector>(*f.detector);

  EXPECT_FALSE(registry.begin_shadow("missing", candidate));
  registry.add("app", f.detector);
  EXPECT_TRUE(registry.begin_shadow("app", candidate));
  EXPECT_FALSE(registry.begin_shadow("app", candidate))
      << "one shadow in flight per profile";
  EXPECT_EQ(registry.shadow_candidate("app"), candidate);
  EXPECT_EQ(registry.find("app"), f.detector) << "not promoted yet";

  EXPECT_TRUE(registry.promote_shadow("app"));
  EXPECT_EQ(registry.find("app"), candidate);
  EXPECT_EQ(registry.shadow_candidate("app"), nullptr);
  EXPECT_FALSE(registry.promote_shadow("app")) << "nothing staged";

  auto bad = std::make_shared<const core::Detector>(*f.detector);
  const std::weak_ptr<const core::Detector> bad_ref = bad;
  EXPECT_TRUE(registry.begin_shadow("app", bad));
  bad.reset();
  EXPECT_TRUE(registry.rollback_shadow("app"));
  EXPECT_EQ(registry.find("app"), candidate) << "rollback keeps incumbent";
  EXPECT_EQ(registry.shadow_candidate("app"), nullptr);
  EXPECT_TRUE(bad_ref.expired()) << "the registry keeps no rejected model";
  EXPECT_FALSE(registry.rollback_shadow("app")) << "nothing staged";
  EXPECT_TRUE(registry.begin_shadow("app", candidate)) << "the slot is free";
}

// --- Server-level shadow streams ------------------------------------------

TEST(ServerShadow, IdenticalCandidateNeverDisagrees) {
  const TrainedDetector& f = fixture();
  serve::ServerOptions options;
  options.workers = 2;
  serve::DetectionServer server(options);
  server.registry().add("app", f.detector);
  server.start();

  auto session = server.open_session({"host", 1}, "app");
  ASSERT_NE(session, nullptr);

  auto evaluator = std::make_shared<ShadowEvaluator>(
      RolloverGates{.max_disagreement = 0.0,
                    .max_latency_ratio = 1e9,
                    .min_windows = 1});
  auto candidate = std::make_shared<const core::Detector>(*f.detector);
  ASSERT_TRUE(server.begin_shadow(
      "app", candidate,
      [evaluator](const serve::SessionKey& key, int active, int shadow,
                  std::uint64_t active_ns, std::uint64_t shadow_ns) {
        evaluator->record(key, active, shadow, active_ns, shadow_ns);
      }));
  EXPECT_TRUE(server.shadowing("app"));
  EXPECT_FALSE(server.begin_shadow("app", candidate, [](auto&&...) {}))
      << "second shadow refused while one is in flight";

  // Sessions opened mid-shadow auto-attach too.
  auto late = server.open_session({"host", 2}, "app");
  ASSERT_NE(late, nullptr);

  for (const trace::PartitionedEvent& e : f.benign.events) {
    ASSERT_TRUE(server.submit(session, e));
    ASSERT_TRUE(server.submit(late, e));
  }
  server.drain();

  const DiffStats stats = evaluator->stats();
  EXPECT_GT(stats.compared, 0u);
  EXPECT_EQ(stats.disagreements, 0u)
      << "an identical candidate must agree window-for-window";
  EXPECT_EQ(evaluator->decision(), RolloverDecision::kPromote);

  ASSERT_TRUE(server.end_shadow("app", /*promote=*/true));
  EXPECT_EQ(server.registry().find("app"), candidate);
  EXPECT_FALSE(server.shadowing("app"));
  EXPECT_EQ(server.metrics().snapshot().events_dropped, 0u);
  server.stop();
}

TEST(ServerShadow, BrokenCandidateTripsTheGateAndQuarantines) {
  const TrainedDetector& f = fixture();
  serve::ServerOptions options;
  options.workers = 2;
  serve::DetectionServer server(options);
  server.registry().add("app", f.detector);
  server.start();
  auto session = server.open_session({"host", 1}, "app");
  ASSERT_NE(session, nullptr);

  // All-malicious candidate: maximum disagreement on benign traffic.
  auto broken = std::make_shared<core::Detector>(*f.detector);
  broken->set_decision_threshold(1e18);
  auto evaluator = std::make_shared<ShadowEvaluator>(
      RolloverGates{.max_disagreement = 0.02,
                    .max_latency_ratio = 1e9,
                    .min_windows = 2});
  ASSERT_TRUE(server.begin_shadow(
      "app", broken,
      [evaluator](const serve::SessionKey& key, int active, int shadow,
                  std::uint64_t active_ns, std::uint64_t shadow_ns) {
        evaluator->record(key, active, shadow, active_ns, shadow_ns);
      }));

  for (const trace::PartitionedEvent& e : f.benign.events) {
    ASSERT_TRUE(server.submit(session, e));
  }
  server.drain();

  EXPECT_GT(evaluator->stats().disagreements, 0u);
  EXPECT_EQ(evaluator->decision(), RolloverDecision::kRollback);
  ASSERT_TRUE(server.end_shadow("app", /*promote=*/false));
  EXPECT_EQ(server.registry().find("app"), f.detector);
  EXPECT_EQ(server.registry().shadow_candidate("app"), nullptr);
  EXPECT_FALSE(server.shadowing("app"));
  server.stop();
}

TEST(ServerShadow, WindowTapDeliversWholeWindowsWithLabels) {
  const TrainedDetector& f = fixture();
  const std::size_t window = f.detector->preprocessor().window();
  serve::ServerOptions options;
  options.workers = 2;
  serve::DetectionServer server(options);
  server.registry().add("app", f.detector);

  std::mutex mu;
  std::vector<std::pair<int, std::size_t>> taps;  // (label, event count)
  std::vector<int> order;  // which tap ran, in call order
  server.add_window_tap([&](const serve::SessionKey&, std::size_t,
                            int label, double,
                            const trace::PartitionedEvent* events,
                            std::size_t count) {
    ASSERT_NE(events, nullptr);
    const std::lock_guard<std::mutex> lock(mu);
    taps.emplace_back(label, count);
    order.push_back(1);
  });
  server.add_window_tap([&](const serve::SessionKey&, std::size_t, int,
                            double, const trace::PartitionedEvent*,
                            std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
  });
  server.start();

  auto session = server.open_session({"host", 1}, "app");
  ASSERT_NE(session, nullptr);
  for (const trace::PartitionedEvent& e : f.benign.events) {
    ASSERT_TRUE(server.submit(session, e));
  }
  server.drain();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_GT(taps.size(), 0u);
  for (const auto& [label, count] : taps) {
    EXPECT_EQ(count, window) << "tap must only see whole windows";
    EXPECT_TRUE(label == 1 || label == -1);
  }
  // One session, so one worker: every window runs both taps, in
  // registration order.
  ASSERT_EQ(order.size(), 2 * taps.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % 2 == 0 ? 1 : 2) << "call " << i;
  }
  server.stop();
}

// --- OnlineManager (deterministic drive via poll_once) --------------------

/// Every leaps_online_* sample in `registry` equals its report() member:
/// the metrics and the report are one set of books.
void expect_samples_match_report(const obs::MetricRegistry& registry,
                                 const OnlineManager& manager) {
  const OnlineReport r = manager.report();
  const auto ppm = [&r](double v) {
    return r.drift.enabled ? static_cast<std::int64_t>(v * 1e6) : 0;
  };
  const std::map<std::string, std::uint64_t> counters = {
      {"leaps_online_windows_observed_total", r.accumulator.windows_observed},
      {"leaps_online_windows_rejected_total", r.accumulator.windows_rejected},
      {"leaps_online_retrain_cycles_total", r.retrain_cycles},
      {"leaps_online_retrain_failures_total", r.retrain_failures},
      {"leaps_online_warm_iterations_saved_total", r.warm_iterations_saved},
      {"leaps_online_shadow_windows_total", r.shadow_windows},
      {"leaps_online_shadow_disagreements_total", r.shadow_disagreements},
      {"leaps_online_promotions_total", r.promotions},
      {"leaps_online_rollbacks_total", r.rollbacks},
      {"leaps_online_drift_triggers_total", r.drift.triggers},
      {"leaps_online_drift_retrains_total", r.drift_retrains}};
  const std::map<std::string, std::int64_t> gauges = {
      {"leaps_online_cfg_edges_added",
       static_cast<std::int64_t>(r.accumulator.edges_added)},
      {"leaps_online_drift_p_value_ppm", ppm(r.drift.p_value)},
      {"leaps_online_drift_ks_ppm", ppm(r.drift.ks_statistic)},
      {"leaps_online_drift_generation", r.drift.generation}};
  std::size_t seen = 0;
  for (const obs::MetricSample& s : registry.collect()) {
    if (s.name.rfind("leaps_online_", 0) != 0) continue;
    ++seen;
    if (counters.count(s.name) != 0) {
      EXPECT_EQ(s.type, obs::MetricType::kCounter) << s.name;
      EXPECT_EQ(s.counter_value, counters.at(s.name)) << s.name;
    } else if (gauges.count(s.name) != 0) {
      EXPECT_EQ(s.type, obs::MetricType::kGauge) << s.name;
      EXPECT_EQ(s.gauge_value, gauges.at(s.name)) << s.name;
    } else {
      ADD_FAILURE() << "unexpected sample " << s.name;
    }
  }
  EXPECT_EQ(seen, counters.size() + gauges.size());
}

/// Every leaps_online_drift_* sample in `registry` reads 0.
void expect_drift_samples_zero(const obs::MetricRegistry& registry) {
  std::size_t seen = 0;
  for (const obs::MetricSample& s : registry.collect()) {
    if (s.name.rfind("leaps_online_drift_", 0) != 0) continue;
    ++seen;
    EXPECT_EQ(s.counter_value, 0u) << s.name;
    EXPECT_EQ(s.gauge_value, 0) << s.name;
  }
  EXPECT_EQ(seen, 5u);
}

TEST(OnlineManagerTest, AccumulateRetrainShadowPromote) {
  const TrainedDetector& f = fixture();
  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::DetectionServer server(server_options);
  server.registry().add("default", f.detector);

  OnlineOptions options;
  options.accumulator.admit_floor = 0.0;
  options.retrain.min_new_events = 1;
  options.retrain.max_new_samples = 32;
  options.gates = {.max_disagreement = 1.0,
                   .max_latency_ratio = 1e9,
                   .min_windows = 2};
  OnlineManager manager(&server, options);
  obs::MetricRegistry registry;
  const obs::MetricRegistry::Registration registration =
      manager.register_with(registry);
  manager.install();
  server.start();

  auto session = server.open_session({"host", 1}, "default");
  ASSERT_NE(session, nullptr);
  auto replay = [&] {
    for (const trace::PartitionedEvent& e : f.benign.events) {
      ASSERT_TRUE(server.submit(session, e));
    }
    server.drain();
  };

  // Registered before any traffic: every sample is present, at zero.
  OnlineReport report = manager.report();
  EXPECT_EQ(report.phase, "accumulating");
  expect_samples_match_report(registry, manager);

  // Accumulate: the windows are counted before any poll exports them.
  replay();
  EXPECT_GT(manager.report().accumulator.windows_observed, 0u);
  expect_samples_match_report(registry, manager);

  // Round 1: the poll triggers a warm retrain over the accumulated benign
  // windows and stages the candidate as a shadow.
  manager.poll_once();
  report = manager.report();
  EXPECT_EQ(report.retrain_cycles, 1u) << report.last_error;
  EXPECT_EQ(report.phase, "shadowing");
  EXPECT_TRUE(manager.shadowing());
  EXPECT_GT(report.last_cold_iterations, report.last_warm_iterations);
  EXPECT_GT(report.warm_iterations_saved, 0u);
  expect_samples_match_report(registry, manager);

  // Round 2: live traffic flows through both streams. The shadow counts
  // are current before the poll that decides.
  replay();
  report = manager.report();
  EXPECT_GT(report.shadow_windows, 0u);
  EXPECT_EQ(report.shadow_windows, report.shadow.compared);
  expect_samples_match_report(registry, manager);

  // The next poll sees enough agreeing windows and promotes via the RCU
  // swap; the concluded shadow's pairs stay in the cumulative total.
  manager.poll_once();
  report = manager.report();
  EXPECT_EQ(report.promotions, 1u) << report.last_error;
  EXPECT_EQ(report.rollbacks, 0u);
  EXPECT_EQ(report.phase, "accumulating");
  EXPECT_FALSE(manager.shadowing());
  EXPECT_GT(report.shadow.compared, 0u);
  EXPECT_EQ(report.shadow_windows, report.shadow.compared);
  EXPECT_EQ(report.shadow_disagreements, report.shadow.disagreements);
  expect_samples_match_report(registry, manager);
  // Drift is disabled here: its samples read 0, not a resting p-value.
  expect_drift_samples_zero(registry);
  const auto promoted = server.registry().find("default");
  EXPECT_NE(promoted, f.detector) << "promotion must swap the detector";
  ASSERT_NE(promoted->continual(), nullptr);
  EXPECT_GT(promoted->continual()->train.size(),
            f.detector->continual()->train.size());

  EXPECT_EQ(server.metrics().snapshot().events_dropped, 0u)
      << "rollover must not drop events";
  server.stop();
}

TEST(OnlineManagerTest, StartStopWithLiveTrafficIsClean) {
  const TrainedDetector& f = fixture();
  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::DetectionServer server(server_options);
  server.registry().add("default", f.detector);

  OnlineOptions options;
  options.retrain.min_new_events = 1;
  options.gates = {.max_disagreement = 1.0,
                   .max_latency_ratio = 1e9,
                   .min_windows = 1};
  OnlineManager manager(&server, options);
  manager.install();
  server.start();

  auto session = server.open_session({"host", 1}, "default");
  ASSERT_NE(session, nullptr);
  // The owner steps the manager from its own thread while traffic flows.
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      manager.poll_once();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int round = 0; round < 3; ++round) {
    for (const trace::PartitionedEvent& e : f.benign.events) {
      EXPECT_TRUE(server.submit(session, e));
    }
    server.drain();
  }
  done.store(true, std::memory_order_relaxed);
  poller.join();
  manager.stop();  // concludes any in-flight shadow by its evidence
  EXPECT_FALSE(manager.shadowing());
  const OnlineReport report = manager.report();
  // Every concluded shadow came from a retrain cycle (a shadow caught by
  // stop() with no compared traffic legitimately rolls back).
  EXPECT_LE(report.promotions + report.rollbacks, report.retrain_cycles);
  EXPECT_EQ(server.metrics().snapshot().events_dropped, 0u);
  server.stop();
  manager.stop();  // a second stop concludes nothing more
  EXPECT_EQ(manager.report().promotions + manager.report().rollbacks,
            report.promotions + report.rollbacks);
}

TEST(OnlineManagerTest, LearnsOnlyFromItsOwnProfile) {
  // Another profile's windows carry another model's verdicts: they must
  // reach neither this profile's CFG accumulator nor its drift monitor.
  const TrainedDetector& f = fixture();
  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::DetectionServer server(server_options);
  server.registry().add("default", f.detector);
  server.registry().add("other", f.detector);

  OnlineOptions options;
  options.accumulator.admit_floor = 0.0;
  options.drift.enabled = true;
  OnlineManager manager(&server, options);
  manager.install();
  server.start();

  const auto replay = [&](const std::shared_ptr<serve::Session>& session) {
    ASSERT_NE(session, nullptr);
    for (const trace::PartitionedEvent& e : f.benign.events) {
      ASSERT_TRUE(server.submit(session, e));
    }
    server.drain();
  };
  replay(server.open_session({"host", 1}, "other"));
  OnlineReport report = manager.report();
  EXPECT_EQ(report.accumulator.windows_observed, 0u);
  EXPECT_EQ(report.drift.observed, 0u);

  // The same traffic under the manager's own profile is learned from.
  replay(server.open_session({"host", 2}, "default"));
  report = manager.report();
  EXPECT_GT(report.accumulator.windows_observed, 0u);
  EXPECT_GT(report.drift.observed, 0u);
  server.stop();
}

// --- durability (kill-restart behavior, minus the kill) -------------------

durable::DurableStore make_durable(const std::string& name) {
  durable::DurableOptions options;
  options.dir = ::testing::TempDir() + "/" + name;
  ::mkdir(options.dir.c_str(), 0755);
  ::unlink((options.dir + "/snapshot.leaps").c_str());
  ::unlink((options.dir + "/journal.wal").c_str());
  return durable::DurableStore(options);
}

TEST(OnlineManagerTest, WarmRestartRestoresVerdictsAndAccounting) {
  const TrainedDetector& f = fixture();
  durable::DurableStore store = make_durable("online_warm_restart");
  ASSERT_TRUE(store.open().ok());

  // Generation 1: serve, learn, promote, shut down cleanly.
  core::Detector::ScanResult baseline_scan;
  serve::MetricsSnapshot before;
  {
    serve::ServerOptions server_options;
    server_options.workers = 2;
    serve::DetectionServer server(server_options);
    server.registry().add("default", f.detector);

    OnlineOptions options;
    options.accumulator.admit_floor = 0.0;
    options.retrain.min_new_events = 1;
    options.retrain.max_new_samples = 32;
    options.gates = {.max_disagreement = 1.0,
                     .max_latency_ratio = 1e9,
                     .min_windows = 2};
    options.durable = &store;
    OnlineManager manager(&server, options);
    manager.install();
    server.start();

    auto session = server.open_session({"host", 1}, "default");
    ASSERT_NE(session, nullptr);
    for (int round = 0; round < 2; ++round) {
      for (const trace::PartitionedEvent& e : f.benign.events) {
        ASSERT_TRUE(server.submit(session, e));
      }
      server.drain();
      manager.poll_once();
    }
    ASSERT_EQ(manager.report().promotions, 1u) << manager.report().last_error;
    baseline_scan = server.registry().find("default")->scan(f.malicious);
    server.stop();
    manager.stop();
    before = server.metrics().snapshot();
  }

  // Generation 2: a fresh process would recover from the same directory.
  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  ASSERT_TRUE(recovered->snapshot_found);
  ASSERT_NE(recovered->detector, nullptr)
      << "the promoted incumbent must survive the restart";

  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::DetectionServer server(server_options);
  server.registry().add("default", recovered->detector);
  OnlineOptions options;
  options.durable = &store;
  OnlineManager manager(&server, options);
  obs::MetricRegistry registry;
  const obs::MetricRegistry::Registration registration =
      manager.register_with(registry);
  manager.install();
  ASSERT_FALSE(recovered->pending_windows.empty());
  manager.restore(*recovered);

  // The re-observed recovered windows are counted on every surface.
  EXPECT_EQ(manager.report().accumulator.windows_observed,
            recovered->pending_windows.size());
  expect_samples_match_report(registry, manager);

  // Recovered verdicts are identical to the pre-crash incumbent's.
  const auto scan = server.registry().find("default")->scan(f.malicious);
  EXPECT_EQ(scan.window_labels, baseline_scan.window_labels)
      << "recovered verdicts must be identical to the pre-restart ones";

  // The accounting identity survives the restart: the restored baseline
  // counts only terminal events, and ingested == processed + dropped +
  // quarantined holds before the first new event arrives.
  const serve::MetricsSnapshot after = server.metrics().snapshot();
  EXPECT_EQ(after.events_ingested, after.events_processed +
                                       after.events_dropped +
                                       after.events_quarantined);
  EXPECT_EQ(after.events_processed, before.events_processed);
  EXPECT_LE(after.events_ingested, before.events_ingested);

  // The restore checkpointed: a second recovery sees the same state even
  // if the journal is gone.
  const auto again = store.recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->accounting.ingested, recovered->accounting.ingested);
  server.stop();
}

// A rollback throws the candidate away: the incumbent is untouched and the
// retrain record already consumed the drained windows, so the rollback
// journals nothing, and the next checkpoint carries no candidate.
TEST(OnlineManagerTest, RollbackKeepsNoCandidateInJournalOrSnapshot) {
  const TrainedDetector& f = fixture();
  durable::DurableStore store = make_durable("online_rollback");
  ASSERT_TRUE(store.open().ok());

  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::DetectionServer server(server_options);
  server.registry().add("default", f.detector);
  OnlineOptions options;
  options.accumulator.admit_floor = 0.0;
  options.retrain.min_new_events = 1;
  options.retrain.max_new_samples = 32;
  // Any compared window exceeds a negative disagreement bound: the gate
  // rolls back as soon as it has evidence.
  options.gates = {.max_disagreement = -1.0,
                   .max_latency_ratio = 1e9,
                   .min_windows = 1};
  options.durable = &store;
  OnlineManager manager(&server, options);
  manager.install();
  server.start();

  auto session = server.open_session({"host", 1}, "default");
  ASSERT_NE(session, nullptr);
  const auto replay = [&] {
    for (const trace::PartitionedEvent& e : f.benign.events) {
      ASSERT_TRUE(server.submit(session, e));
    }
    server.drain();
  };
  replay();
  manager.poll_once();  // retrains and stages the candidate
  ASSERT_TRUE(manager.shadowing()) << manager.report().last_error;
  replay();
  const std::uint64_t lsn = store.last_lsn();
  manager.poll_once();  // the gate rolls the candidate back
  const OnlineReport report = manager.report();
  EXPECT_EQ(report.rollbacks, 1u);
  EXPECT_EQ(report.promotions, 0u);
  EXPECT_FALSE(manager.shadowing());
  EXPECT_EQ(server.registry().find("default"), f.detector);
  EXPECT_EQ(store.last_lsn(), lsn) << "a rollback journals nothing";
  server.stop();
  manager.stop();  // the final checkpoint

  std::ifstream in(store.snapshot_path(), std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string snapshot = bytes.str();
  EXPECT_NE(snapshot.find("\nQUARANTINED 0\nPENDING "), std::string::npos);
  EXPECT_EQ(snapshot.find("\nCAND "), std::string::npos);
  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  ASSERT_NE(recovered->detector, nullptr);
  EXPECT_EQ(recovered->detector->scan(f.malicious).window_labels,
            f.detector->scan(f.malicious).window_labels)
      << "the incumbent survives the rollback and the restart";
}

// stop() racing direct poll_once callers must never lose admitted
// windows: whatever the interleaving, the final checkpoint folds every
// admitted window (or the retrain that consumed it) into the snapshot.
TEST(OnlineManagerTest, StopRacingPollOnceLosesNoAdmittedWindows) {
#if defined(__SANITIZE_THREAD__)
  constexpr int kRounds = 8;
#else
  constexpr int kRounds = 3;
#endif
  const TrainedDetector& f = fixture();
  for (int round = 0; round < kRounds; ++round) {
    durable::DurableStore store =
        make_durable("online_stop_race_" + std::to_string(round));
    ASSERT_TRUE(store.open().ok());

    serve::ServerOptions server_options;
    server_options.workers = 2;
    serve::DetectionServer server(server_options);
    server.registry().add("default", f.detector);

    OnlineOptions options;
    options.accumulator.admit_floor = 0.0;
    // Retrain never fires: every admitted window stays pending, so the
    // recovered pending count must equal the admitted count exactly.
    options.retrain.min_new_events = std::numeric_limits<std::uint64_t>::max();
    options.durable = &store;
    OnlineManager manager(&server, options);
    manager.install();
    server.start();

    auto session = server.open_session({"host", 1}, "default");
    ASSERT_NE(session, nullptr);
    for (const trace::PartitionedEvent& e : f.benign.events) {
      ASSERT_TRUE(server.submit(session, e));
    }
    server.drain();
    server.stop();

    ASSERT_GT(manager.report().accumulator.windows_admitted, 0u);

    // The race: a poller hammering poll_once while stop() concludes and
    // takes the final checkpoint.
    std::thread poller([&] {
      for (int i = 0; i < 50; ++i) manager.poll_once();
    });
    manager.stop();
    poller.join();

    // The accumulator folds lazily, so the authoritative admitted count
    // is the post-stop one (stop()'s checkpoint folds everything still
    // deferred). Whatever the interleaving, no admitted window may be
    // missing from the recovered state.
    const AccumulatorStats acc = manager.report().accumulator;
    const std::uint64_t admitted = acc.windows_admitted - acc.windows_evicted;
    const auto recovered = store.recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
    EXPECT_EQ(recovered->pending_windows.size(), admitted)
        << "round " << round << ": admitted windows lost across stop()"
        << " (last_error=" << manager.report().last_error << ")";
  }
}

// Worker-thread taps racing checkpoint truncations must never lose an
// admitted window. The manager's tap fence makes a tap's journal→observe
// pair atomic against a checkpoint's capture→snapshot→truncate, so every
// admitted window lands either in the snapshot or in the journal above
// its fold LSN — checkpointing on nearly every append maximizes the
// chances of a truncate landing inside an unfenced tap.
TEST(OnlineManagerTest, TapsRacingCheckpointsLoseNoAdmittedWindows) {
#if defined(__SANITIZE_THREAD__)
  constexpr int kRounds = 4;
#else
  constexpr int kRounds = 2;
#endif
  const TrainedDetector& f = fixture();
  for (int round = 0; round < kRounds; ++round) {
    durable::DurableOptions durable_options;
    durable_options.dir = ::testing::TempDir() + "/online_tap_ckpt_race_" +
                          std::to_string(round);
    ::mkdir(durable_options.dir.c_str(), 0755);
    ::unlink((durable_options.dir + "/snapshot.leaps").c_str());
    ::unlink((durable_options.dir + "/journal.wal").c_str());
    durable_options.checkpoint_every_appends = 2;
    durable::DurableStore store(durable_options);
    ASSERT_TRUE(store.open().ok());

    serve::ServerOptions server_options;
    server_options.workers = 2;
    serve::DetectionServer server(server_options);
    server.registry().add("default", f.detector);

    OnlineOptions options;
    options.accumulator.admit_floor = 0.0;
    // Retrain never fires: pending must track admitted exactly.
    options.retrain.min_new_events = std::numeric_limits<std::uint64_t>::max();
    options.durable = &store;
    OnlineManager manager(&server, options);
    manager.install();
    server.start();

    auto session = server.open_session({"host", 1}, "default");
    ASSERT_NE(session, nullptr);

    // Checkpoints hammer on the poller thread while worker taps journal
    // windows from live traffic.
    std::atomic<bool> done{false};
    std::thread poller([&] {
      while (!done.load(std::memory_order_relaxed)) manager.poll_once();
    });
    for (int rep = 0; rep < 3; ++rep) {
      for (const trace::PartitionedEvent& e : f.benign.events) {
        ASSERT_TRUE(server.submit(session, e));
      }
      server.drain();
    }
    done.store(true, std::memory_order_relaxed);
    poller.join();
    server.stop();
    manager.stop();

    const AccumulatorStats acc = manager.report().accumulator;
    const std::uint64_t admitted = acc.windows_admitted - acc.windows_evicted;
    ASSERT_GT(admitted, 0u);
    const auto recovered = store.recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
    EXPECT_EQ(recovered->pending_windows.size(), admitted)
        << "round " << round << ": window lost between a tap's journal"
        << " append and a checkpoint truncate (last_error="
        << manager.report().last_error << ")";
  }
}

}  // namespace
}  // namespace leaps::online
