// bench_online — the online-learning latencies leapsbench leaves out on
// purpose (it runs neither `online` nor `durable`):
//   * warm restart: durable recover → registry + online-state restore →
//     the first verdict served;
//   * drift trigger: the per-verdict observe() cost the drift tap pays and
//     the KS evaluate-to-trigger cost the manager poll pays.
//
// Serving throughput lives in leapsbench (serve_fleet, serve_churn) and
// in `leaps-serve` itself. Exits 1 when either probe cannot measure, so a
// probe that goes dead fails the `bench_online` ctest instead of printing
// "unavailable" under exit 0.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include "core/pipeline.h"
#include "durable/store.h"
#include "online/manager.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "trace/partition.h"

namespace {

using namespace leaps;

/// Benign-log events of the training simulation (mixed = 3/4, malicious
/// = 1/2), fixed so every run measures the same detector.
constexpr std::size_t kTrainEvents = 3000;

struct Workload {
  std::shared_ptr<const core::Detector> detector;
  trace::PartitionedLog replay;  // the event source the probes replay
};

Workload build_workload() {
  sim::SimConfig cfg;
  cfg.benign_events = kTrainEvents;
  cfg.mixed_events = kTrainEvents * 3 / 4;
  cfg.malicious_events = kTrainEvents / 2;
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("vim_reverse_tcp_online"), cfg);

  Workload w;
  const trace::PartitionedLog benign = trace::partition_raw(logs.benign);
  const trace::PartitionedLog mixed = trace::partition_raw(logs.mixed);
  w.detector = std::make_shared<const core::Detector>(
      core::fit_detector(benign, mixed).detector);
  w.replay = mixed;
  return w;
}

/// A mkdtemp directory removed, with everything in it, on every path out.
struct TempDir {
  std::string path;
  explicit TempDir(std::string tmpl) {
    if (::mkdtemp(tmpl.data()) != nullptr) path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// Warm-restart latency: from "process came back up" (durable recover)
/// through registry + online-state restore to the first verdict served.
struct RestartLatency {
  bool ok = false;
  double recover_ms = 0.0;        // snapshot + journal replay
  double first_verdict_ms = 0.0;  // recover + restore + serve to verdict 1
};

RestartLatency measure_warm_restart(const Workload& w) {
  RestartLatency out;
  const TempDir dir("/tmp/bench_online_durable_XXXXXX");
  if (dir.path.empty()) return out;

  // Seed the directory with the shape a clean shutdown leaves behind: one
  // checkpoint holding the incumbent and a batch of pending windows.
  const std::size_t window = w.detector->preprocessor().window();
  {
    durable::DurableOptions dopts;
    dopts.dir = dir.path;
    durable::DurableStore store(dopts);
    if (!store.open().ok()) return out;
    durable::CheckpointState state;
    state.detector = w.detector;
    for (std::size_t i = 0;
         i + window <= w.replay.events.size() && i < 32 * window;
         i += window) {
      state.pending_windows.push_back(durable::DurableWindow{
          {w.replay.events.begin() + static_cast<std::ptrdiff_t>(i),
           w.replay.events.begin() + static_cast<std::ptrdiff_t>(i + window)}});
    }
    if (!store.checkpoint(state).ok()) return out;
  }

  const auto start = std::chrono::steady_clock::now();
  durable::DurableOptions dopts;
  dopts.dir = dir.path;
  durable::DurableStore store(dopts);
  const auto recovered = store.recover();
  const auto recovered_at = std::chrono::steady_clock::now();
  if (!recovered.ok() || recovered->detector == nullptr) return out;
  if (!store.open().ok()) return out;

  serve::ServerOptions options;
  options.workers = 2;
  serve::DetectionServer server(options);
  server.registry().add("default", recovered->detector);
  online::OnlineOptions oopts;
  oopts.durable = &store;
  online::OnlineManager manager(&server, oopts);
  manager.install();
  manager.restore(*recovered);

  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  std::chrono::steady_clock::time_point first;
  server.set_verdict_sink([&](const serve::VerdictRecord&) {
    const std::lock_guard<std::mutex> lock(mu);
    if (!got) {
      got = true;
      first = std::chrono::steady_clock::now();
      cv.notify_all();
    }
  });
  server.start();
  const auto session = server.open_session({"restart", 1}, "default");
  for (std::size_t i = 0; i < 4 * window && i < w.replay.events.size(); ++i) {
    server.submit(session, w.replay.events[i]);
  }
  server.drain();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return got; });
  }
  server.stop();
  manager.stop();
  if (got) {
    out.ok = true;
    out.recover_ms =
        std::chrono::duration<double, std::milli>(recovered_at - start)
            .count();
    out.first_verdict_ms =
        std::chrono::duration<double, std::milli>(first - start).count();
  }
  return out;
}

/// Drift-detection latency at the default window sizes (reference 256,
/// live 128): the per-verdict observe() cost the tap pays, and the KS
/// evaluate-to-trigger cost the manager poll pays.
struct DriftLatency {
  bool ok = false;
  double observe_ns = 0.0;   // per observed decision value
  double evaluate_us = 0.0;  // per full-window KS evaluation
  int fired = 0;             // triggers over kDriftRounds evaluations
};

constexpr int kDriftRounds = 100;

DriftLatency measure_drift_trigger(const Workload& w) {
  DriftLatency out;
  online::DriftOptions dopts;
  dopts.enabled = true;
  // Real decision values seed the reference; the live window gets the
  // same values shifted — a guaranteed, repeatable drift. The replay is
  // looped until the reference and a full live window are drawn.
  const std::size_t wanted = dopts.reference_target + dopts.live_window;
  std::vector<double> values;
  core::Detector::Stream stream = w.detector->stream();
  while (values.size() < wanted) {
    const std::size_t before = values.size();
    for (const trace::PartitionedEvent& e : w.replay.events) {
      if (stream.push(e).has_value()) {
        values.push_back(stream.last_decision_value());
      }
      if (values.size() >= wanted) break;
    }
    if (values.size() == before) return out;  // a replay of no windows
  }
  online::DriftMonitor monitor(dopts);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const bool live = i >= dopts.reference_target;
    monitor.observe(values[i] + (live ? 1.0 : 0.0), 1);
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.observe_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(values.size());

  double total_us = 0.0;
  for (int r = 0; r < kDriftRounds; ++r) {
    const auto e0 = std::chrono::steady_clock::now();
    const bool fired = monitor.evaluate();
    const auto e1 = std::chrono::steady_clock::now();
    total_us += std::chrono::duration<double, std::micro>(e1 - e0).count();
    if (fired) ++out.fired;
    monitor.consume_trigger();  // clears the live window (cooldown)
    for (std::size_t i = dopts.reference_target; i < values.size(); ++i) {
      monitor.observe(values[i] + 1.0, 1);
    }
  }
  out.evaluate_us = total_us / kDriftRounds;
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  std::printf("LEAPS reproduction — online-learning latencies (bench_online)\n");
  std::printf("config: train_events=%zu\n\n", kTrainEvents);

  const Workload w = build_workload();
  int rc = 0;
  const RestartLatency restart = measure_warm_restart(w);
  if (restart.ok) {
    std::printf(
        "warm restart: recover %.2f ms, first verdict %.2f ms "
        "(checkpoint -> recover -> restore -> serve)\n",
        restart.recover_ms, restart.first_verdict_ms);
  } else {
    std::printf("warm restart: measurement unavailable\n");
    rc = 1;
  }

  const DriftLatency drift = measure_drift_trigger(w);
  if (drift.ok) {
    std::printf(
        "drift monitor: observe %.0f ns/value, KS evaluate %.1f us "
        "(ref=256 live=128), trigger fired %d/%d rounds\n",
        drift.observe_ns, drift.evaluate_us, drift.fired, kDriftRounds);
  } else {
    std::printf("drift monitor: measurement unavailable\n");
    rc = 1;
  }
  return rc;
}
