// bench_serve — serving-layer throughput: aggregate events/sec through the
// DetectionServer as the worker pool grows, over many concurrent replayed
// sessions.
//
// Sessions are sharded across workers, so scaling comes from session
// parallelism; with ≥ 8 sessions the pool should scale near-linearly until
// it runs out of hardware threads (the binary prints the machine's
// concurrency so a 1-core CI box's flat curve reads as what it is).
//
// Knobs: LEAPS_SERVE_SESSIONS (default 8), LEAPS_SERVE_EVENTS per session
// (default 6000), LEAPS_EVENTS (training-log size), LEAPS_FAST=1.
// LEAPS_BENCH_JSON=<path> additionally writes the measurements as a JSON
// snapshot (the format of the checked-in BENCH_serve.json baseline). LEAPS_BENCH_BASELINE=<path> compares this
// box's core count against the checked-in snapshot before writing:
// mismatches are annotated in the JSON, or refused outright with
// LEAPS_BENCH_STRICT=1 (speedup columns are incomparable across core
// counts).
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "durable/store.h"
#include "online/manager.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "util/env.h"

namespace {

using namespace leaps;

struct Workload {
  std::shared_ptr<const core::Detector> detector;
  trace::PartitionedLog replay;  // the event source every session loops over
};

Workload build_workload(std::size_t train_events) {
  sim::SimConfig cfg;
  cfg.benign_events = train_events;
  cfg.mixed_events = train_events * 3 / 4;
  cfg.malicious_events = train_events / 2;
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

double run_once(const Workload& w, std::size_t workers,
                std::size_t sessions, std::size_t events_per_session,
                std::size_t coalesce) {
  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = 4096;
  options.batch_size = 128;
  options.coalesce = coalesce;
  serve::DetectionServer server(options);
  server.registry().add("bench", w.detector);

  std::vector<std::shared_ptr<serve::Session>> handles;
  for (std::size_t s = 0; s < sessions; ++s) {
    handles.push_back(server.open_session(
        {"bench" + std::to_string(s), static_cast<std::uint32_t>(s)},
        "bench"));
  }
  server.start();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    producers.emplace_back([&, s] {
      const auto& events = w.replay.events;
      for (std::size_t i = 0; i < events_per_session; ++i) {
        server.submit(handles[s], events[i % events.size()]);
      }
    });
  }
  for (auto& p : producers) p.join();
  server.drain();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  server.stop();
  return static_cast<double>(sessions * events_per_session) /
         elapsed.count();
}

/// Warm-restart latency: from "process came back up" (durable recover)
/// through registry + online-state restore to the first verdict served.
struct RestartLatency {
  bool ok = false;
  double recover_ms = 0.0;        // snapshot + journal replay
  double first_verdict_ms = 0.0;  // recover + restore + serve to verdict 1
};

RestartLatency measure_warm_restart(const Workload& w) {
  RestartLatency out;
  char tmpl[] = "/tmp/bench_serve_durable_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) return out;
  const std::string snapshot = std::string(dir) + "/snapshot.leaps";
  const std::string journal = std::string(dir) + "/journal.wal";

  // Seed the directory with the shape a clean shutdown leaves behind: one
  // checkpoint holding the incumbent and a batch of pending windows.
  const std::size_t window = w.detector->preprocessor().window();
  {
    durable::DurableOptions dopts;
    dopts.dir = dir;
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
  dopts.dir = dir;
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
  ::unlink(snapshot.c_str());
  ::unlink(journal.c_str());
  ::rmdir(dir);
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
  // Real decision values from a real replay seed the reference; the live
  // window gets the same values shifted — a guaranteed, repeatable drift.
  std::vector<double> values;
  core::Detector::Stream stream = w.detector->stream();
  for (const trace::PartitionedEvent& e : w.replay.events) {
    if (stream.push(e).has_value()) {
      values.push_back(stream.last_decision_value());
    }
    if (values.size() >= 512) break;
  }
  online::DriftOptions dopts;
  dopts.enabled = true;
  if (values.size() < dopts.reference_target + dopts.min_live) return out;
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
  const bool fast = util::env_flag("LEAPS_FAST");
  const auto sessions = static_cast<std::size_t>(
      util::env_int("LEAPS_SERVE_SESSIONS", 8));
  const auto events_per_session = static_cast<std::size_t>(
      util::env_int("LEAPS_SERVE_EVENTS", fast ? 1500 : 6000));
  const auto train_events =
      static_cast<std::size_t>(util::env_int("LEAPS_EVENTS", 3000));
  // Micro-batched hand-off (events staged per queue push). 4 keeps queue
  // contention visible but low; 1 reproduces the classic per-event path.
  const auto coalesce = static_cast<std::size_t>(
      util::env_int("LEAPS_SERVE_COALESCE", 4));

  std::printf("LEAPS reproduction — serving throughput (bench_serve)\n");
  std::printf(
      "config: sessions=%zu events/session=%zu train_events=%zu "
      "coalesce=%zu hardware_concurrency=%u\n\n",
      sessions, events_per_session, train_events, coalesce,
      std::thread::hardware_concurrency());

  const Workload w = build_workload(train_events);
  std::printf("%-8s %14s %10s\n", "workers", "events/sec", "speedup");
  double base = 0.0;
  double at4 = 0.0;
  std::vector<std::pair<std::size_t, double>> rows;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    // Warm-up pass, then the measured pass.
    run_once(w, workers, sessions, events_per_session / 4 + 1, coalesce);
    const double rate =
        run_once(w, workers, sessions, events_per_session, coalesce);
    if (workers == 1) base = rate;
    if (workers == 4) at4 = rate;
    rows.emplace_back(workers, rate);
    std::printf("%-8zu %14.0f %9.2fx\n", workers, rate,
                base > 0.0 ? rate / base : 1.0);
  }
  std::printf(
      "\n1 → 4 workers: %.2fx aggregate scaling over %zu sessions%s\n",
      base > 0.0 ? at4 / base : 0.0, sessions,
      std::thread::hardware_concurrency() < 4
          ? " (machine has fewer than 4 hardware threads; expect ~1x here)"
          : "");

  const RestartLatency restart = measure_warm_restart(w);
  if (restart.ok) {
    std::printf(
        "warm restart: recover %.2f ms, first verdict %.2f ms "
        "(checkpoint -> recover -> restore -> serve)\n",
        restart.recover_ms, restart.first_verdict_ms);
  } else {
    std::printf("warm restart: measurement unavailable\n");
  }

  const DriftLatency drift = measure_drift_trigger(w);
  if (drift.ok) {
    std::printf(
        "drift monitor: observe %.0f ns/value, KS evaluate %.1f us "
        "(ref=256 live=128), trigger fired %d/%d rounds\n",
        drift.observe_ns, drift.evaluate_us, drift.fired, kDriftRounds);
  } else {
    std::printf("drift monitor: measurement unavailable\n");
  }

  const std::string json_path = util::env_string("LEAPS_BENCH_JSON", "");
  if (!json_path.empty()) {
    const bench::BaselineGuard guard = bench::check_bench_baseline();
    std::ofstream os(json_path, std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    os << "{\n  \"benchmark\": \"bench_serve\",\n"
       << "  \"config\": {\"sessions\": " << sessions
       << ", \"events_per_session\": " << events_per_session
       << ", \"train_events\": " << train_events
       << ", \"coalesce\": " << coalesce
       << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << guard.annotation
       << "},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char line[128];
      std::snprintf(line, sizeof line,
                    "    {\"workers\": %zu, \"events_per_sec\": %.0f, "
                    "\"speedup\": %.2f}%s\n",
                    rows[i].first, rows[i].second,
                    base > 0.0 ? rows[i].second / base : 1.0,
                    i + 1 < rows.size() ? "," : "");
      os << line;
    }
    os << "  ]";
    if (restart.ok) {
      char line[160];
      std::snprintf(line, sizeof line,
                    ",\n  \"warm_restart\": {\"recover_ms\": %.2f, "
                    "\"first_verdict_ms\": %.2f}",
                    restart.recover_ms, restart.first_verdict_ms);
      os << line;
    }
    if (drift.ok) {
      char line[160];
      std::snprintf(line, sizeof line,
                    ",\n  \"drift\": {\"observe_ns\": %.0f, "
                    "\"evaluate_us\": %.2f, \"fired\": %d}",
                    drift.observe_ns, drift.evaluate_us, drift.fired);
      os << line;
    }
    os << "\n}\n";
    std::printf("(JSON -> %s)\n", json_path.c_str());
  }
  return 0;
}
