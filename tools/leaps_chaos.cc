// leaps_chaos — chaos harness for the detection service.
//
// Replays simulator logs through the serving stack while arming fault
// points (util/fault.h), then asserts the service's robustness contract:
//
//   * no crash, no abort, no deadlock (a per-phase watchdog converts a
//     hang into a diagnostic and exit 1),
//   * exact accounting — after drain(),
//       events_ingested == events_processed + events_dropped
//                          + events_quarantined,
//   * blast-radius isolation — injected classification faults quarantine
//     only the targeted "victim-*" sessions; every "steady-*" session's
//     verdicts match a fault-free sequential replay bit-for-bit.
//
// Fully deterministic in --seed (fault draws derive from it). Exit 0 =
// contract held, 1 = any violation, 2 = usage.
//
// Decoders of untrusted bytes (the log dialects, persisted state, .sig and
// audit JSONL) are not exercised here: the HostileLengths table in
// tests/test_codec.cc holds every one of them to a typed error and a
// bounded allocation on a deterministic mutation corpus, under ASan+UBSan.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "cli.h"
#include "core/pipeline.h"
#include "durable/store.h"
#include "online/manager.h"
#include "online/shadow.h"
#include "online/verdict_diff.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "util/fault.h"
#include "util/status.h"

namespace {

using namespace leaps;

constexpr const char* kUsage =
    "usage: leaps-chaos [--seed N] [--events N] [--sessions N] [--rate F]\n"
    "                   [--smoke]\n"
    "  chaos-tests the detection service: replays logs with fault points\n"
    "  armed, asserting no crash/deadlock, exact event accounting, and\n"
    "  per-session fault isolation.\n"
    "  --seed N      deterministic seed for fault draws (default 2015)\n"
    "  --events N    total events in the replay phases (default 10000)\n"
    "  --sessions N  concurrent sessions, half victims (default 8)\n"
    "  --rate F      per-event fault probability on victims (default 0.05)\n"
    "  --smoke       small fast run for CI\n"
    "  --soak        fleet-scale session-fabric soak: hold --sessions live\n"
    "                sessions at once (CI drills 100000; pass 1000000 for\n"
    "                the documented 1M-session scale), burst-classify a\n"
    "                sample through micro-batched hand-off, then close the\n"
    "                fleet — asserting exact accounting and slab-slot\n"
    "                reconciliation. Runs instead of the replay phases\n"
    "  --rollover    also exercise the online retrain -> shadow -> promote\n"
    "                machinery plus a forced-rollback drill (not part of\n"
    "                plain --smoke; ctest gates --smoke --rollover)\n"
    "  --crash       kill-restart drills: a forked child is _Exit()ed at\n"
    "                each durable fault point (mid-snapshot-rename, mid-\n"
    "                journal-append, between checkpoint and truncate); the\n"
    "                recovered state must serve verdicts identical to the\n"
    "                child's own uncrashed baseline. Also runs the drift\n"
    "                drill: a child killed between the journaled drift\n"
    "                samples and the trigger record must, after recovery,\n"
    "                re-fire the KS trigger at the same LSN with an\n"
    "                identical monitor state\n"
    "  --trace-out FILE, --profile, --metrics-out FILE  observability\n"
    "exit: 0 contract held, 1 violation, 2 usage\n";

int g_failures = 0;

bool check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "leaps-chaos: FAIL: %s\n", what);
    ++g_failures;
  }
  return ok;
}

/// Converts a hung phase into a diagnostic + exit 1 instead of a CI
/// timeout with no context.
class Watchdog {
 public:
  Watchdog(const char* phase, std::chrono::seconds limit) {
    thread_ = std::thread([this, phase, limit] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
        std::fprintf(stderr,
                     "leaps-chaos: FAIL: deadlock suspected — phase '%s' "
                     "exceeded %llds\n",
                     phase, static_cast<long long>(limit.count()));
        std::_Exit(1);
      }
    });
  }
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

struct Trained {
  trace::PartitionedLog benign;
  trace::PartitionedLog mixed;
  trace::PartitionedLog malicious;  // the drift drill's shifted replay
  std::shared_ptr<const core::Detector> detector;
};

/// Small genuinely-trained detector (mirrors the test fixture; tools
/// cannot include tests/).
Trained train_detector(std::size_t sim_events, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.benign_events = sim_events;
  cfg.mixed_events = sim_events * 3 / 4;
  cfg.malicious_events = sim_events / 2;
  cfg.seed = seed;
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("vim_reverse_tcp_online"), cfg);

  Trained out;
  out.benign = trace::partition_raw(logs.benign);
  out.mixed = trace::partition_raw(logs.mixed);
  out.malicious = trace::partition_raw(logs.malicious);

  // The attached continual state makes the detector warm-retrainable (the
  // --rollover phase needs it).
  out.detector = std::make_shared<const core::Detector>(
      core::fit_detector(out.benign, out.mixed).detector);
  return out;
}

void check_identity(const serve::MetricsSnapshot& m, const char* phase) {
  const std::uint64_t accounted =
      m.events_processed + m.events_dropped + m.events_quarantined;
  if (m.events_ingested != accounted) {
    std::fprintf(stderr,
                 "leaps-chaos: FAIL: %s accounting: ingested=%llu != "
                 "processed=%llu + dropped=%llu + quarantined=%llu\n",
                 phase, static_cast<unsigned long long>(m.events_ingested),
                 static_cast<unsigned long long>(m.events_processed),
                 static_cast<unsigned long long>(m.events_dropped),
                 static_cast<unsigned long long>(m.events_quarantined));
    ++g_failures;
  }
}

/// Phase: fault-free sequential replay — the per-session ground truth.
std::vector<int> baseline_verdicts(const core::Detector& detector,
                                   const trace::PartitionedLog& log,
                                   std::size_t per_session) {
  core::Detector::Stream stream = detector.stream();
  std::vector<int> labels;
  for (std::size_t i = 0; i < per_session; ++i) {
    const std::optional<int> label =
        stream.push(log.events[i % log.events.size()]);
    if (label.has_value()) labels.push_back(*label);
  }
  return labels;
}

/// Phase: concurrent replay with classification faults injected into the
/// victim sessions only.
void fault_replay(const Trained& trained, std::size_t sessions,
                  std::size_t per_session, double rate,
                  const std::vector<int>& baseline) {
  const Watchdog watchdog("fault-replay", std::chrono::seconds(300));
  auto& injector = util::FaultInjector::instance();

  serve::ServerOptions options;
  options.workers = 4;
  options.batch_size = 64;
  options.circuit_breaker = 1;  // one injected throw quarantines
  serve::DetectionServer server(options);
  server.registry().add("default", trained.detector);

  std::mutex verdicts_mu;
  // Keyed by SessionKey directly: rebuilding "host:pid" strings per
  // verdict was measurable noise on the hot sink path.
  std::map<serve::SessionKey, std::vector<int>> verdicts;
  server.set_verdict_sink([&](const serve::VerdictRecord& v) {
    const std::lock_guard<std::mutex> lock(verdicts_mu);
    verdicts[v.key].push_back(v.label);
  });

  std::vector<serve::SessionKey> keys;
  std::vector<std::shared_ptr<serve::Session>> opened;
  for (std::size_t s = 0; s < sessions; ++s) {
    const bool victim = s % 2 == 0;
    keys.push_back(serve::SessionKey{
        (victim ? "victim-" : "steady-") + std::to_string(s),
        static_cast<std::uint32_t>(1000 + s)});
    opened.push_back(server.open_session(keys.back(), "default"));
    check(opened.back() != nullptr, "fault-replay: open_session failed");
  }

  {
    util::FaultSpec spec;
    spec.action = util::FaultAction::kThrow;
    spec.probability = rate;
    spec.filter = "victim";  // matches victim-* session keys only
    injector.arm("serve.worker.classify", spec);
  }
  server.start();

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < sessions; ++s) {
    producers.emplace_back([&, s] {
      const auto& session = opened[s];
      const auto& events = trained.mixed.events;
      for (std::size_t i = 0; i < per_session; ++i) {
        server.submit(session, events[i % events.size()]);
      }
    });
  }
  for (std::thread& p : producers) p.join();
  server.drain();

  check_identity(server.metrics().snapshot(), "fault-replay");

  std::size_t victims_quarantined = 0;
  {
    const std::lock_guard<std::mutex> lock(verdicts_mu);
    for (std::size_t s = 0; s < sessions; ++s) {
      const bool victim = s % 2 == 0;
      const bool quarantined = opened[s]->quarantined();
      if (victim) {
        victims_quarantined += quarantined ? 1 : 0;
      } else {
        check(!quarantined,
              "fault-replay: a steady session was quarantined");
        const online::SequenceDiff diff =
            online::diff_sequences(verdicts[keys[s]], baseline);
        if (!check(diff.identical(),
                   "fault-replay: steady session diverged from the "
                   "fault-free run")) {
          std::fprintf(stderr,
                       "  %s: %zu/%zu windows disagree, length delta %zu\n",
                       keys[s].to_string().c_str(), diff.disagreements,
                       diff.compared, diff.length_delta);
        }
      }
    }
  }
  check(victims_quarantined >= 1,
        "fault-replay: no victim session was quarantined");

  const serve::MetricsSnapshot m = server.metrics().snapshot();
  server.stop();
  injector.disarm_all();
  std::printf(
      "fault replay: %zu sessions x %zu events, %zu/%zu victims "
      "quarantined, %llu failed, %llu quarantined events; steady "
      "sessions matched baseline\n",
      static_cast<std::size_t>(opened.size()), per_session,
      victims_quarantined, (opened.size() + 1) / 2,
      static_cast<unsigned long long>(m.events_failed),
      static_cast<unsigned long long>(m.events_quarantined));
}

/// Phase: latency injection against tiny queues with shedding enabled —
/// the server must keep draining and keep its books balanced even while
/// dropping load.
void latency_chaos(const Trained& trained, std::size_t sessions,
                   std::size_t per_session) {
  const Watchdog watchdog("latency", std::chrono::seconds(300));
  auto& injector = util::FaultInjector::instance();

  serve::ServerOptions options;
  options.workers = 2;
  options.batch_size = 32;
  options.queue_capacity = 64;
  options.shed_queue_wait_us = 200;
  serve::DetectionServer server(options);
  server.registry().add("default", trained.detector);

  {
    util::FaultSpec spec;
    spec.action = util::FaultAction::kDelay;
    spec.probability = 0.25;
    spec.delay = std::chrono::microseconds(300);
    injector.arm("serve.worker.classify", spec);
  }
  server.start();

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < sessions; ++s) {
    producers.emplace_back([&, s] {
      const auto session = server.open_session(
          serve::SessionKey{"slow-" + std::to_string(s),
                            static_cast<std::uint32_t>(2000 + s)},
          "default");
      const auto& events = trained.mixed.events;
      for (std::size_t i = 0; i < per_session; ++i) {
        server.submit(session, events[i % events.size()]);
      }
    });
  }
  for (std::thread& p : producers) p.join();
  server.drain();

  const serve::MetricsSnapshot m = server.metrics().snapshot();
  check_identity(m, "latency");
  server.stop();
  injector.disarm_all();
  std::printf("latency chaos: drained %llu events under injected delay "
              "(%llu shed, %llu shed activations)\n",
              static_cast<unsigned long long>(m.events_ingested),
              static_cast<unsigned long long>(m.events_shed),
              static_cast<unsigned long long>(m.shed_activations));
}

/// Phase (--rollover): a live server runs a full online-learning cycle —
/// benign traffic accumulates, a warm retrain produces a candidate, the
/// candidate shadows and promotes through the RCU swap — then a
/// deliberately broken candidate is shadowed and must roll back. The
/// contract: no crash, exact accounting, zero dropped events, and both
/// the promotion and the rollback actually happen.
void rollover_chaos(const Trained& trained, std::size_t sessions,
                    std::size_t per_session) {
  const Watchdog watchdog("rollover", std::chrono::seconds(300));

  serve::ServerOptions options;
  options.workers = 2;
  serve::DetectionServer server(options);
  server.registry().add("default", trained.detector);

  online::OnlineOptions online_options;
  online_options.retrain.min_new_events = 1;
  online_options.retrain.max_new_samples = 64;
  online_options.gates.min_windows = 4;
  // This phase drills the machinery, not model quality: promote whenever
  // the comparison completes (disagreement/latency gates wide open).
  online_options.gates.max_disagreement = 1.0;
  online_options.gates.max_latency_ratio = 1e9;
  online::OnlineManager manager(&server, online_options);
  manager.install();
  server.start();

  std::vector<std::shared_ptr<serve::Session>> opened;
  for (std::size_t s = 0; s < sessions; ++s) {
    opened.push_back(server.open_session(
        serve::SessionKey{"roll-" + std::to_string(s),
                          static_cast<std::uint32_t>(3000 + s)},
        "default"));
    check(opened.back() != nullptr, "rollover: open_session failed");
  }
  const auto replay_round = [&] {
    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < sessions; ++s) {
      producers.emplace_back([&, s] {
        const auto& events = trained.benign.events;
        for (std::size_t i = 0; i < per_session; ++i) {
          server.submit(opened[s], events[i % events.size()]);
        }
      });
    }
    for (std::thread& p : producers) p.join();
    server.drain();
  };

  // Round 1 accumulates + retrains (the first poll stages the shadow),
  // round 2 feeds the shadow, the second poll promotes. No third poll: it
  // would start the next retrain cycle and stage a fresh shadow, blocking
  // the drill below.
  replay_round();
  manager.poll_once();
  replay_round();
  manager.poll_once();

  online::OnlineReport report = manager.report();
  check(report.retrain_cycles >= 1, "rollover: no retrain cycle ran");
  check(report.promotions >= 1, "rollover: candidate was not promoted");

  // Rollback drill: an all-malicious candidate, staged through the
  // manager's own path under a meaningful disagreement gate, must be
  // voted down on benign traffic, never serve, and leave the shadow slot
  // free.
  auto broken = std::make_shared<core::Detector>(*trained.detector);
  broken->set_decision_threshold(1e18);
  const online::RolloverGates drill_gates{/*max_disagreement=*/0.02,
                                          /*max_latency_ratio=*/1e9,
                                          /*min_windows=*/4};
  check(manager.stage(broken, drill_gates),
        "rollover: drill candidate was not staged");
  replay_round();
  check(online::judge(manager.report().shadow, drill_gates) ==
            online::RolloverDecision::kRollback,
        "rollover: broken candidate was not voted down");
  manager.poll_once();
  const online::OnlineReport drilled = manager.report();
  check(drilled.rollbacks == report.rollbacks + 1 &&
            drilled.promotions == report.promotions,
        "rollover: the poll did not roll the broken candidate back");
  check(server.registry().find("default") != broken,
        "rollover: broken candidate became the active detector");
  check(server.registry().shadow_candidate("default") == nullptr,
        "rollover: shadow slot still held after the rollback");

  const serve::MetricsSnapshot m = server.metrics().snapshot();
  check_identity(m, "rollover");
  check(m.events_dropped == 0, "rollover: promotion dropped events");
  server.stop();
  std::printf(
      "rollover chaos: %llu retrains (warm saved %llu iters), "
      "%llu promotion(s), 1 forced rollback, %llu events with 0 drops\n",
      static_cast<unsigned long long>(report.retrain_cycles),
      static_cast<unsigned long long>(report.warm_iterations_saved),
      static_cast<unsigned long long>(report.promotions),
      static_cast<unsigned long long>(m.events_processed));
}

/// Phase (--soak): fleet-scale session-fabric soak. Holds `fleet` live
/// sessions at once (CI drills 100k; the documented scale is 1M — pass
/// --sessions 1000000), drives a classification burst through a rotating
/// sample with micro-batched hand-off engaged, then closes the whole
/// fleet. The contract: every open succeeds and stays held (peak active
/// == fleet), exact accounting after drain, the slab pool accounts for
/// every session slot, and teardown returns every slot to the freelist.
void soak_fabric(const Trained& trained, std::size_t fleet, bool smoke) {
  const Watchdog watchdog("soak", std::chrono::seconds(smoke ? 600 : 3000));

  serve::ServerOptions options;
  options.workers = smoke ? 2 : 4;
  options.session_shards = 256;   // the sharded table is what soaks
  options.coalesce = 8;           // exercise the batched hand-off path
  options.queue_capacity = 8192;
  serve::DetectionServer server(options);
  server.registry().add("default", trained.detector);
  server.start();

  for (std::size_t s = 0; s < fleet; ++s) {
    const serve::SessionKey key{"soak-" + std::to_string(s & 1023),
                                static_cast<std::uint32_t>(s)};
    if (server.open_session(key, "default") == nullptr) {
      check(false, "soak: open_session failed mid-fleet");
      return;
    }
  }
  const std::size_t peak = server.sessions().active();
  check(peak == fleet, "soak: fleet not fully held");
  {
    const serve::MetricsSnapshot m = server.metrics().snapshot();
    check(m.slab_sessions_in_use + m.slab_overflow ==
              static_cast<std::int64_t>(fleet),
          "soak: slab pool does not account for every session slot");
  }

  // Classification burst through a sample of the fleet (windows must
  // still assemble correctly while 100k+ sessions are resident).
  const std::size_t window = trained.detector->preprocessor().window();
  const std::size_t sample = std::min<std::size_t>(fleet, 512);
  const std::size_t burst = window * 2;
  const auto& events = trained.benign.events;
  for (std::size_t s = 0; s < sample; ++s) {
    // Spread the sample across the fleet, not just the first shards.
    const std::size_t idx = s * (fleet / sample);
    const serve::SessionKey key{"soak-" + std::to_string(idx & 1023),
                                static_cast<std::uint32_t>(idx)};
    for (std::size_t i = 0; i < burst; ++i) {
      server.submit(key, events[i % events.size()]);
    }
  }
  server.drain();
  const serve::MetricsSnapshot mid = server.metrics().snapshot();
  check_identity(mid, "soak");
  check(mid.events_ingested == sample * burst,
        "soak: burst events not all accepted");
  check(mid.windows_scored >= sample,
        "soak: sampled sessions scored no windows");

  // Teardown: close the entire fleet; every slab slot must come home.
  std::size_t closed = 0;
  for (std::size_t s = 0; s < fleet; ++s) {
    const serve::SessionKey key{"soak-" + std::to_string(s & 1023),
                                static_cast<std::uint32_t>(s)};
    closed += server.close_session(key).has_value() ? 1 : 0;
  }
  check(closed == fleet, "soak: close did not find every session");
  check(server.sessions().active() == 0, "soak: sessions left behind");
  server.drain();
  server.stop();
  {
    const serve::MetricsSnapshot m = server.metrics().snapshot();
    check(m.slab_sessions_in_use == 0,
          "soak: session slots leaked after teardown");
    check(m.slab_sessions_free > 0,
          "soak: freelist empty after returning the fleet");
  }
  std::printf("soak: held %zu sessions (peak %zu), burst %zu x %zu events "
              "through micro-batches, accounting exact, slab slots "
              "reconciled (1M is the documented scale: --sessions "
              "1000000)\n",
              fleet, peak, sample, burst);
}

// --- kill-restart drills (--crash) ----------------------------------------

/// Child process for one crash drill (exec'd, never forked bare: the
/// parent's lazily-started thread pool would not survive a fork). Runs a
/// deterministic single-worker workload to a complete learn -> promote ->
/// checkpoint cycle, writes its own uncrashed-baseline verdicts into the
/// durable dir, then arms the requested fault (action `exit` == _Exit,
/// the closest portable stand-in for kill -9) and keeps going until it
/// dies at the fault point.
int crash_child(const char* dir_c, const char* spec, std::size_t sim_events) {
  const std::string dir = dir_c;
  const Trained trained = train_detector(sim_events, 7);

  durable::DurableOptions dopts;
  dopts.dir = dir;
  dopts.checkpoint_every_appends = 1u << 30;  // explicit checkpoints only
  durable::DurableStore store(dopts);
  if (!store.open().ok()) return 2;

  serve::ServerOptions soptions;
  soptions.workers = 1;  // deterministic admission order
  serve::DetectionServer server(soptions);
  server.registry().add("default", trained.detector);

  online::OnlineOptions oopts;
  oopts.accumulator.admit_floor = 0.0;
  oopts.retrain.min_new_events = 1;
  oopts.retrain.max_new_samples = 32;
  oopts.gates = {.max_disagreement = 1.0,
                 .max_latency_ratio = 1e9,
                 .min_windows = 2};
  oopts.durable = &store;
  online::OnlineManager manager(&server, oopts);
  manager.install();
  server.start();
  const auto session = server.open_session({"crash", 1}, "default");
  if (session == nullptr) return 2;
  const auto replay = [&] {
    for (const trace::PartitionedEvent& e : trained.benign.events) {
      server.submit(session, e);
    }
    server.drain();
  };

  // A complete uncrashed cycle: accumulate -> retrain -> shadow -> promote
  // (the promotion checkpoints, truncating the journal).
  replay();
  manager.poll_once();
  replay();
  manager.poll_once();
  if (manager.report().promotions != 1) return 4;
  const auto incumbent = server.registry().find("default");
  {
    // The uncrashed baseline the parent compares recovery against.
    std::ofstream out(dir + "/expected_labels.txt");
    for (const int label : incumbent->scan(trained.mixed).window_labels) {
      out << label << "\n";
    }
  }
  replay();  // live journal records for the crash to land on top of

  if (!util::FaultInjector::instance().arm_from_spec(spec)) return 2;
  replay();        // dies here for durable.wal.append.mid
  manager.stop();  // final checkpoint dies at the snapshot/truncate points
  return 3;        // fault never fired — the parent fails the drill
}

/// The --crash drills' children: a scratch directory under /tmp that is
/// removed on every return path, and this binary exec'd in one of its
/// hidden child modes (never forked bare: see crash_child).
class DrillChildren {
 public:
  /// `tag` names the scratch directory: /tmp/leaps-chaos-<tag>-XXXXXX.
  explicit DrillChildren(const std::string& tag) {
    std::string pattern = "/tmp/leaps-chaos-" + tag + "-XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) base_ = pattern;
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) exe_.assign(exe, static_cast<std::size_t>(n));
  }
  ~DrillChildren() {
    std::error_code ignored;
    if (!base_.empty()) std::filesystem::remove_all(base_, ignored);
  }
  DrillChildren(const DrillChildren&) = delete;
  DrillChildren& operator=(const DrillChildren&) = delete;

  /// False when the scratch directory or the binary's path is missing.
  bool ready() const { return !base_.empty() && !exe_.empty(); }
  std::string dir(const std::string& name) const { return base_ + "/" + name; }

  /// Runs `<self> <mode> <dir> <arg> <sim_events>` in a fresh `dir` and
  /// returns its wait status.
  int run(const char* mode, const std::string& dir, const char* arg,
          std::size_t sim_events) const {
    ::mkdir(dir.c_str(), 0755);
    const std::string events = std::to_string(sim_events);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(exe_.c_str(), exe_.c_str(), mode, dir.c_str(), arg,
              events.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    int status = -1;  // not an exit status: a failed fork fails the drill
    if (pid > 0) ::waitpid(pid, &status, 0);
    return status;
  }

 private:
  std::string base_;
  std::string exe_;
};

struct CrashScenario {
  const char* name;
  const char* spec;
  int exit_status;      // what the armed exit fault reports via waitpid
  bool expect_torn;     // journal tail truncated on recovery
  bool expect_skipped;  // stale records skipped by the LSN guard
};

/// Phase (--crash): for each durable fault point, exec a child that dies
/// mid-operation, then recover its directory and assert the contract:
/// the incumbent survives bit-exactly (verdicts identical to the child's
/// own pre-crash baseline), the accounting identity holds, torn tails are
/// truncated, and already-folded journal records are never double-applied.
void crash_drills(const Trained& trained, std::size_t sim_events) {
  const Watchdog watchdog("crash", std::chrono::seconds(600));
  const DrillChildren children("crash");
  if (!check(children.ready(), "crash: no scratch dir or self path")) return;

  const CrashScenario scenarios[] = {
      // The explicit :91 exercises the spec grammar's exit-code field; the
      // others take the 137 default.
      {"wal-append-mid", "durable.wal.append.mid:exit:1:91", 91, true,
       false},
      {"snapshot-pre-rename", "durable.snapshot.pre_rename:exit:1", 137,
       false, false},
      {"checkpoint-pre-truncate", "durable.checkpoint.pre_truncate:exit:1",
       137, false, true},
  };
  for (const CrashScenario& sc : scenarios) {
    const std::string dir = children.dir(sc.name);
    const int status =
        children.run("--crash-child", dir, sc.spec, sim_events);
    // Only the armed kExit status is acceptable — anything else means the
    // child never reached the fault point (or failed before it).
    if (!check(WIFEXITED(status) && WEXITSTATUS(status) == sc.exit_status,
               "crash: child did not die at the fault point")) {
      std::fprintf(stderr, "  %s: wait status %d\n", sc.name, status);
      continue;
    }

    durable::DurableOptions dopts;
    dopts.dir = dir;
    durable::DurableStore store(dopts);
    const auto recovered = store.recover();
    if (!check(recovered.ok(), "crash: recovery failed")) {
      std::fprintf(stderr, "  %s: %s\n", sc.name,
                   recovered.status().to_string().c_str());
      continue;
    }
    check(recovered->snapshot_found, "crash: snapshot missing after drill");
    check(recovered->torn_tail == sc.expect_torn,
          "crash: torn-tail state not as the fault point dictates");
    if (sc.expect_skipped) {
      check(recovered->skipped > 0 && recovered->replayed == 0,
            "crash: LSN guard failed to skip already-folded records");
    }
    const durable::AccountingBaseline& a = recovered->accounting;
    check(a.ingested == a.processed + a.dropped + a.quarantined,
          "crash: recovered accounting identity broken");
    if (!check(recovered->detector != nullptr,
               "crash: incumbent lost across the restart")) {
      continue;
    }

    std::vector<int> expected;
    {
      std::ifstream in(dir + "/expected_labels.txt");
      int v = 0;
      while (in >> v) expected.push_back(v);
    }
    check(!expected.empty(), "crash: child wrote no baseline verdicts");
    check(recovered->detector->scan(trained.mixed).window_labels == expected,
          "crash: recovered verdicts differ from the uncrashed baseline");

    if (std::string_view(sc.name) == "snapshot-pre-rename") {
      // Warm-restart the full serving path from the recovered state: live
      // verdicts must match a sequential replay of the recovered model,
      // and the accounting identity must hold on top of the restored
      // baseline.
      if (!check(store.open().ok(), "crash: warm-restart reopen failed")) {
        continue;
      }
      serve::ServerOptions so;
      so.workers = 2;
      serve::DetectionServer server(so);
      server.registry().add("default", recovered->detector);
      online::OnlineOptions oo;
      oo.durable = &store;
      online::OnlineManager manager(&server, oo);
      manager.install();
      manager.restore(*recovered);
      std::mutex mu;
      std::vector<int> live;
      server.set_verdict_sink([&](const serve::VerdictRecord& v) {
        const std::lock_guard<std::mutex> lock(mu);
        live.push_back(v.label);
      });
      server.start();
      const auto probe_session = server.open_session({"restart", 1},
                                                     "default");
      if (!check(probe_session != nullptr,
                 "crash: warm-restart open_session failed")) {
        continue;
      }
      const std::size_t probe =
          std::min<std::size_t>(trained.mixed.events.size(), 2048);
      for (std::size_t i = 0; i < probe; ++i) {
        server.submit(probe_session, trained.mixed.events[i]);
      }
      server.drain();
      const std::vector<int> sequential =
          baseline_verdicts(*recovered->detector, trained.mixed, probe);
      {
        const std::lock_guard<std::mutex> lock(mu);
        check(live == sequential,
              "crash: warm-restarted serving verdicts diverged");
      }
      check_identity(server.metrics().snapshot(), "crash-warm-restart");
      server.stop();
      manager.stop();
    }

    std::printf("crash drill %-24s recovered: %zu pending, %llu replayed, "
                "%llu skipped, torn=%d, verdicts identical\n",
                sc.name, recovered->pending_windows.size(),
                static_cast<unsigned long long>(recovered->replayed),
                static_cast<unsigned long long>(recovered->skipped),
                recovered->torn_tail ? 1 : 0);
  }
}

// --- drift kill-restart drill (--crash) -----------------------------------

/// Canonical text form of a DriftStatus — the drift drill's equality
/// probe. %.17g round-trips doubles exactly, so two fingerprints compare
/// equal iff the monitor states (windows, sketch, KS result, counters)
/// are bit-identical.
std::string drift_fingerprint(const online::DriftStatus& d) {
  std::ostringstream os;
  char buf[256];
  os << "gen=" << d.generation << " observed=" << d.observed
     << " ref=" << d.reference_size << " frozen=" << d.reference_frozen
     << " live=" << d.live_size;
  std::snprintf(buf, sizeof buf, " ks=%.17g p=%.17g", d.ks_statistic,
                d.p_value);
  os << buf << " evals=" << d.evaluations << " triggers=" << d.triggers
     << " pending=" << d.trigger_pending;
  std::snprintf(buf, sizeof buf,
                " sketch=%llu/%.17g/%.17g/%.17g/%.17g/%.17g/%.17g",
                static_cast<unsigned long long>(d.sketch.count), d.sketch.sum,
                d.sketch.min, d.sketch.max, d.sketch.q50, d.sketch.q90,
                d.sketch.q99);
  os << buf;
  for (const online::GenerationMix& g : d.generations) {
    os << " mix=" << g.benign << "/" << g.malicious;
  }
  return os.str();
}

/// Shared configuration for the drift drill's children and the parent's
/// recovery continuation — the reference window is exactly one benign
/// replay, the live window exactly one malicious replay, and the volume
/// trigger is parked out of reach so drift is the only way to retrain.
online::OnlineOptions drift_drill_options(const Trained& trained,
                                          durable::DurableStore* store) {
  online::OnlineOptions oopts;
  oopts.accumulator.admit_floor = 0.0;
  oopts.retrain.min_new_events = 1u << 30;
  oopts.retrain.max_new_samples = 32;
  oopts.gates = {.max_disagreement = 1.0,
                 .max_latency_ratio = 1e9,
                 .min_windows = 2};
  oopts.drift.enabled = true;
  oopts.drift.reference_target =
      trained.detector->scan(trained.benign).window_labels.size();
  oopts.drift.live_window =
      trained.detector->scan(trained.malicious).window_labels.size();
  oopts.drift.min_live = std::min<std::size_t>(oopts.drift.live_window, 8);
  oopts.drift.p_threshold = 0.05;
  oopts.durable = store;
  return oopts;
}

/// Child process for the drift kill-restart drill (exec'd like
/// crash_child). Deterministic single-worker drive: a benign replay
/// freezes the generation-0 reference window, a malicious replay — the
/// distribution shift — fills the live window, and the next poll fires
/// the KS trigger. Mode "baseline" completes that poll uncrashed and
/// records the trigger LSN + monitor fingerprint; mode "crash" arms
/// online.drift.pre_trigger and dies between the journaled sample batch
/// and the trigger record.
int drift_child(const char* dir_c, const char* mode_c,
                std::size_t sim_events) {
  const std::string dir = dir_c;
  const bool crash = std::string_view(mode_c) == "crash";
  const Trained trained = train_detector(sim_events, 7);

  durable::DurableOptions dopts;
  dopts.dir = dir;
  dopts.checkpoint_every_appends = 1;  // checkpoint at every poll
  durable::DurableStore store(dopts);
  if (!store.open().ok()) return 2;

  serve::ServerOptions soptions;
  soptions.workers = 1;  // deterministic observation order
  serve::DetectionServer server(soptions);
  server.registry().add("default", trained.detector);

  const online::OnlineOptions oopts = drift_drill_options(trained, &store);
  if (oopts.drift.reference_target == 0 || oopts.drift.live_window == 0) {
    return 2;
  }
  online::OnlineManager manager(&server, oopts);
  manager.install();
  server.start();
  const auto session = server.open_session({"drift", 1}, "default");
  if (session == nullptr) return 2;

  for (const trace::PartitionedEvent& e : trained.benign.events) {
    server.submit(session, e);
  }
  server.drain();
  manager.poll_once();  // journals the reference batch, checkpoint folds it
  if (!manager.report().drift.reference_frozen) return 4;

  for (const trace::PartitionedEvent& e : trained.malicious.events) {
    server.submit(session, e);
  }
  server.drain();

  if (crash && !util::FaultInjector::instance().arm_from_spec(
                   "online.drift.pre_trigger:exit:1")) {
    return 2;
  }
  manager.poll_once();  // crash mode dies here, before the trigger record
  const online::OnlineReport report = manager.report();
  if (report.drift.triggers != 1 || report.last_drift_trigger_lsn == 0) {
    return 4;
  }
  {
    std::ofstream out(dir + "/drift_baseline.txt");
    out << report.last_drift_trigger_lsn << "\n"
        << drift_fingerprint(report.drift) << "\n";
  }
  manager.stop();
  server.stop();
  return 0;
}

/// Phase (--crash): kill-restart the drift monitor. A baseline child
/// runs the drive uncrashed and records where the KS trigger lands; a
/// second child dies at online.drift.pre_trigger — its journal holds the
/// drift samples but not the trigger. The parent recovers the crashed
/// directory, polls once, and the lost trigger must re-fire at the same
/// LSN with a monitor state identical to the uncrashed baseline.
void drift_crash_drill(const Trained& trained, std::size_t sim_events) {
  const Watchdog watchdog("drift-crash", std::chrono::seconds(600));
  const DrillChildren children("drift");
  if (!check(children.ready(), "drift-crash: no scratch dir or self path")) {
    return;
  }

  const std::string baseline_dir = children.dir("baseline");
  const int baseline_status =
      children.run("--drift-child", baseline_dir, "baseline", sim_events);
  if (!check(WIFEXITED(baseline_status) && WEXITSTATUS(baseline_status) == 0,
             "drift-crash: baseline child failed")) {
    std::fprintf(stderr, "  baseline: wait status %d\n", baseline_status);
    return;
  }
  std::uint64_t baseline_lsn = 0;
  std::string baseline_fp;
  {
    std::ifstream in(baseline_dir + "/drift_baseline.txt");
    in >> baseline_lsn;
    in.ignore();  // the newline before the fingerprint line
    std::getline(in, baseline_fp);
  }
  if (!check(baseline_lsn != 0 && !baseline_fp.empty(),
             "drift-crash: baseline child recorded nothing")) {
    return;
  }

  const std::string crash_dir = children.dir("crash");
  const int crash_status =
      children.run("--drift-child", crash_dir, "crash", sim_events);
  if (!check(WIFEXITED(crash_status) && WEXITSTATUS(crash_status) == 137,
             "drift-crash: child did not die at online.drift.pre_trigger")) {
    std::fprintf(stderr, "  crash: wait status %d\n", crash_status);
    return;
  }

  durable::DurableOptions dopts;
  dopts.dir = crash_dir;
  dopts.checkpoint_every_appends = 1;
  durable::DurableStore store(dopts);
  const auto recovered = store.recover();
  if (!check(recovered.ok(), "drift-crash: recovery failed")) {
    std::fprintf(stderr, "  %s\n", recovered.status().to_string().c_str());
    return;
  }
  check(!recovered->drift.empty(),
        "drift-crash: snapshot carried no DRIFT blob");
  check(!recovered->drift_ops.empty(),
        "drift-crash: journal replay produced no drift ops");
  if (!check(recovered->detector != nullptr,
             "drift-crash: incumbent lost across the restart") ||
      !check(store.open().ok(), "drift-crash: reopen failed")) {
    return;
  }

  serve::ServerOptions so;
  so.workers = 1;
  serve::DetectionServer server(so);
  server.registry().add("default", recovered->detector);
  online::OnlineManager manager(&server,
                                drift_drill_options(trained, &store));
  manager.install();
  manager.restore(*recovered);
  server.start();
  manager.poll_once();  // must re-evaluate and re-fire the lost trigger
  const online::OnlineReport r = manager.report();
  check(r.drift.triggers == 1,
        "drift-crash: recovered run did not re-fire the trigger");
  if (!check(r.last_drift_trigger_lsn == baseline_lsn,
             "drift-crash: re-fired trigger landed at a different LSN")) {
    std::fprintf(stderr, "  baseline lsn %llu, recovered lsn %llu\n",
                 static_cast<unsigned long long>(baseline_lsn),
                 static_cast<unsigned long long>(r.last_drift_trigger_lsn));
  }
  const std::string fp = drift_fingerprint(r.drift);
  if (!check(fp == baseline_fp,
             "drift-crash: recovered monitor state diverged from baseline")) {
    std::fprintf(stderr, "  baseline:  %s\n  recovered: %s\n",
                 baseline_fp.c_str(), fp.c_str());
  }
  server.stop();
  manager.stop();
  std::printf("drift crash drill: trigger re-fired at lsn %llu after "
              "kill-restart, monitor state identical\n",
              static_cast<unsigned long long>(r.last_drift_trigger_lsn));
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden child modes for the --crash drills (exec'd by crash_drills
  // and drift_crash_drill).
  if (argc == 5 && std::string_view(argv[1]) == "--crash-child") {
    return crash_child(argv[2], argv[3],
                       static_cast<std::size_t>(
                           std::strtoull(argv[4], nullptr, 10)));
  }
  if (argc == 5 && std::string_view(argv[1]) == "--drift-child") {
    return drift_child(argv[2], argv[3],
                       static_cast<std::size_t>(
                           std::strtoull(argv[4], nullptr, 10)));
  }
  cli::ArgParser args(argc, argv, kUsage);
  std::size_t seed = 2015;
  std::size_t events = 10000;
  std::size_t sessions = 8;
  double rate = 0.05;
  bool smoke = false;
  bool soak = false;
  bool rollover = false;
  bool crash = false;
  cli::ObsFlags obs_flags;
  args.option("--seed", &seed);
  args.option("--events", &events);
  args.option("--sessions", &sessions);
  args.option("--rate", &rate);
  args.flag("--smoke", &smoke);
  args.flag("--soak", &soak);
  args.flag("--rollover", &rollover);
  args.flag("--crash", &crash);
  obs_flags.add_to(args);
  args.parse(0, 0);
  obs_flags.activate();

  if (smoke) {
    events = std::min<std::size_t>(events, 2000);
    // --soak's whole point is the session count; never cap it.
    if (!soak) sessions = std::min<std::size_t>(sessions, 4);
  }
  if (sessions < 2) args.usage_error("%s must be >= 2", "--sessions");
  const std::size_t per_session = std::max<std::size_t>(1, events / sessions);

  try {
    util::FaultInjector::instance().set_seed(seed);

    std::printf("training detector (seed %zu)...\n", seed);
    const Trained trained = train_detector(smoke ? 900 : 1500, 7);

    if (soak) {
      // The soak replaces the replay phases: same binary, same detector,
      // but the subject under stress is the session fabric itself.
      soak_fabric(trained, sessions, smoke);
      obs_flags.finish();
      if (g_failures > 0) {
        std::fprintf(stderr, "leaps-chaos: %d violation(s)\n", g_failures);
        return 1;
      }
      std::printf("leaps-chaos: contract held (no crashes, no deadlocks, "
                  "accounting exact)\n");
      return 0;
    }

    const std::vector<int> baseline =
        baseline_verdicts(*trained.detector, trained.mixed, per_session);
    fault_replay(trained, sessions, per_session, rate, baseline);
    latency_chaos(trained, sessions, std::max<std::size_t>(per_session / 4,
                                                           std::size_t{64}));
    if (rollover) {
      rollover_chaos(trained, std::min<std::size_t>(sessions, 4),
                     std::max<std::size_t>(per_session / 4,
                                           std::size_t{128}));
    }
    if (crash) {
      crash_drills(trained, smoke ? 900 : 1500);
      drift_crash_drill(trained, smoke ? 900 : 1500);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leaps-chaos: FAIL: uncaught exception: %s\n",
                 e.what());
    ++g_failures;
  }

  obs_flags.finish();
  if (g_failures > 0) {
    std::fprintf(stderr, "leaps-chaos: %d violation(s)\n", g_failures);
    return 1;
  }
  std::printf("leaps-chaos: contract held (no crashes, no deadlocks, "
              "accounting exact)\n");
  return 0;
}
