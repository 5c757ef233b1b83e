// leaps_serve — replay raw logs as concurrent streaming sessions through
// the multi-tenant detection server (src/serve/).
//
// Each input log becomes an independent (host, pid) session; a producer
// thread per session feeds its events — optionally rate-limited, as a live
// tracer would deliver them — into the server's sharded bounded queues,
// where the fixed worker pool classifies windows online. Prints one
// verdict line per session plus a final metrics report.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attrib/matcher.h"
#include "attrib/signature.h"
#include "cli.h"
#include "core/persist.h"
#include "durable/store.h"
#include "ingest.h"
#include "online/manager.h"
#include "online/status.h"
#include "serve/audit.h"
#include "serve/server.h"
#include "trace/partition.h"
#include "util/fault.h"

namespace {

using namespace leaps;

constexpr const char* kUsage =
    "usage: leaps-serve <detector> <trace.log> [more.log ...]\n"
    "  replays logs as concurrent streaming sessions against the detection\n"
    "  server (the paper's Testing Phase at serving scale).\n"
    "  --detector NAME=PATH  register an extra profile (repeatable); a\n"
    "                        session whose process name matches a profile\n"
    "                        uses it, everything else uses <detector>\n"
    "  --sessions N          concurrent sessions (default: one per log;\n"
    "                        logs are reused round-robin when N > logs)\n"
    "  --workers N           worker threads (default 4)\n"
    "  --rate R              events/sec per session (0 = unthrottled)\n"
    "  --queue-capacity N    per-shard queue capacity (default 4096)\n"
    "  --policy P            backpressure: block | drop-oldest\n"
    "  --batch N             worker drain batch size (default 128)\n"
    "  --coalesce N          events staged per session before one queue\n"
    "                        hand-off (default 1 = per-event; raise to\n"
    "                        amortize queue contention at fleet scale)\n"
    "  --session-shards N    session-table shards (default 64, pow2)\n"
    "  --threshold F         flagged fraction per session that makes the\n"
    "                        overall verdict suspicious (default 0.25)\n"
    "  --metrics-every S     dump metrics to stderr every S seconds\n"
    "  --breaker N           consecutive failures that quarantine a\n"
    "                        session (default 3, 0 disables)\n"
    "  --idle-ttl-ms N       evict sessions idle longer than N ms (0 off)\n"
    "  --shed-wait-us N      shed load when queue-wait p99 exceeds N us\n"
    "                        (0 off)\n"
    "  --fault SPEC          arm a fault point (repeatable):\n"
    "                        point:action:probability[:delay_us|:exit_code],\n"
    "                        action = throw | error | delay\n"
    "  --fault-seed N        deterministic seed for fault injection\n"
    "  --online              continuous learning for the default profile:\n"
    "                        fold benign windows into the CFG, retrain with\n"
    "                        a warm-started solver, shadow + promote\n"
    "  --online-replays R    replay the session set R times (default 1);\n"
    "                        the online control loop steps between rounds,\n"
    "                        so R >= 3 exercises a full retrain -> shadow\n"
    "                        -> promote cycle deterministically\n"
    "  --retrain-events N    benign events that trigger a retrain\n"
    "                        (default 2048)\n"
    "  --durable DIR         crash-safe online state (requires --online):\n"
    "                        recover DIR on startup — the recovered\n"
    "                        incumbent replaces the detector file — then\n"
    "                        journal learnable windows and promotions and\n"
    "                        checkpoint atomically as the replay runs\n"
    "  --admit-floor F       CFG benignity below which a window is not\n"
    "                        learned from (default 0.25)\n"
    "  --shadow-min-windows N  verdict pairs before the rollover gates are\n"
    "                        consulted (default 64)\n"
    "  --shadow-max-disagree F max disagreement rate to promote\n"
    "                        (default 0.02)\n"
    "  --shadow-max-latency F  max shadow/active latency ratio to promote\n"
    "                        (default 3.0)\n"
    "  --drift               decision-value drift detection (requires\n"
    "                        --online): a two-sample KS test between the\n"
    "                        frozen reference window and the live window\n"
    "                        schedules a retrain when the distribution\n"
    "                        shifts\n"
    "  --drift-reference N   values that freeze the reference (default 256)\n"
    "  --drift-live N        live-window capacity (default 128)\n"
    "  --drift-min-live N    live values before the KS test runs\n"
    "                        (default 64)\n"
    "  --drift-p F           trigger when the KS p-value drops below F\n"
    "                        (default 0.01)\n"
    "  --attrib DIR          campaign attribution: load the *.sig library\n"
    "                        under DIR, collect flagged windows per\n"
    "                        session, and rank AttributionVerdicts (shown\n"
    "                        in the final report and --status-json)\n"
    "  --attrib-min-score F  hide verdicts scoring below F (default 0.2)\n"
    "  --audit-out FILE      verdict provenance: one JSONL record per\n"
    "                        anomalous window (decision value, top SV\n"
    "                        contributions, dominating CFG terms); '-' =\n"
    "                        stdout; drop-not-block under backpressure\n"
    "  --status-json FILE    atomically rewrite FILE with a live status\n"
    "                        snapshot (sessions, queues, drift, verdict\n"
    "                        mix) every --metrics-every seconds and on\n"
    "                        exit; `leaps-top FILE` renders it\n"
    "  --json                final metrics report as JSON\n"
    "  --verbose             print each malicious window as it is scored\n"
    "  --trace-out FILE      write a chrome://tracing span JSON\n"
    "  --profile             print per-stage timings to stderr\n"
    "  --metrics-out FILE    write the shared metric registry (serving +\n"
    "                        ingest counters); refreshed with\n"
    "                        --metrics-every, final on exit\n"
    "exit: 0 all sessions clean, 3 any suspicious, 1 error, 2 usage\n";

/// Feeds one session's events, pacing to `rate` events/sec when positive.
void replay(serve::DetectionServer& server,
            const std::shared_ptr<serve::Session>& session,
            const trace::PartitionedLog& log, double rate) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  for (const trace::PartitionedEvent& event : log.events) {
    if (rate > 0.0 && sent % 64 == 0) {
      const auto due =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(sent) / rate));
      std::this_thread::sleep_until(due);
    }
    server.submit(session, event);
    ++sent;
  }
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args(argc, argv, kUsage);
  std::vector<std::string> extra_detectors;
  std::size_t sessions = 0;
  serve::ServerOptions options;
  double rate = 0.0;
  std::string policy = "block";
  double threshold = 0.25;
  std::size_t metrics_every = 0;
  std::size_t idle_ttl_ms = 0;
  std::size_t shed_wait_us = 0;
  std::vector<std::string> fault_specs;
  std::size_t fault_seed = 0;
  bool json = false;
  bool verbose = false;
  bool online = false;
  std::size_t online_replays = 1;
  online::OnlineOptions online_options;
  double admit_floor = online_options.accumulator.admit_floor;
  cli::ObsFlags obs_flags;
  args.option_list("--detector", &extra_detectors);
  args.option("--sessions", &sessions);
  args.option("--workers", &options.workers);
  args.option("--rate", &rate);
  args.option("--queue-capacity", &options.queue_capacity);
  args.option("--policy", &policy);
  args.option("--batch", &options.batch_size);
  args.option("--coalesce", &options.coalesce);
  args.option("--session-shards", &options.session_shards);
  args.option("--threshold", &threshold);
  args.option("--metrics-every", &metrics_every);
  args.option("--breaker", &options.circuit_breaker);
  args.option("--idle-ttl-ms", &idle_ttl_ms);
  args.option("--shed-wait-us", &shed_wait_us);
  args.option_list("--fault", &fault_specs);
  args.option("--fault-seed", &fault_seed);
  args.flag("--online", &online);
  std::string durable_dir;
  args.option("--durable", &durable_dir);
  bool drift = false;
  args.flag("--drift", &drift);
  args.option("--drift-reference", &online_options.drift.reference_target);
  args.option("--drift-live", &online_options.drift.live_window);
  args.option("--drift-min-live", &online_options.drift.min_live);
  args.option("--drift-p", &online_options.drift.p_threshold);
  std::string audit_out;
  args.option("--audit-out", &audit_out);
  std::string attrib_dir;
  double attrib_min_score = 0.2;
  args.option("--attrib", &attrib_dir);
  args.option("--attrib-min-score", &attrib_min_score);
  std::string status_json;
  args.option("--status-json", &status_json);
  args.option("--online-replays", &online_replays);
  args.option("--retrain-events", &online_options.retrain.min_new_events);
  args.option("--admit-floor", &admit_floor);
  args.option("--shadow-min-windows", &online_options.gates.min_windows);
  args.option("--shadow-max-disagree",
              &online_options.gates.max_disagreement);
  args.option("--shadow-max-latency",
              &online_options.gates.max_latency_ratio);
  args.flag("--json", &json);
  args.flag("--verbose", &verbose);
  obs_flags.add_to(args);
  const std::vector<std::string> pos = args.parse(2);
  obs_flags.activate();

  const auto parsed_policy = serve::parse_overflow_policy(policy);
  if (!parsed_policy.has_value()) {
    args.usage_error("bad --policy '%s'", policy.c_str());
  }
  options.overflow = *parsed_policy;
  if (options.workers == 0) args.usage_error("%s must be >= 1", "--workers");
  if (options.coalesce == 0) args.usage_error("%s must be >= 1", "--coalesce");
  if (drift && !online) args.usage_error("%s requires --online", "--drift");
  constexpr std::size_t kMaxDriftWindow = online::DriftOptions::kMaxWindow;
  if (online_options.drift.reference_target > kMaxDriftWindow) {
    args.usage_error("%s must be <= 16777216", "--drift-reference");
  }
  if (online_options.drift.live_window > kMaxDriftWindow) {
    args.usage_error("%s must be <= 16777216", "--drift-live");
  }
  online_options.drift.enabled = drift;
  options.idle_ttl = std::chrono::milliseconds(idle_ttl_ms);
  options.shed_queue_wait_us = shed_wait_us;

  auto& injector = util::FaultInjector::instance();
  injector.set_seed(static_cast<std::uint64_t>(fault_seed));
  for (const std::string& spec : fault_specs) {
    if (!injector.arm_from_spec(spec)) {
      args.usage_error("bad --fault '%s'", spec.c_str());
    }
  }

  try {
    // The audit log outlives the server (workers hold a raw pointer into
    // it until stop()), so it is constructed first and stopped last.
    std::unique_ptr<serve::AuditLog> audit;
    obs::MetricRegistry::Registration audit_registration;
    if (!audit_out.empty()) {
      serve::AuditOptions aopts;
      aopts.path = audit_out;
      audit = std::make_unique<serve::AuditLog>(aopts);
      audit_registration = audit->register_with(obs::MetricRegistry::global());
      const util::Status started = audit->start();
      if (!started.ok()) {
        std::fprintf(stderr, "leaps-serve: --audit-out %s: %s\n",
                     audit_out.c_str(), started.to_string().c_str());
        return 1;
      }
    }
    serve::DetectionServer server(options);
    // One scrape surface: the server's counters join the ingest/pipeline
    // metrics already living in the global registry, so --metrics-out
    // carries both. Held for the server's lifetime.
    const obs::MetricRegistry::Registration metrics_registration =
        server.metrics().register_with(obs::MetricRegistry::global());
    // Crash-safe online state: recover the durable directory before the
    // registry is populated — a recovered incumbent (a promotion the
    // previous process made before dying) outranks the detector file.
    std::unique_ptr<durable::DurableStore> durable_store;
    std::optional<durable::RecoveredState> recovered;
    if (!durable_dir.empty()) {
      if (!online) args.usage_error("%s requires --online", "--durable");
      durable::DurableOptions dopts;
      dopts.dir = durable_dir;
      durable_store = std::make_unique<durable::DurableStore>(dopts);
      const util::Status opened = durable_store->open();
      if (!opened.ok()) {
        std::fprintf(stderr, "leaps-serve: --durable %s: %s\n",
                     durable_dir.c_str(), opened.to_string().c_str());
        return 1;
      }
      util::StatusOr<durable::RecoveredState> rec = durable_store->recover();
      if (!rec.ok()) {
        std::fprintf(stderr, "leaps-serve: --durable %s: %s\n",
                     durable_dir.c_str(), rec.status().to_string().c_str());
        return 1;
      }
      recovered = *std::move(rec);
      std::fprintf(stderr,
                   "durable: recovered %s (incumbent=%s, %zu pending "
                   "windows, replayed=%llu skipped=%llu%s)\n",
                   durable_dir.c_str(),
                   recovered->detector != nullptr ? "yes" : "no",
                   recovered->pending_windows.size(),
                   static_cast<unsigned long long>(recovered->replayed),
                   static_cast<unsigned long long>(recovered->skipped),
                   recovered->torn_tail ? ", torn tail truncated" : "");
    }
    if (recovered.has_value() && recovered->detector != nullptr) {
      server.registry().add("default", recovered->detector);
    } else {
      server.registry().load_file("default", pos[0]);
    }
    for (const std::string& spec : extra_detectors) {
      const auto eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        args.usage_error("bad --detector '%s' (want NAME=PATH)",
                         spec.c_str());
      }
      server.registry().load_file(spec.substr(0, eq), spec.substr(eq + 1));
    }

    // Parse each distinct log once; sessions share the parsed copies.
    std::map<std::string, std::shared_ptr<const trace::PartitionedLog>> logs;
    for (std::size_t i = 1; i < pos.size(); ++i) {
      if (logs.count(pos[i]) == 0) {
        logs[pos[i]] = std::make_shared<const trace::PartitionedLog>(
            cli::load_log_or_exit(args.tool(), pos[i]));
      }
    }
    const std::size_t log_count = pos.size() - 1;
    if (sessions == 0) sessions = log_count;

    if (verbose) {
      server.set_verdict_sink([](const serve::VerdictRecord& v) {
        if (v.label == -1) {
          std::printf("MALICIOUS window %zu in session %s\n", v.window_index,
                      v.key.to_string().c_str());
        }
      });
    }
    // Campaign attribution: the signature library loads up front, the
    // attributor joins the window stream as a window tap.
    std::unique_ptr<attrib::SignatureLibrary> signatures;
    std::unique_ptr<attrib::FleetAttributor> attributor;
    if (!attrib_dir.empty()) {
      signatures = std::make_unique<attrib::SignatureLibrary>();
      const util::Status loaded = signatures->load_dir(attrib_dir);
      if (!loaded.ok()) {
        std::fprintf(stderr, "leaps-serve: --attrib %s: %s\n",
                     attrib_dir.c_str(), loaded.to_string().c_str());
        return 1;
      }
      attributor = std::make_unique<attrib::FleetAttributor>(
          signatures.get(), attrib_min_score);
      attrib::FleetAttributor* a = attributor.get();
      server.add_window_tap(
          [a](const serve::SessionKey& key, std::size_t window_index,
              int label, double decision_value,
              const trace::PartitionedEvent* events, std::size_t count) {
            a->observe(key, window_index, label, decision_value, events,
                       count);
          });
    }
    // The online manager hooks the window tap, so it must exist before
    // start(). It is stepped deterministically between replay rounds
    // (poll_once).
    std::unique_ptr<online::OnlineManager> manager;
    obs::MetricRegistry::Registration online_registration;
    if (online) {
      online_options.profile = "default";
      online_options.accumulator.admit_floor = admit_floor;
      online_options.durable = durable_store.get();
      manager = std::make_unique<online::OnlineManager>(&server,
                                                        online_options);
      online_registration =
          manager->register_with(obs::MetricRegistry::global());
      manager->install();
      if (recovered.has_value()) manager->restore(*recovered);
    }
    if (audit != nullptr) {
      server.add_window_tap(serve::audit_tap(audit.get()));
    }
    server.start();

    const online::StatusInputs status_inputs{&server, manager.get(),
                                             audit.get(), attributor.get()};
    const auto refresh_status = [&status_json, &status_inputs] {
      if (status_json.empty()) return;
      const util::Status status =
          online::write_status_json(status_json, status_inputs);
      if (!status.ok()) {
        std::fprintf(stderr, "leaps-serve: --status-json %s: %s\n",
                     status_json.c_str(), status.to_string().c_str());
      }
    };
    refresh_status();  // an empty-but-valid document from second zero

    std::atomic<bool> done{false};
    std::thread metrics_thread;
    if (metrics_every > 0) {
      metrics_thread = std::thread(
          [&server, &done, metrics_every, &obs_flags, &refresh_status] {
            while (!done.load()) {
              std::this_thread::sleep_for(
                  std::chrono::seconds(metrics_every));
              if (done.load()) break;
              std::fprintf(stderr, "%s",
                           server.metrics().snapshot().to_text().c_str());
              obs_flags.write_metrics();  // keep --metrics-out fresh
              refresh_status();
            }
          });
    }

    // One producer per session; logs reused round-robin beyond log_count.
    struct Replay {
      serve::SessionKey key;
      std::string path;
      std::shared_ptr<const trace::PartitionedLog> log;
      std::shared_ptr<serve::Session> session;
    };
    std::vector<Replay> replays;
    replays.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) {
      Replay r;
      r.path = pos[1 + s % log_count];
      r.log = logs.at(r.path);
      r.key = serve::SessionKey{"replay-" + std::to_string(s),
                                static_cast<std::uint32_t>(1000 + s)};
      const std::string profile =
          server.registry().contains(r.log->process_name)
              ? r.log->process_name
              : "default";
      r.session = server.open_session(r.key, profile);
      replays.push_back(std::move(r));
    }

    const auto start = std::chrono::steady_clock::now();
    const std::size_t rounds = std::max<std::size_t>(1, online_replays);
    for (std::size_t round = 0; round < rounds; ++round) {
      std::vector<std::thread> producers;
      producers.reserve(replays.size());
      for (const Replay& r : replays) {
        producers.emplace_back([&server, &r, rate] {
          replay(server, r.session, *r.log, rate);
        });
      }
      for (std::thread& p : producers) p.join();
      server.drain();
      if (manager != nullptr) {
        // One control-loop step per drained round: round N's benign
        // windows trigger the retrain, round N+1's traffic feeds the
        // shadow comparison, and the step after that promotes or rolls
        // back — all without wall-clock dependence.
        manager->poll_once();
        if (verbose) {
          std::fprintf(stderr, "online round %zu: %s\n", round + 1,
                       manager->report().to_text().c_str());
        }
      }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    done.store(true);
    if (metrics_thread.joinable()) metrics_thread.join();

    int rc = 0;
    for (const Replay& r : replays) {
      const auto report = server.close_session(r.key);
      if (!report.has_value()) continue;
      const bool suspicious = report->malicious_fraction > threshold;
      if (suspicious) rc = 3;
      std::printf(
          "session %-12s %-28s profile=%s events=%zu windows=%zu "
          "malicious=%zu (%.1f%%) %s\n",
          report->key.to_string().c_str(), r.path.c_str(),
          report->profile.c_str(), report->events_seen, report->windows,
          report->malicious_windows, 100.0 * report->malicious_fraction,
          report->quarantined ? "QUARANTINED"
                              : (suspicious ? "SUSPICIOUS" : "clean"));
    }

    if (manager != nullptr) {
      // Concludes an in-flight shadow by its evidence so far (promote
      // only on a gate pass), so the final metrics and report reflect a
      // settled state.
      manager->stop();
      const online::OnlineReport orep = manager->report();
      std::printf("online: %s\n", orep.to_text().c_str());
      std::printf(
          "online: shadow compared=%llu disagreements=%llu (rate %.4f, "
          "latency ratio %.2f)\n",
          static_cast<unsigned long long>(orep.shadow.compared),
          static_cast<unsigned long long>(orep.shadow.disagreements),
          orep.shadow.disagreement_rate(), orep.shadow.latency_ratio());
      if (orep.drift.enabled) {
        std::printf(
            "online: drift observed=%llu p=%.6f ks=%.6f trigger-lsn=%llu\n",
            static_cast<unsigned long long>(orep.drift.observed),
            orep.drift.p_value, orep.drift.ks_statistic,
            static_cast<unsigned long long>(orep.last_drift_trigger_lsn));
      }
      if (!orep.last_error.empty()) {
        std::fprintf(stderr, "online: last error: %s\n",
                     orep.last_error.c_str());
      }
    }
    if (attributor != nullptr) {
      for (const auto& s : attributor->snapshot()) {
        for (const attrib::AttributionVerdict& v : s.verdicts) {
          std::printf(
              "AttributionVerdict session=%s signature=%s score=%.6f "
              "nodes=%zu/%zu edges=%zu/%zu windows=[%zu,%zu]\n",
              s.key.to_string().c_str(), v.signature.c_str(), v.score,
              v.nodes_matched, v.nodes_total, v.edges_satisfied,
              v.edges_total, v.first_window, v.last_window);
        }
      }
      std::printf("attribution: sessions=%zu flagged=%llu signatures=%zu\n",
                  attributor->sessions(),
                  static_cast<unsigned long long>(attributor->flagged_total()),
                  signatures->size());
    }
    if (audit != nullptr) {
      audit->stop();  // flush the queue before the summary line
      std::printf("audit: records=%llu dropped=%llu -> %s\n",
                  static_cast<unsigned long long>(audit->written()),
                  static_cast<unsigned long long>(audit->dropped()),
                  audit_out.c_str());
    }
    refresh_status();  // final settled snapshot
    const serve::MetricsSnapshot m = server.metrics().snapshot();
    obs_flags.finish();  // before stop(): the collector reads live metrics
    server.stop();
    if (json) {
      std::printf("%s\n", m.to_json().c_str());
    } else {
      std::printf("%s", m.to_text().c_str());
    }
    std::printf("replayed %llu events over %zu sessions in %.2fs "
                "(%.0f events/sec, %zu workers)\n",
                static_cast<unsigned long long>(m.events_processed),
                replays.size(), elapsed.count(),
                elapsed.count() > 0
                    ? static_cast<double>(m.events_processed) /
                          elapsed.count()
                    : 0.0,
                options.workers);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leaps-serve: %s\n", e.what());
    obs_flags.finish();
    return 1;
  }
}
