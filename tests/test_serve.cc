// Concurrency tests for the serving layer (src/serve/): registry snapshot
// isolation, and — the load-bearing property — that a DetectionServer
// classifying many interleaved sessions on many workers produces exactly
// the verdicts a sequential Detector::Stream produces per session, even
// while faults are injected into other sessions (crash isolation, circuit
// breaker, idle eviction, shedding).
// Run under -DLEAPS_SANITIZE=thread in CI (ctest -L concurrency).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "detector_fixture.h"
#include "obs/registry.h"
#include "serve/audit.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "util/fault.h"

namespace leaps::serve {
namespace {

using leaps::testing::TrainedDetector;
using leaps::testing::train_small_detector;

const TrainedDetector& fixture() {
  static const TrainedDetector* f =
      new TrainedDetector(train_small_detector());
  return *f;
}

// --- DetectorRegistry -----------------------------------------------------

TEST(DetectorRegistry, ConcurrentReadersAndHotSwaps) {
  const TrainedDetector& f = fixture();
  DetectorRegistry registry;
  registry.add("app", f.detector);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto d = registry.find("app");
        ASSERT_NE(d, nullptr);
        reads.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    registry.add("app", f.detector);  // hot swap
  }
  // On a loaded single-core box the swaps can finish before any reader is
  // ever scheduled; don't stop until the readers have observed something.
  while (reads.load() == 0) std::this_thread::yield();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(DetectorRegistry, SessionsPinTheirSnapshotAcrossSwaps) {
  const TrainedDetector& f = fixture();
  DetectionServer server({.workers = 1});
  server.registry().add("app", f.detector);
  const auto session =
      server.open_session({"host", 1}, "app");
  ASSERT_NE(session, nullptr);
  // Swap in a different detector object; the open session is unaffected,
  // new sessions get the replacement.
  auto replacement = std::make_shared<const core::Detector>(*f.detector);
  server.registry().add("app", replacement);
  EXPECT_EQ(server.registry().find("app"), replacement);
  EXPECT_EQ(server.sessions().find({"host", 1}), session);
}

// --- DetectionServer ------------------------------------------------------

TEST(DetectionServer, RejectsUnknownProfileAndNullSession) {
  DetectionServer server({.workers = 1});
  EXPECT_EQ(server.open_session({"h", 1}, "no_such_profile"), nullptr);
  EXPECT_FALSE(server.submit({"h", 1}, trace::PartitionedEvent{}));
  EXPECT_EQ(server.metrics().snapshot().events_rejected, 1u);
}

TEST(DetectionServer, ParallelSessionsMatchSequentialStreams) {
  const TrainedDetector& f = fixture();
  constexpr std::size_t kSessions = 6;

  ServerOptions options;
  options.workers = 3;
  options.queue_capacity = 256;
  options.batch_size = 32;
  DetectionServer server(options);
  server.registry().add("app", f.detector);

  // Collect every verdict the workers emit, per session. The sink is
  // slow on purpose: it keeps workers inside their sink loops long enough
  // that a drain() returning before a run's last sink call is caught
  // below, not just possible.
  std::mutex verdict_mu;
  std::map<std::string, std::vector<std::pair<std::size_t, int>>> verdicts;
  server.set_verdict_sink([&](const VerdictRecord& v) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::lock_guard<std::mutex> lock(verdict_mu);
    verdicts[v.key.to_string()].emplace_back(v.window_index, v.label);
  });
  server.start();

  // Session s replays one of the three logs; producers run concurrently.
  const std::vector<const trace::PartitionedLog*> logs = {
      &f.benign, &f.mixed, &f.malicious};
  std::vector<std::shared_ptr<Session>> sessions;
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(server.open_session(
        {"host" + std::to_string(s), static_cast<std::uint32_t>(s)}, "app"));
    ASSERT_NE(sessions.back(), nullptr);
  }
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      for (const trace::PartitionedEvent& e : logs[s % logs.size()]->events) {
        ASSERT_TRUE(server.submit(sessions[s], e));
      }
    });
  }
  for (auto& p : producers) p.join();
  server.drain();

  // drain() returns on the accounting identity, which workers reach only
  // after a run's sink calls: before any close, every scored window's
  // verdict has already been delivered. Count the deliveries first, so a
  // worker still inside its sink loop shows up as a shortfall.
  std::size_t delivered = 0;
  {
    const std::lock_guard<std::mutex> lock(verdict_mu);
    for (const auto& [key, list] : verdicts) delivered += list.size();
  }
  const MetricsSnapshot m = server.metrics().snapshot();
  EXPECT_EQ(delivered, m.windows_scored);
  EXPECT_EQ(m.events_ingested,
            m.events_processed + m.events_dropped + m.events_quarantined);
  EXPECT_EQ(m.events_dropped, 0u);
  EXPECT_EQ(m.events_rejected, 0u);
  EXPECT_EQ(m.events_processed, m.events_ingested);

  // Every session's serving verdicts must equal a sequential stream's.
  for (std::size_t s = 0; s < kSessions; ++s) {
    const trace::PartitionedLog& log = *logs[s % logs.size()];
    core::Detector::Stream reference = f.detector->stream();
    std::vector<std::pair<std::size_t, int>> expected;
    for (const trace::PartitionedEvent& e : log.events) {
      if (const auto label = reference.push(e)) {
        expected.emplace_back(expected.size(), *label);
      }
    }
    const SessionKey key{"host" + std::to_string(s),
                         static_cast<std::uint32_t>(s)};
    const auto report = server.close_session(key);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->events_seen, log.events.size());
    EXPECT_EQ(report->windows, expected.size());
    EXPECT_EQ(report->benign_windows, reference.tally().benign_windows);
    EXPECT_EQ(report->malicious_windows,
              reference.tally().malicious_windows);
    const std::lock_guard<std::mutex> lock(verdict_mu);
    EXPECT_EQ(verdicts[key.to_string()], expected)
        << "session " << s << " diverged from the sequential stream";
  }
  server.stop();
}

TEST(DetectionServer, DropOldestSheddingIsCountedAndBounded) {
  const TrainedDetector& f = fixture();
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.overflow = OverflowPolicy::kDropOldest;
  DetectionServer server(options);
  server.registry().add("app", f.detector);
  const auto session = server.open_session({"h", 1}, "app");
  ASSERT_NE(session, nullptr);

  // Workers are not started yet: the queue must shed.
  constexpr std::size_t kEvents = 100;
  for (std::size_t i = 0; i < kEvents; ++i) {
    EXPECT_TRUE(server.submit(session, f.benign.events[i]));
  }
  server.start();
  server.drain();  // must terminate despite the shed events
  const MetricsSnapshot m = server.metrics().snapshot();
  EXPECT_EQ(m.events_ingested, kEvents);
  EXPECT_EQ(m.events_dropped, kEvents - options.queue_capacity);
  EXPECT_EQ(m.events_processed, options.queue_capacity);
  EXPECT_LE(m.queue_high_water, options.queue_capacity);
  server.stop();
}

TEST(DetectionServer, SubmitAfterStopIsRejected) {
  const TrainedDetector& f = fixture();
  DetectionServer server({.workers = 1});
  server.registry().add("app", f.detector);
  const auto session = server.open_session({"h", 1}, "app");
  server.start();
  server.stop();
  EXPECT_FALSE(server.submit(session, f.benign.events[0]));
  EXPECT_EQ(server.metrics().snapshot().events_rejected, 1u);
}

// --- Crash isolation / self-healing ---------------------------------------

/// The first `n` events of `log`, interned the way submit() interns them.
std::vector<trace::CompactEvent> compact(const trace::PartitionedLog& log,
                                         std::size_t n) {
  std::vector<trace::CompactEvent> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(trace::TokenTable::global().compact(log.events[i]));
  }
  return out;
}

void expect_accounting_identity(const MetricsSnapshot& m) {
  EXPECT_EQ(m.events_ingested,
            m.events_processed + m.events_dropped + m.events_quarantined);
}

TEST(SessionBreaker, ConsecutiveFailuresQuarantineMidRun) {
  const TrainedDetector& f = fixture();
  Session session({"h", 1}, "app", f.detector);
  const util::ScopedFault fault("serve.worker.classify",
                                {.action = util::FaultAction::kThrow});

  const std::vector<trace::CompactEvent> run = compact(f.benign, 5);
  std::vector<Verdict> verdicts;
  const RunOutcome o = session.feed_run(run, verdicts, /*breaker_threshold=*/3);
  // Events 1-3 fail (tripping the breaker at the third), 4-5 are skipped.
  EXPECT_EQ(o.processed, 0u);
  EXPECT_EQ(o.failed, 3u);
  EXPECT_EQ(o.skipped, 2u);
  EXPECT_TRUE(o.newly_quarantined);
  EXPECT_TRUE(session.quarantined());
  EXPECT_TRUE(verdicts.empty());

  const SessionReport report = session.report();
  EXPECT_TRUE(report.quarantined);
  EXPECT_EQ(report.failed_events, 3u);
}

TEST(SessionBreaker, SuccessResetsTheFailureStreak) {
  const TrainedDetector& f = fixture();
  Session session({"h", 1}, "app", f.detector);
  std::vector<Verdict> verdicts;

  // Two failures, then clean events, then two more failures: the streak
  // resets in between, so a threshold of 3 never trips.
  const std::vector<trace::CompactEvent> one = compact(f.benign, 1);
  {
    const util::ScopedFault fault("serve.worker.classify",
                                  {.action = util::FaultAction::kThrow});
    for (int i = 0; i < 2; ++i) {
      session.feed_run(one, verdicts, 3);
    }
  }
  session.feed_run(one, verdicts, 3);  // clean: resets the streak
  {
    const util::ScopedFault fault("serve.worker.classify",
                                  {.action = util::FaultAction::kThrow});
    for (int i = 0; i < 2; ++i) {
      session.feed_run(one, verdicts, 3);
    }
  }
  EXPECT_FALSE(session.quarantined());
  EXPECT_EQ(session.report().failed_events, 4u);

  // Threshold 0 disables the breaker entirely.
  const util::ScopedFault fault("serve.worker.classify",
                                {.action = util::FaultAction::kThrow});
  for (int i = 0; i < 10; ++i) session.feed_run(one, verdicts, 0);
  EXPECT_FALSE(session.quarantined());
}

TEST(DetectionServer, FaultQuarantinesOnlyTheAffectedSession) {
  const TrainedDetector& f = fixture();
  ServerOptions options;
  options.workers = 2;
  options.batch_size = 16;
  options.circuit_breaker = 1;
  DetectionServer server(options);
  server.registry().add("app", f.detector);

  std::mutex verdict_mu;
  std::map<std::string, std::vector<int>> verdicts;
  server.set_verdict_sink([&](const VerdictRecord& v) {
    const std::lock_guard<std::mutex> lock(verdict_mu);
    verdicts[v.key.to_string()].push_back(v.label);
  });

  const SessionKey victim_key{"victim", 1};
  const SessionKey steady_key{"steady", 2};
  const auto victim = server.open_session(victim_key, "app");
  const auto steady = server.open_session(steady_key, "app");
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(steady, nullptr);

  // Every event of the victim session throws; the steady session is
  // untouched (the filter matches the victim's "host:pid" key string).
  const util::ScopedFault fault(
      "serve.worker.classify",
      {.action = util::FaultAction::kThrow, .filter = "victim"});
  server.start();
  std::thread victim_producer([&] {
    for (const trace::PartitionedEvent& e : f.mixed.events) {
      server.submit(victim, e);
    }
  });
  std::thread steady_producer([&] {
    for (const trace::PartitionedEvent& e : f.mixed.events) {
      ASSERT_TRUE(server.submit(steady, e));
    }
  });
  victim_producer.join();
  steady_producer.join();
  server.drain();

  EXPECT_TRUE(victim->quarantined());
  EXPECT_FALSE(steady->quarantined());

  const MetricsSnapshot m = server.metrics().snapshot();
  expect_accounting_identity(m);
  EXPECT_EQ(m.sessions_quarantined, 1u);
  EXPECT_GE(m.events_failed, 1u);
  EXPECT_GE(m.events_quarantined, m.events_failed);

  // The steady session's verdicts match a fault-free sequential stream.
  core::Detector::Stream reference = f.detector->stream();
  std::vector<int> expected;
  for (const trace::PartitionedEvent& e : f.mixed.events) {
    if (const auto label = reference.push(e)) expected.push_back(*label);
  }
  {
    const std::lock_guard<std::mutex> lock(verdict_mu);
    EXPECT_EQ(verdicts[steady_key.to_string()], expected);
  }
  server.stop();
}

TEST(DetectionServer, QuarantinedSessionRejectsNewSubmits) {
  const TrainedDetector& f = fixture();
  DetectionServer server({.workers = 1});
  server.registry().add("app", f.detector);
  const auto session = server.open_session({"h", 1}, "app");
  ASSERT_NE(session, nullptr);
  session->quarantine();
  EXPECT_FALSE(server.submit(session, f.benign.events[0]));
  EXPECT_EQ(server.metrics().snapshot().events_rejected, 1u);
  EXPECT_EQ(server.metrics().snapshot().events_ingested, 0u);
}

TEST(DetectionServer, IdleSessionsAreEvictedByTheSweep) {
  const TrainedDetector& f = fixture();
  ServerOptions options;
  options.workers = 1;
  options.idle_ttl = std::chrono::milliseconds(40);
  options.sweep_interval = std::chrono::milliseconds(1000);  // manual sweeps
  DetectionServer server(options);
  server.registry().add("app", f.detector);

  const auto idle = server.open_session({"idle", 1}, "app");
  const auto busy = server.open_session({"busy", 2}, "app");
  ASSERT_NE(idle, nullptr);
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(server.sweep_idle_now(), 0u);  // both fresh

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::vector<Verdict> verdicts;
  busy->feed_run(compact(f.benign, 1), verdicts, 0);  // refreshes last_active
  EXPECT_EQ(server.sweep_idle_now(), 1u);  // only "idle" crossed the TTL
  EXPECT_EQ(server.sessions().active(), 1u);
  EXPECT_NE(server.sessions().find({"busy", 2}), nullptr);
  EXPECT_EQ(server.sessions().find({"idle", 1}), nullptr);
  EXPECT_EQ(server.metrics().snapshot().sessions_evicted, 1u);
}

TEST(DetectionServer, SweeperThreadEvictsWithoutManualCalls) {
  const TrainedDetector& f = fixture();
  ServerOptions options;
  options.workers = 1;
  options.idle_ttl = std::chrono::milliseconds(20);
  options.sweep_interval = std::chrono::milliseconds(5);
  DetectionServer server(options);
  server.registry().add("app", f.detector);
  server.start();
  ASSERT_NE(server.open_session({"h", 1}, "app"), nullptr);
  // Generous deadline: the sweeper runs every 5ms, the TTL is 20ms.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.sessions().active() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.sessions().active(), 0u);
  EXPECT_EQ(server.metrics().snapshot().sessions_evicted, 1u);
  server.stop();
}

TEST(DetectionServer, SheddingEngagesUnderInjectedLatency) {
  const TrainedDetector& f = fixture();
  ServerOptions options;
  options.workers = 1;
  options.batch_size = 8;
  options.queue_capacity = 8;
  options.shed_queue_wait_us = 100;
  DetectionServer server(options);
  server.registry().add("app", f.detector);
  const auto session = server.open_session({"slow", 1}, "app");
  ASSERT_NE(session, nullptr);

  // Every classification sleeps 1ms: with an 8-deep queue, queued events
  // wait >> 100us, so the shard must flip to shedding — and the blocked
  // kBlock producer must keep making progress by dropping oldest.
  const util::ScopedFault fault("serve.worker.classify",
                                {.action = util::FaultAction::kDelay,
                                 .delay = std::chrono::milliseconds(1)});
  server.start();
  for (std::size_t i = 0; i < 400; ++i) {
    server.submit(session, f.benign.events[i % f.benign.events.size()]);
  }
  server.drain();
  const MetricsSnapshot m = server.metrics().snapshot();
  expect_accounting_identity(m);
  EXPECT_GE(m.shed_activations, 1u);
  EXPECT_GE(m.events_shed, 1u);
  EXPECT_LE(m.events_shed, m.events_dropped);
  server.stop();
}

TEST(DetectionServer, EvictionRacingStopIsClean) {
  // Regression hammer for the sweeper-vs-stop() shutdown race: the idle
  // sweeper evicts sessions (taking session mutexes and touching the
  // session map) while stop() tears down the worker pool and the sweeper
  // itself. Tiny TTLs + immediate stop maximize the overlap; TSan (this
  // file runs under -DLEAPS_SANITIZE=thread in CI) turns any unsynchronized
  // access into a failure. Producers keep submitting through the teardown
  // on purpose — submits may fail once stopped, but must never race.
  const TrainedDetector& f = fixture();
  for (int round = 0; round < 20; ++round) {
    ServerOptions options;
    options.workers = 2;
    options.idle_ttl = std::chrono::milliseconds(1);
    options.sweep_interval = std::chrono::milliseconds(1);
    DetectionServer server(options);
    server.registry().add("app", f.detector);
    server.start();

    std::vector<std::shared_ptr<Session>> sessions;
    for (std::uint32_t s = 0; s < 4; ++s) {
      sessions.push_back(server.open_session({"race", s}, "app"));
      ASSERT_NE(sessions.back(), nullptr);
    }
    std::atomic<bool> halt{false};
    std::thread producer([&] {
      std::size_t i = 0;
      while (!halt.load(std::memory_order_relaxed)) {
        // Mix pinned-handle and by-key submits so both lookup paths race
        // the eviction; either may fail (evicted/stopped), never crash.
        server.submit(sessions[i % sessions.size()],
                      f.benign.events[i % f.benign.events.size()]);
        server.submit({"race", static_cast<std::uint32_t>(i % 4)},
                      f.benign.events[i % f.benign.events.size()]);
        ++i;
      }
    });
    // Let eviction and traffic overlap, then stop mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round % 3));
    server.stop();
    halt.store(true, std::memory_order_relaxed);
    producer.join();

    const MetricsSnapshot m = server.metrics().snapshot();
    expect_accounting_identity(m);
  }
}

// --- AuditLog (verdict provenance) ----------------------------------------

// Structural JSON check: balanced {}/[] outside string literals, one
// complete object, no trailing garbage. CI additionally pipes real audit
// output through `python -m json.tool`; this keeps the unit test
// dependency-free.
bool looks_like_one_json_object(const std::string& s) {
  if (s.empty() || s.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0) return i + 1 == s.size();
    }
  }
  return false;
}

TEST(AuditLog, FormatRecordExplainsTheVerdict) {
  // cfg_terms come from the ContinualState's benign CFG.
  static const TrainedDetector* trained = new TrainedDetector(
      train_small_detector("vim_reverse_tcp_online", 1200, 7));
  const TrainedDetector& f = *trained;
  // The explanation re-featurizes the events, so the slice must be exactly
  // one detector window — the same contract the server's tap honors.
  const std::size_t win = f.detector->preprocessor().window();
  ASSERT_GE(f.malicious.events.size(), win);
  const std::vector<trace::PartitionedEvent> events(
      f.malicious.events.begin(),
      f.malicious.events.begin() + static_cast<std::ptrdiff_t>(win));
  const SessionKey key{"web1", 4242};
  const std::string line = AuditLog::format_record(
      key, "default", 12, -1, -0.41, events, *f.detector, /*top_k=*/3);

  EXPECT_TRUE(looks_like_one_json_object(line)) << line;
  const std::string events_field = "\"events\":" + std::to_string(win);
  EXPECT_NE(line.find(events_field), std::string::npos) << line;
  for (const char* field :
       {"\"window\":12", "\"host\":\"web1\"", "\"pid\":4242",
        "\"profile\":\"default\"", "\"label\":-1",
        "\"decision_value\":-0.41", "\"threshold\":",
        "\"sv_contributions\":[", "\"sv\":", "\"coefficient\":",
        "\"kernel\":", "\"contribution\":", "\"cfg_terms\":[",
        "\"address\":\"0x"}) {
    EXPECT_NE(line.find(field), std::string::npos)
        << "missing " << field << " in:\n" << line;
  }
  // top_k bounds the explanation: at most 3 support vectors listed.
  std::size_t svs = 0;
  for (std::size_t pos = line.find("\"sv\":"); pos != std::string::npos;
       pos = line.find("\"sv\":", pos + 1)) {
    ++svs;
  }
  EXPECT_LE(svs, 3u);
  EXPECT_GE(svs, 1u);
}

TEST(AuditLog, WritesOneJsonLinePerAnomalousWindow) {
  const TrainedDetector& f = fixture();
  char tmpl[] = "/tmp/leaps-audit-XXXXXX";
  const int fd = mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string path = tmpl;

  {
    const std::size_t win = f.detector->preprocessor().window();
    AuditLog log(AuditOptions{path, /*queue_capacity=*/16, /*top_k=*/2});
    obs::MetricRegistry registry;
    const obs::MetricRegistry::Registration registration =
        log.register_with(registry);
    ASSERT_TRUE(log.start().ok());
    const SessionKey key{"db7", 99};
    for (std::size_t i = 0; i < 3; ++i) {
      log.submit(key, "default", i, -1, -0.5 - 0.1 * i,
                 f.malicious.events.data(), win, f.detector);
    }
    log.stop();
    EXPECT_EQ(log.written(), 3u);
    EXPECT_EQ(log.dropped(), 0u);
    // submit() after stop() drops, never blocks or crashes.
    log.submit(key, "default", 9, -1, -1.0, f.malicious.events.data(), win,
               f.detector);
    EXPECT_EQ(log.dropped(), 1u);
    // The registry samples read the log's own counts.
    std::map<std::string, std::uint64_t> samples;
    for (const obs::MetricSample& s : registry.collect()) {
      EXPECT_EQ(s.type, obs::MetricType::kCounter) << s.name;
      samples[s.name] = s.counter_value;
    }
    EXPECT_EQ(samples, (std::map<std::string, std::uint64_t>{
                           {"leaps_serve_audit_records_total", log.written()},
                           {"leaps_serve_audit_dropped_total",
                            log.dropped()}}));
  }

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(looks_like_one_json_object(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

/// The raw text of `"field":` in one audit record (strings unquoted).
std::string record_field(const std::string& line, const std::string& field) {
  const std::string tag = "\"" + field + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t begin = at + tag.size();
  std::size_t end = line.find_first_of(",}", begin);
  if (line[begin] == '"') end = line.find('"', ++begin);
  return line.substr(begin, end - begin);
}

TEST(AuditLog, ClosedSessionsAreAuditedWithTheirProfileAndDetector) {
  // Events queued before their session closed are scored after the close:
  // each anomalous window still gets one record, with the profile and the
  // detector of the session that scored it.
  const TrainedDetector& f = fixture();
  auto flag_all = std::make_shared<core::Detector>(*f.detector);
  flag_all->set_decision_threshold(1e18);
  for (const std::size_t workers : {1, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    char tmpl[] = "/tmp/leaps-audit-XXXXXX";
    const int fd = mkstemp(tmpl);
    ASSERT_GE(fd, 0);
    close(fd);
    const std::string path = tmpl;
    const std::map<std::string, std::shared_ptr<const core::Detector>>
        profiles = {{"a", f.detector}, {"b", flag_all}};
    // host -> window indices flagged by the server.
    std::map<std::string, std::vector<std::size_t>> flagged;
    {
      AuditLog audit(AuditOptions{path, /*queue_capacity=*/1 << 16,
                                  /*top_k=*/1});
      ASSERT_TRUE(audit.start().ok());
      DetectionServer server({.workers = workers});
      for (const auto& [name, detector] : profiles) {
        server.registry().add(name, detector);
      }
      std::mutex mu;
      server.set_verdict_sink([&](const VerdictRecord& v) {
        if (v.label != -1) return;
        const std::lock_guard<std::mutex> lock(mu);
        flagged[v.key.host].push_back(v.window_index);
      });
      server.add_window_tap(audit_tap(&audit));
      std::vector<SessionKey> keys;
      for (const auto& [name, _] : profiles) {
        keys.push_back({name, 7});
        const auto session = server.open_session(keys.back(), name);
        ASSERT_NE(session, nullptr);
        for (const trace::PartitionedEvent& e : f.malicious.events) {
          ASSERT_TRUE(server.submit(session, e));
        }
      }
      for (const SessionKey& key : keys) {
        ASSERT_TRUE(server.close_session(key).has_value());
      }
      server.start();
      server.drain();
      server.stop();
      audit.stop();
      EXPECT_EQ(audit.dropped(), 0u);
    }
    ASSERT_FALSE(flagged["a"].empty());
    ASSERT_FALSE(flagged["b"].empty());

    // host -> window indices audited.
    std::map<std::string, std::vector<std::size_t>> audited;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const std::string host = record_field(line, "host");
      ASSERT_EQ(profiles.count(host), 1u) << line;
      EXPECT_EQ(record_field(line, "profile"), host) << line;
      EXPECT_EQ(std::stod(record_field(line, "threshold")),
                profiles.at(host)->decision_threshold())
          << line;
      audited[host].push_back(
          static_cast<std::size_t>(std::stoul(record_field(line, "window"))));
    }
    for (auto& [host, windows] : flagged) {
      std::sort(windows.begin(), windows.end());
      std::sort(audited[host].begin(), audited[host].end());
      EXPECT_EQ(audited[host], windows) << "session " << host;
    }
    std::remove(path.c_str());
  }
}

TEST(AuditLog, FullQueueDropsInsteadOfBlocking) {
  const TrainedDetector& f = fixture();
  // Never started: the writer thread isn't draining, so every submit
  // falls through to the drop path immediately — the caller (a worker
  // thread holding the session mutex) must not stall.
  AuditLog log(AuditOptions{"/dev/null", /*queue_capacity=*/2, /*top_k=*/1});
  const SessionKey key{"h", 1};
  for (std::size_t i = 0; i < 5; ++i) {
    log.submit(key, "default", i, -1, -0.5, f.malicious.events.data(),
               f.detector->preprocessor().window(), f.detector);
  }
  EXPECT_EQ(log.written(), 0u);
  EXPECT_EQ(log.dropped(), 5u);
}

}  // namespace
}  // namespace leaps::serve
