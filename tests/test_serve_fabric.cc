// Fleet-scale session-fabric tests (the sharded/interned/slab-backed/
// batched serving hot path):
//
//   * TokenTable — exact round-trip interning (materialize ==
//     original, byte for byte), derived-set equality with
//     core::Preprocessor's recipes, and concurrent-intern determinism,
//   * SessionManager sharding — an open/close/find/evict/reports race
//     hammer across threads (run under -DLEAPS_SANITIZE=thread in CI),
//   * batched hand-off — windows assemble identically across any batch
//     split: coalesce=1 vs coalesce=7 vs a sequential Detector::Stream
//     produce byte-identical verdicts (decision values compared exactly),
//   * window taps — a worker's reused materialize scratch hands every tap
//     exactly the window's events, whatever the scratch held before,
//   * WeightedQueue — event-granular capacity/drop accounting, blocking
//     backpressure and close semantics,
//   * SlabPool — slot reuse, overflow fallback, gauges.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "detector_fixture.h"
#include "core/preprocess.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/slab.h"
#include "trace/intern.h"

namespace leaps::serve {
namespace {

using leaps::testing::TrainedDetector;
using leaps::testing::train_small_detector;

const TrainedDetector& fixture() {
  static const TrainedDetector* f =
      new TrainedDetector(train_small_detector());
  return *f;
}

bool same_event(const trace::PartitionedEvent& a,
                const trace::PartitionedEvent& b) {
  return a.seq == b.seq && a.tid == b.tid && a.type == b.type &&
         a.system_stack == b.system_stack && a.app_stack == b.app_stack;
}

// --- TokenTable -----------------------------------------------------------

TEST(TokenTable, RoundTripIsExact) {
  trace::TokenTable table;
  const auto& events = fixture().mixed.events;
  ASSERT_FALSE(events.empty());
  for (const trace::PartitionedEvent& e : events) {
    const trace::CompactEvent c = table.compact(e);
    const trace::PartitionedEvent back = table.materialize(c);
    ASSERT_TRUE(same_event(e, back))
        << "materialize() must reconstruct the event byte-identically";
  }
  const trace::TokenTable::Stats stats = table.stats();
  EXPECT_GT(stats.hits, 0u) << "a real log recycles stack shapes";
  EXPECT_GT(stats.interned, 0u);
}

TEST(TokenTable, HandlesEmptyStacksAndHostileNames) {
  trace::TokenTable table;
  trace::PartitionedEvent e;
  e.seq = 42;
  e.tid = 7;
  e.type = trace::EventType::kSysCallEnter;
  // Empty stacks are legal (partitioner output for stackless events).
  const trace::CompactEvent c0 = table.compact(e);
  EXPECT_TRUE(same_event(e, table.materialize(c0)));
  // '!' inside a module name must not collide with the module!function
  // separator in a *different* stack (ids key on the frame sequence, not
  // on the joined string, so no ambiguity is possible).
  trace::PartitionedEvent bang1 = e;
  bang1.system_stack.push_back({0x10, "lib!odd", "fn"});
  trace::PartitionedEvent bang2 = e;
  bang2.system_stack.push_back({0x10, "lib", "odd!fn"});
  const trace::CompactEvent c1 = table.compact(bang1);
  const trace::CompactEvent c2 = table.compact(bang2);
  EXPECT_NE(c1.sys_id, c2.sys_id);
  EXPECT_TRUE(same_event(bang1, table.materialize(c1)));
  EXPECT_TRUE(same_event(bang2, table.materialize(c2)));
}

TEST(TokenTable, DerivedSetsMatchPreprocessorRecipes) {
  trace::TokenTable table;
  for (const trace::PartitionedEvent& e : fixture().mixed.events) {
    const trace::CompactEvent c = table.compact(e);
    EXPECT_EQ(table.lib_set(c.lib_id), core::Preprocessor::lib_set(e))
        << "Lib recipe diverged from core::Preprocessor::lib_set";
    EXPECT_EQ(table.func_set(c.func_id), core::Preprocessor::func_set(e))
        << "Func recipe diverged from core::Preprocessor::func_set";
  }
}

TEST(TokenTable, MaterializeIntoOverwritesAPrefilledEvent) {
  trace::TokenTable table;
  const auto& events = fixture().mixed.events;
  trace::PartitionedEvent long_event = events.front();
  for (std::uint64_t k = 0; k < 16; ++k) {
    long_event.system_stack.push_back(
        {0x9000 + k, "a_module_name_past_the_small_string_buffer.dll",
         "AFunctionNamePastTheSmallStringBuffer" + std::to_string(k)});
    long_event.app_stack.push_back(0x400000 + k);
  }
  trace::PartitionedEvent short_event;
  short_event.seq = 3;
  short_event.tid = 9;
  short_event.type = trace::EventType::kFileRead;
  short_event.system_stack.push_back({0x10, "m", "f"});
  const trace::CompactEvent long_c = table.compact(long_event);
  const trace::CompactEvent short_c = table.compact(short_event);

  trace::PartitionedEvent out = long_event;
  table.materialize_into(short_c, out);
  EXPECT_EQ(out, table.materialize(short_c));
  EXPECT_EQ(out, short_event);
  table.materialize_into(long_c, out);
  EXPECT_EQ(out, table.materialize(long_c));
  EXPECT_EQ(out, long_event);

  // One reused event through a whole log, every stack length in turn.
  trace::PartitionedEvent reused = long_event;
  for (const trace::PartitionedEvent& e : events) {
    const trace::CompactEvent c = table.compact(e);
    table.materialize_into(c, reused);
    ASSERT_EQ(reused, table.materialize(c));
  }
}

TEST(SegmentedStore, RefusesAppendPastCapacityWithoutWriting) {
  using Store = trace::SegmentedStore<std::uint8_t>;
  constexpr std::size_t kCapacity = Store::kCapacity;
  auto store = std::make_unique<Store>();
  for (std::size_t i = 0; i < kCapacity; ++i) {
    store->append(static_cast<std::uint8_t>(i));
  }
  ASSERT_EQ(store->size(), kCapacity);
  EXPECT_THROW(store->append(0xAB), std::length_error);
  EXPECT_EQ(store->size(), kCapacity);
  EXPECT_EQ((*store)[kCapacity - 1], static_cast<std::uint8_t>(kCapacity - 1));
}

TEST(SegmentArray, LastIdResolvesAndFirstIdPastTheCapThrows) {
  // The geometry TupleCodec's id caches share with the TokenTable stores:
  // an id the table cannot mint must be refused, never indexed.
  using Array = trace::SegmentArray<std::uint8_t>;
  constexpr auto kLast = static_cast<std::uint32_t>(Array::kCapacity - 1);
  constexpr auto kPast = static_cast<std::uint32_t>(Array::kCapacity);
  auto slots = std::make_unique<Array>();
  EXPECT_EQ(slots->find(kLast), nullptr);
  slots->ensure(kLast) = 0x5A;
  ASSERT_NE(slots->find(kLast), nullptr);
  EXPECT_EQ(*slots->find(kLast), 0x5A);
  // Only the last segment was allocated.
  EXPECT_EQ(slots->find(kLast - Array::kSegSize), nullptr);
  EXPECT_EQ(slots->find(0), nullptr);

  EXPECT_THROW(slots->ensure(kPast), std::length_error);
  EXPECT_THROW(slots->ensure(0xFFFFFFFFu), std::length_error);
  EXPECT_EQ(slots->find(kPast), nullptr);
  EXPECT_EQ(*slots->find(kLast), 0x5A);
}

TEST(TokenTable, ConcurrentInterningIsDeterministic) {
  trace::TokenTable table;
  const auto& events = fixture().mixed.events;
  const std::size_t n = std::min<std::size_t>(events.size(), 512);
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<trace::CompactEvent>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(n);
      // Different threads walk in different orders: first-seen racing is
      // the point.
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = (t % 2 == 0) ? i : n - 1 - i;
        per_thread[t].push_back(table.compact(events[idx]));
      }
      if (t % 2 != 0) {
        std::reverse(per_thread[t].begin(), per_thread[t].end());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Every thread must have observed identical ids for identical events —
  // a racing double-intern handing out two ids for one token would make
  // downstream id-keyed caches diverge between workers.
  for (std::size_t t = 1; t < kThreads; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(per_thread[0][i].sys_id, per_thread[t][i].sys_id);
      EXPECT_EQ(per_thread[0][i].app_id, per_thread[t][i].app_id);
      EXPECT_EQ(per_thread[0][i].lib_id, per_thread[t][i].lib_id);
      EXPECT_EQ(per_thread[0][i].func_id, per_thread[t][i].func_id);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_event(events[i], table.materialize(per_thread[0][i])));
  }
}

// --- SessionManager sharding ----------------------------------------------

TEST(SessionManagerShards, PowerOfTwoRounding) {
  DetectorRegistry registry;
  registry.add("p", fixture().detector);
  EXPECT_EQ(SessionManager(&registry, 1).shard_count(), 1u);
  EXPECT_EQ(SessionManager(&registry, 3).shard_count(), 4u);
  EXPECT_EQ(SessionManager(&registry, 64).shard_count(), 64u);
  EXPECT_EQ(SessionManager(&registry, 65).shard_count(), 128u);
}

TEST(SessionManagerShards, OpenCloseFindSweepRaceHammer) {
  DetectorRegistry registry;
  registry.add("p", fixture().detector);
  SessionManager manager(&registry, 8);
  constexpr std::size_t kKeys = 64;
  constexpr int kRounds = 120;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> finds{0};

  std::vector<std::thread> threads;
  // Openers/closers churn overlapping key ranges across every shard.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t k = static_cast<std::size_t>(t); k < kKeys;
             k += 4) {
          const SessionKey key{"hammer", static_cast<std::uint32_t>(k)};
          ASSERT_NE(manager.open(key, "p"), nullptr);
          if ((r + t) % 3 == 0) manager.close(key);
        }
      }
    });
  }
  // Readers: find / reports / active against the churn.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          if (manager.find({"hammer", static_cast<std::uint32_t>(k)})) {
            finds.fetch_add(1, std::memory_order_relaxed);
          }
        }
        const std::vector<SessionReport> reports = manager.reports();
        // reports() promises key order even across shards.
        for (std::size_t i = 1; i < reports.size(); ++i) {
          ASSERT_LT(reports[i - 1].key, reports[i].key);
        }
        (void)manager.active();
      }
    });
  }
  // Sweeper: a future cutoff evicts everything (nothing ever feeds, so
  // every session is "idle") — open races must survive concurrent erasure.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)manager.evict_idle_sessions(std::chrono::steady_clock::now() +
                                        std::chrono::hours(1));
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < 4; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = 4; t < threads.size(); ++t) threads[t].join();
  EXPECT_GT(finds.load(), 0u);

  // Deterministic closing sweep: whatever survived is found and closed.
  std::size_t closed = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    closed += manager.close({"hammer", static_cast<std::uint32_t>(k)})
                      .has_value()
                  ? 1
                  : 0;
  }
  EXPECT_EQ(manager.active(), 0u);
  EXPECT_LE(closed, kKeys);
}

TEST(SessionManagerShards, ReportsAreKeyOrderedAcrossShards) {
  DetectorRegistry registry;
  registry.add("p", fixture().detector);
  SessionManager manager(&registry, 16);
  for (std::uint32_t pid = 0; pid < 40; ++pid) {
    ASSERT_NE(manager.open({"host-" + std::to_string(pid % 5), pid}, "p"),
              nullptr);
  }
  const std::vector<SessionReport> reports = manager.reports();
  ASSERT_EQ(reports.size(), 40u);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_LT(reports[i - 1].key, reports[i].key);
  }
}

// --- batched hand-off: window assembly across batch splits ----------------

std::map<std::size_t, std::vector<std::pair<std::size_t, double>>>
serve_verdicts(std::size_t coalesce, std::size_t sessions,
               std::size_t per_session) {
  const TrainedDetector& f = fixture();
  ServerOptions options;
  options.workers = 3;
  options.coalesce = coalesce;
  options.session_shards = 4;
  serve::DetectionServer server(options);
  server.registry().add("p", f.detector);

  std::mutex mu;
  std::map<std::size_t, std::vector<std::pair<std::size_t, double>>> got;
  server.set_verdict_sink([&](const VerdictRecord& v) {
    const std::lock_guard<std::mutex> lock(mu);
    got[v.key.pid].emplace_back(v.window_index, v.decision_value);
  });

  std::vector<std::shared_ptr<Session>> opened;
  for (std::size_t s = 0; s < sessions; ++s) {
    opened.push_back(server.open_session(
        {"batch", static_cast<std::uint32_t>(s)}, "p"));
  }
  server.start();
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < sessions; ++s) {
    producers.emplace_back([&, s] {
      const auto& events = f.mixed.events;
      for (std::size_t i = 0; i < per_session; ++i) {
        server.submit(opened[s], events[i % events.size()]);
      }
    });
  }
  for (std::thread& p : producers) p.join();
  server.drain();
  const MetricsSnapshot m = server.metrics().snapshot();
  EXPECT_EQ(m.events_ingested,
            m.events_processed + m.events_dropped + m.events_quarantined)
      << "coalesce=" << coalesce;
  server.stop();
  return got;
}

TEST(BatchedHandoff, WindowAssemblyIdenticalAcrossBatchSplits) {
  const TrainedDetector& f = fixture();
  constexpr std::size_t kSessions = 4;
  const std::size_t per_session = 40 * f.detector->preprocessor().window();

  // Sequential ground truth: one Detector::Stream per session.
  std::vector<std::pair<std::size_t, double>> expected;
  {
    core::Detector::Stream stream = f.detector->stream();
    std::size_t window_index = 0;
    for (std::size_t i = 0; i < per_session; ++i) {
      const auto& events = f.mixed.events;
      if (stream.push(events[i % events.size()]).has_value()) {
        expected.emplace_back(window_index++,
                              stream.last_decision_value());
      }
    }
  }
  ASSERT_FALSE(expected.empty());

  // coalesce=1 (per-event hand-off), a prime coalesce that never divides
  // the window size, and one larger than the worker drain batch.
  for (const std::size_t coalesce : {std::size_t{1}, std::size_t{7},
                                     std::size_t{160}}) {
    const auto got = serve_verdicts(coalesce, kSessions, per_session);
    ASSERT_EQ(got.size(), kSessions) << "coalesce=" << coalesce;
    for (const auto& [pid, verdicts] : got) {
      ASSERT_EQ(verdicts.size(), expected.size())
          << "coalesce=" << coalesce << " session " << pid;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(verdicts[i].first, expected[i].first);
        // Byte-identical decision values — the interned/batched path must
        // not perturb the math by even one ulp.
        EXPECT_EQ(verdicts[i].second, expected[i].second)
            << "coalesce=" << coalesce << " window " << i;
      }
    }
  }
}

// --- window taps: the worker's reused materialize scratch ----------------

/// `windows` windows of the fixture's mixed log whose stacks alternate
/// window by window: long (every frame plus 24 with long names, and 16
/// more app frames), then short (at most the innermost frame, no app
/// frames). A worker's scratch that held a long window is refilled with a
/// short one, so a frame or address left over from the long one shows.
std::vector<trace::PartitionedEvent> alternating_stack_log(
    std::size_t window, std::size_t windows) {
  const auto& events = fixture().mixed.events;
  std::vector<trace::PartitionedEvent> out;
  for (std::size_t i = 0; i < window * windows; ++i) {
    trace::PartitionedEvent e = events[i % events.size()];
    if ((i / window) % 2 == 0) {
      for (std::uint64_t k = 0; k < 24; ++k) {
        e.system_stack.push_back(
            {0x7000 + k,
             "padding_module_with_a_long_name_" + std::to_string(k) + ".dll",
             "PaddingFunctionWithALongName" + std::to_string(k)});
      }
      e.app_stack.resize(e.app_stack.size() + 16, 0x401234);
    } else {
      e.system_stack.resize(std::min<std::size_t>(e.system_stack.size(), 1));
      e.app_stack.clear();
    }
    out.push_back(std::move(e));
  }
  return out;
}

TEST(WindowTap, ReusedScratchCarriesNoStaleFrames) {
  const TrainedDetector& f = fixture();
  const std::size_t window = f.detector->preprocessor().window();
  constexpr std::size_t kWindows = 8;
  constexpr std::size_t kSessions = 6;
  const std::vector<trace::PartitionedEvent> log =
      alternating_stack_log(window, kWindows);
  trace::TokenTable& table = trace::TokenTable::global();
  std::vector<trace::PartitionedEvent> expected;
  for (const trace::PartitionedEvent& e : log) {
    expected.push_back(table.materialize(table.compact(e)));
    ASSERT_TRUE(same_event(expected.back(), e));
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t coalesce :
         {std::size_t{1}, std::size_t{7}, std::size_t{160}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " coalesce=" + std::to_string(coalesce));
      ServerOptions options;
      options.workers = workers;
      options.coalesce = coalesce;
      DetectionServer server(options);
      server.registry().add("p", f.detector);
      std::mutex mu;
      // pid -> window index -> the events the tap saw, copied in the call.
      std::map<std::uint32_t,
               std::map<std::size_t, std::vector<trace::PartitionedEvent>>>
          tapped;
      server.add_window_tap([&](const SessionKey& key, std::size_t index,
                                int, double,
                                const trace::PartitionedEvent* events,
                                std::size_t count) {
        const std::lock_guard<std::mutex> lock(mu);
        tapped[key.pid][index].assign(events, events + count);
      });
      std::vector<std::shared_ptr<Session>> sessions;
      for (std::uint32_t s = 0; s < kSessions; ++s) {
        sessions.push_back(server.open_session({"tap", s}, "p"));
        ASSERT_NE(sessions.back(), nullptr);
      }
      server.start();
      // Sessions interleave, so one worker's scratch passes between them.
      for (const trace::PartitionedEvent& e : log) {
        for (const auto& session : sessions) {
          ASSERT_TRUE(server.submit(session, e));
        }
      }
      server.drain();
      server.stop();

      ASSERT_EQ(tapped.size(), kSessions);
      for (const auto& [pid, windows] : tapped) {
        ASSERT_EQ(windows.size(), kWindows) << "session " << pid;
        for (const auto& [index, events] : windows) {
          ASSERT_LT(index, kWindows);
          ASSERT_EQ(events.size(), window) << "window " << index;
          for (std::size_t k = 0; k < window; ++k) {
            EXPECT_EQ(events[k], expected[index * window + k])
                << "session " << pid << " window " << index << " event "
                << k;
          }
        }
      }
    }
  }
}

// --- WeightedQueue --------------------------------------------------------

TEST(WeightedQueue, BlockPolicyDeliversEverythingInOrder) {
  WeightedQueue<int> q(2, OverflowPolicy::kBlock);
  constexpr int kItems = 500;
  std::size_t high_water = 0;
  std::size_t evicted_count = 0;
  std::thread producer([&] {
    std::vector<int> evicted;
    for (int i = 0; i < kItems; ++i) {
      std::size_t depth = 0;
      ASSERT_TRUE(q.push(i, 1, &evicted, &depth));
      high_water = std::max(high_water, depth);
    }
    evicted_count = evicted.size();
    q.close();
  });
  std::vector<int> got;
  while (q.pop_batch(got, 1) > 0) {
  }
  producer.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GE(high_water, 1u);
  EXPECT_LE(high_water, 2u);
  EXPECT_EQ(evicted_count, 0u);
}

TEST(WeightedQueue, CloseUnblocksProducersAndDrainsConsumers) {
  WeightedQueue<int> q(1, OverflowPolicy::kBlock);
  ASSERT_TRUE(q.push(1, 1));
  std::atomic<bool> blocked_push_returned{false};
  std::thread producer([&] {
    const bool ok = q.push(2, 1);  // blocks: queue is full
    EXPECT_FALSE(ok);              // woken by close, item discarded
    blocked_push_returned.store(true);
  });
  // Give the producer time to park on the condition variable.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(blocked_push_returned.load());
  q.close();
  producer.join();
  EXPECT_TRUE(blocked_push_returned.load());
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 1), 1u);  // still drains
  EXPECT_EQ(out, (std::vector<int>{1}));
  EXPECT_EQ(q.pop_batch(out, 1), 0u);
}

TEST(WeightedQueue, CapacityAndDropsAreInWeightUnits) {
  WeightedQueue<int> q(10, OverflowPolicy::kDropOldest);
  // `evicted` accumulates across pushes, so it records every drop so far.
  std::vector<int> evicted;
  std::size_t depth = 0;
  EXPECT_TRUE(q.push(1, 4, &evicted, &depth));
  EXPECT_EQ(depth, 4u);
  EXPECT_TRUE(q.push(2, 4, &evicted, &depth));
  EXPECT_EQ(depth, 8u);
  EXPECT_TRUE(q.push(3, 2, &evicted, &depth));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(depth, 10u);
  EXPECT_EQ(q.size(), 10u);
  // 4 more weight units: evicting item 1 (4 units) already makes room.
  EXPECT_TRUE(q.push(4, 4, &evicted, &depth));
  EXPECT_EQ(evicted, (std::vector<int>{1}));  // 4 units dropped
  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(depth, 10u);
  // 9 more: every queued item goes — freeing 4+2 is still not enough, so
  // the evictor keeps walking until the newcomer fits.
  EXPECT_TRUE(q.push(5, 9, &evicted, &depth));
  EXPECT_EQ(evicted, (std::vector<int>{1, 2, 3, 4}));  // 14 units dropped
  EXPECT_EQ(depth, 9u);
  EXPECT_EQ(q.size(), 9u);
}

TEST(WeightedQueue, OversizedItemAdmittedWhenEmpty) {
  WeightedQueue<int> q(4, OverflowPolicy::kBlock);
  // Heavier than the whole queue: admitted alone rather than deadlocking.
  EXPECT_TRUE(q.push(7, 100));
  EXPECT_EQ(q.size(), 100u);
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 1), 100u);
  EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(WeightedQueue, PopBatchTakesAtLeastOneAndStopsAtMaxWeight) {
  WeightedQueue<int> q(100, OverflowPolicy::kBlock);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i, 10));
  std::vector<int> out;
  // 25 units: items 0,1 fit (20), item 2 overshoots to 30 — the batch
  // takes it (last item may overshoot) and stops.
  EXPECT_EQ(q.pop_batch(out, 25), 30u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  out.clear();
  q.close();
  EXPECT_EQ(q.pop_batch(out, 1000), 20u);
  EXPECT_EQ(out, (std::vector<int>{3, 4}));
  EXPECT_EQ(q.pop_batch(out, 1000), 0u);  // closed and drained
}

// --- SlabPool ------------------------------------------------------------

TEST(SlabPool, ReusesSlotsAndPublishesGauges) {
  auto gauges = std::make_shared<SlabGauges>();
  SlabPool pool(4, gauges);
  void* a = pool.allocate(64, 8);
  void* b = pool.allocate(64, 8);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.chunk_count(), 1u);
  EXPECT_EQ(gauges->in_use.load(), 2);
  pool.deallocate(a, 64, 8);
  EXPECT_EQ(gauges->free.load(), 3);
  // A freed slot is handed out again before any chunk growth.
  void* c = pool.allocate(64, 8);
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.chunk_count(), 1u);
  pool.deallocate(b, 64, 8);
  pool.deallocate(c, 64, 8);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(gauges->in_use.load(), 0);
}

TEST(SlabPool, MismatchedSizeFallsBackToHeapWithCounter) {
  auto gauges = std::make_shared<SlabGauges>();
  SlabPool pool(4, gauges);
  void* a = pool.allocate(64, 8);  // fixes the slot size
  void* odd = pool.allocate(128, 8);
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(pool.overflow(), 1u);
  EXPECT_EQ(gauges->overflow.load(), 1);
  EXPECT_EQ(pool.in_use(), 1u);  // overflow blocks are not pool slots
  pool.deallocate(odd, 128, 8);  // classified by containment -> heap path
  pool.deallocate(a, 64, 8);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(SlabPool, GrowsByWholeChunks) {
  SlabPool pool(2);
  std::vector<void*> slots;
  for (int i = 0; i < 5; ++i) slots.push_back(pool.allocate(32, 8));
  EXPECT_EQ(pool.chunk_count(), 3u);  // ceil(5 / 2)
  const std::set<void*> unique(slots.begin(), slots.end());
  EXPECT_EQ(unique.size(), slots.size());
  for (void* p : slots) pool.deallocate(p, 32, 8);
  EXPECT_EQ(pool.free_slots(), 6u);
}

TEST(SlabAllocator, SessionsAllocateFromThePoolViaAllocateShared) {
  auto gauges = std::make_shared<SlabGauges>();
  DetectorRegistry registry;
  registry.add("p", fixture().detector);
  SessionManager manager(&registry, 4, gauges);
  std::vector<std::shared_ptr<Session>> held;
  for (std::uint32_t pid = 0; pid < 16; ++pid) {
    held.push_back(manager.open({"slab", pid}, "p"));
    ASSERT_NE(held.back(), nullptr);
  }
  EXPECT_EQ(gauges->in_use.load() +
                gauges->overflow.load(),
            16);
  for (std::uint32_t pid = 0; pid < 16; ++pid) manager.close({"slab", pid});
  held.clear();  // last refs drop -> slots return to the freelist
  EXPECT_EQ(gauges->in_use.load(), 0);
}

}  // namespace
}  // namespace leaps::serve
