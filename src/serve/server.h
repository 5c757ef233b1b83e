// DetectionServer: the concurrent multi-tenant serving front end.
//
//                    ┌────────────────────────────────────────────┐
//   producers ──────▶│ shard queues (bounded, backpressure) ──▶   │
//   submit(key, ev)  │   worker 0 … worker N−1 (fixed pool)       │──▶ verdict
//     [intern →      │   each drains its own queue in batches,    │    sink
//      stage →       │   groups runs by session, feeds Streams    │
//      batch]        └────────────────────────────────────────────┘
//        DetectorRegistry (profiles) · SessionManager ((host,pid) streams)
//        ServerMetrics (atomic counters + latency histograms)
//
// The fleet-scale fabric (see DESIGN.md §14):
//
//   * interning at the ingest boundary — submit() compacts the event
//     through the process-wide trace::TokenTable; only fixed-size
//     trace::CompactEvent values (ids, no strings) flow through queues
//     and workers,
//   * micro-batched hand-off — events stage per session and are pushed
//     to the shard queue as one EventBatch every `coalesce` events
//     (default 1: every event ships immediately, exactly the classic
//     per-event behavior), slashing queue contention at high coalesce,
//   * weighted queues — capacity/depth/drop accounting stay in EVENT
//     units regardless of batching, so `queue_capacity` means the same
//     thing at any coalesce,
//   * slab allocation — Session control blocks come from a freelist
//     slab pool (leaps_serve_slab_* gauges; see serve/slab.h); a batch
//     owns its event vector, which is freed with the batch.
//
// One set of books: the only counts on the submit() → worker path are the
// ServerMetrics counters. The shard queue keeps none of its own (push()
// hands back its evictions and depth), and drain() waits on the
// accounting identity below.
//
// Window consumers are taps (add_window_tap): each completed window goes,
// with the Session that scored it, to every registered tap in order. The
// online manager's rollover comparison (src/online/) is one of them;
// the server itself runs one stream per session and keeps no candidate
// state beyond the registry's staging slot.
//
// Sharding: every session is pinned to one shard queue by a hash of its
// key, so one session's events are consumed by one worker in FIFO order —
// per-session event order (which window semantics depend on) is preserved
// without any cross-worker coordination; parallelism comes from having
// many sessions. Queues are MPMC-capable; any number of producer threads
// may submit concurrently. The session table itself is sharded too
// (`session_shards` independently-locked map shards), so open/find/close
// never serialize on one mutex.
//
// Backpressure per ServerOptions::overflow: kBlock stalls producers when
// a shard queue fills (lossless replay), kDropOldest evicts the oldest
// queued events (bounded-latency live ingest); drops are counted in
// metrics. drain() first flushes every session's stage, then blocks until
// events_processed + events_dropped + events_quarantined reaches
// events_ingested. Workers retire a run only after its verdict-sink
// calls, so "replay N logs, drain, then read the tallies and verdicts"
// is deterministic.
//
// Failure model — the server self-heals around hostile sessions instead
// of crashing with them:
//
//   * crash isolation: every event is fed under a per-event guard inside
//     Session::feed_run; an event that throws is counted (events_failed,
//     events_quarantined) and classification continues,
//   * circuit breaker: `circuit_breaker` consecutive failures flip the
//     session to SessionState::kQuarantined; its remaining events are
//     discarded-with-accounting and new submits are rejected,
//   * idle eviction: a background sweep (every `sweep_interval`, when
//     `idle_ttl` > 0) closes sessions with no recent activity (staged
//     events are flushed first, never stranded),
//   * overload shedding: when a batch's queue-wait p99 exceeds
//     `shed_queue_wait_us`, the shard flips to drop-with-accounting
//     (kBlock producers stop stalling) until the wait recovers to
//     below half the threshold (hysteresis).
//
// Accounting identity, exact after drain():
//   events_ingested == events_processed + events_dropped
//                      + events_quarantined
// Staged events count as ingested the moment submit() accepts them; a
// stage flushed into a closing queue retires its events as dropped, so
// the identity survives shutdown races.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.h"
#include "serve/queue.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "trace/intern.h"

namespace leaps::serve {

struct ServerOptions {
  /// Fixed worker-pool size (= shard-queue count).
  std::size_t workers = 4;
  /// Per-shard queue capacity, in EVENTS (not batches).
  std::size_t queue_capacity = 4096;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Max events a worker drains per wakeup.
  std::size_t batch_size = 128;
  /// Events staged per session before the stage ships to the shard queue
  /// as one batch. 1 (the default) hands every event off immediately —
  /// byte-for-byte the classic behavior; raise it (e.g. 32) to amortize
  /// queue contention under fleet-scale ingest. Verdicts are identical at
  /// any setting; only hand-off granularity changes. drain(), stop(),
  /// close_session() and the idle sweep all flush partial stages.
  std::size_t coalesce = 1;
  /// Session-table shards (rounded up to a power of two).
  std::size_t session_shards = 64;
  /// Consecutive per-session classification failures that quarantine the
  /// session. 0 disables the breaker (failures are counted, never fatal).
  std::size_t circuit_breaker = 3;
  /// Sessions idle longer than this are evicted by the background sweep;
  /// zero disables eviction (and the sweeper thread).
  std::chrono::milliseconds idle_ttl{0};
  /// How often the idle sweep runs (only when idle_ttl > 0).
  std::chrono::milliseconds sweep_interval{250};
  /// Queue-wait p99 (µs, per drained batch) above which the shard sheds
  /// load. 0 disables shedding.
  std::uint64_t shed_queue_wait_us = 0;
};

/// Called from worker threads for every completed window; must be
/// thread-safe and must not throw. Keep it cheap — it runs on the
/// classification path.
struct VerdictRecord {
  SessionKey key;
  std::size_t window_index;
  int label;  // +1 benign / -1 malicious
  double decision_value = 0.0;  // SVM f(x); label is f >= threshold
};
using VerdictSink = std::function<void(const VerdictRecord&)>;

class DetectionServer {
 public:
  explicit DetectionServer(ServerOptions options = {});
  ~DetectionServer();

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  DetectorRegistry& registry() { return registry_; }
  const DetectorRegistry& registry() const { return registry_; }
  SessionManager& sessions() { return sessions_; }
  const SessionManager& sessions() const { return sessions_; }
  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }
  const ServerOptions& options() const { return options_; }

  /// Install before start(); called from workers for every verdict.
  void set_verdict_sink(VerdictSink sink);

  /// Install before start(); `tap` observes every completed window on the
  /// worker path with its raw events and the session that scored it (see
  /// SessionWindowTap). Taps run in registration order. This is the one
  /// hook for window consumers: the online learner
  /// (OnlineManager::install), the attribution matcher and the audit log
  /// (audit_tap) all join the window stream through it. Each tapped
  /// window's tap calls, together, are one sample of the window_tap
  /// latency histogram.
  void add_window_tap(SessionWindowTap tap);
  /// The key-only form: adapted to a SessionWindowTap that passes the
  /// session's key().
  void add_window_tap(WindowTap tap);

  /// Spawns the worker pool (and the idle sweeper when idle_ttl > 0).
  /// Events submitted before start() sit in the shard queues and are
  /// drained once workers come up.
  void start();

  /// Flushes staged events, closes the queues, drains what remains,
  /// joins the workers. Idempotent; the destructor calls it.
  void stop();

  /// Flushes every session's stage, then blocks until the accounting
  /// identity holds: every accepted event has been processed, dropped or
  /// quarantined, and every verdict of a processed event has reached the
  /// sink. Only meaningful while the server is started (otherwise nothing
  /// drains).
  void drain();

  /// Opens (or returns the already-open) session for `key` served by
  /// `profile`'s detector; nullptr if the profile is not registered.
  std::shared_ptr<Session> open_session(const SessionKey& key,
                                        const std::string& profile);

  /// Final report for the session; nullopt if it was never opened. Call
  /// after drain() for complete tallies — events still queued for a
  /// closed session are processed (the session lives on), but the
  /// report is taken at close time.
  std::optional<SessionReport> close_session(const SessionKey& key);

  /// Runs one idle-eviction sweep immediately (what the background
  /// sweeper does every sweep_interval); returns the number evicted.
  /// No-op (returns 0) when idle_ttl is zero.
  std::size_t sweep_idle_now();

  /// Enqueues one event for the session: interns it, stages it, and —
  /// at every `coalesce`-th staged event — ships the stage to the
  /// session's shard queue as one batch. Returns false — and counts the
  /// event as rejected — when the session handle is null or quarantined,
  /// the server has been stopped, or the token table is full. Under
  /// kDropOldest (or a shedding shard) *older* queued events may be
  /// evicted (counted as dropped, and as shed while shedding) to admit
  /// this one's batch.
  bool submit(const std::shared_ptr<Session>& session,
              trace::PartitionedEvent event);

  /// Convenience: looks the session up by key, then submits.
  bool submit(const SessionKey& key, trace::PartitionedEvent event);

 private:
  /// One hand-off unit: a run of same-session events. Queue weight =
  /// events.size().
  struct EventBatch {
    std::shared_ptr<Session> session;
    std::vector<trace::CompactEvent> events;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop(std::size_t shard);
  void sweeper_loop();
  /// Wakes drain() after a retire.
  void note_completed();
  /// Ships `session`'s stage (if non-empty) to its shard queue; caller
  /// must hold the session's stage mutex.
  void flush_locked(const std::shared_ptr<Session>& session);
  /// Locks the stage mutex, then flush_locked.
  void flush_staged(const std::shared_ptr<Session>& session);
  /// flush_staged for every live session (drain()/stop()/sweeper).
  void flush_all_stages();
  /// Retires a batch that will never reach a worker (evicted or pushed
  /// into a closed queue): counts `n` dropped (+shed), wakes drain().
  void retire_dropped(std::size_t n, bool shed);

  const ServerOptions options_;
  DetectorRegistry registry_;
  // metrics_ precedes sessions_: it captures metrics_' gauge block.
  ServerMetrics metrics_;
  SessionManager sessions_{&registry_, options_.session_shards,
                           metrics_.session_slabs};
  VerdictSink sink_;
  std::vector<SessionWindowTap> taps_;  // added before start(), read-only
  // taps_ as the one callable feed_run takes, built at start(): a fold
  // over all of them that records the call's latency in
  // metrics_.window_tap. Empty when no tap is added, so sessions skip
  // buffering window events nobody reads (and the clock is never read).
  SessionWindowTap window_tap_;
  std::vector<std::unique_ptr<WeightedQueue<EventBatch>>> shards_;
  std::vector<std::thread> workers_;
  std::thread sweeper_;
  bool started_ = false;  // guarded by lifecycle_mu_
  bool stopped_ = false;  // guarded by lifecycle_mu_; stop is terminal
  std::mutex lifecycle_mu_;
  // Raised (seq_cst) at the top of stop(), before the final stage flush.
  // submit() checks it before staging AND re-checks after: either the
  // closing flush sees a staged event, or the submitter sees closing_ and
  // self-flushes — no event can strand in a stage across shutdown.
  std::atomic<bool> closing_{false};

  // Sweeper wakeup/shutdown handshake.
  std::mutex sweep_mu_;
  std::condition_variable sweep_cv_;
  bool sweep_stop_ = false;  // guarded by sweep_mu_

  // drain() waits on the accounting identity in metrics_.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace leaps::serve
