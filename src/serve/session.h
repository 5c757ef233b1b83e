// Streaming detection sessions, keyed by (host, pid).
//
// One Session wraps one core::Detector::Stream: the online Testing Phase
// for one monitored process on one host. The session pins a snapshot of
// its profile's detector at open time (hot-swapping the registry affects
// only sessions opened afterwards — a session must not change classifiers
// mid-stream, or its window verdicts become incomparable).
//
// Hot-path form: the worker path feeds trace::CompactEvent batches
// (interned at the ingest boundary, see trace/intern.h); strings never
// reach feed_run. Tapped windows are materialized — exactly — from the
// TokenTable only when a WindowTap is installed, into scratch the calling
// worker owns and reuses across every session it serves.
//
// Failure model: classification runs against adversarial event streams,
// so feed_run guards every event. An event that throws (poison input, an
// injected fault) counts as *failed* and bumps the session's
// consecutive-failure counter; when that reaches the circuit-breaker
// threshold the session flips to SessionState::kQuarantined and all its
// further events are discarded-with-accounting. One hostile session can
// never take down a worker — or another session — with it.
//
// Sessions are fed by exactly one worker at a time in the server (events
// are sharded by session key), but feed_run() still takes the session
// mutex so that reports() and direct submit paths are race-free under
// ThreadSanitizer.
//
// SessionManager is sharded: the key space is split across N
// independently-locked shards (power of two, key-hash selected), so
// open/find/close on different shards never contend — the fleet-scale
// fabric's first requirement. Session objects themselves come from a
// freelist-backed slab pool (serve/slab.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "serve/registry.h"
#include "serve/slab.h"
#include "trace/intern.h"
#include "trace/partition.h"

namespace leaps::serve {

struct SessionKey {
  std::string host;
  std::uint32_t pid = 0;

  auto operator<=>(const SessionKey&) const = default;
  std::string to_string() const { return host + ":" + std::to_string(pid); }
};

enum class SessionState {
  kActive,
  kQuarantined,  // circuit breaker tripped; events discarded, accounted
};

/// One completed-window classification.
struct Verdict {
  std::size_t window_index = 0;
  int label = 0;  // +1 benign / -1 malicious
  /// SVM decision value f(x); label is `f >= decision_threshold`. The raw
  /// model-health signal: drift monitoring and the audit stream key on it.
  double decision_value = 0.0;
};

/// Observes every *completed* window on the worker path, with the raw
/// events that formed it — the feed of the online-learning accumulator
/// and drift monitor (src/online/). Called under the session mutex from
/// worker threads: must be thread-safe, cheap, and must not throw or call
/// back into the session. `events` points at `count` events materialized
/// exactly from the interned form into the calling worker's scratch: they
/// are valid only for the call (the worker overwrites them with its next
/// tapped window, of any session), so a tap that keeps events copies them.
using WindowTap =
    std::function<void(const SessionKey& key, std::size_t window_index,
                       int label, double decision_value,
                       const trace::PartitionedEvent* events,
                       std::size_t count)>;

/// Receives one (active, shadow) verdict pair per window while a candidate
/// detector shadows a session, plus the accumulated per-window
/// classification cost of each model in nanoseconds. Same calling
/// constraints as WindowTap.
using ShadowSink = std::function<void(
    const SessionKey& key, int active_label, int shadow_label,
    std::uint64_t active_ns, std::uint64_t shadow_ns)>;

/// Per-event accounting for one guarded feed_run call.
/// processed + failed + skipped always equals the run length.
struct RunOutcome {
  std::size_t processed = 0;  // classified cleanly
  std::size_t failed = 0;     // threw; counted toward the circuit breaker
  std::size_t skipped = 0;    // discarded: session (already) quarantined
  bool newly_quarantined = false;  // this run tripped the breaker
};

struct SessionReport {
  SessionKey key;
  std::string profile;
  std::size_t events_seen = 0;
  std::size_t pending_events = 0;  // tail not yet forming a full window
  std::size_t windows = 0;
  std::size_t benign_windows = 0;
  std::size_t malicious_windows = 0;
  double malicious_fraction = 0.0;
  std::size_t failed_events = 0;
  bool quarantined = false;
};

class Session {
 public:
  Session(SessionKey key, std::string profile,
          std::shared_ptr<const core::Detector> detector);

  /// Feeds a run of interned events under one lock (the worker batch
  /// path, and the only way events reach a session), appending any
  /// completed-window verdicts to `out`. Every event is individually
  /// guarded: one that throws is counted as failed, and
  /// `breaker_threshold` consecutive failures quarantine the session
  /// (0 disables the breaker — failures never quarantine).
  /// `tap`, when non-null, observes every completed window (see WindowTap);
  /// the session buffers the window's events only while a tap is passed.
  /// A tapped call also passes `tap_scratch`, the caller's reusable buffer
  /// the window is materialized into (a worker passes the same one to
  /// every session it feeds, as it does `out`).
  RunOutcome feed_run(
      std::span<const trace::CompactEvent> events, std::vector<Verdict>& out,
      std::size_t breaker_threshold, const WindowTap* tap = nullptr,
      std::vector<trace::PartitionedEvent>* tap_scratch = nullptr);

  /// Attaches a candidate detector that classifies this session's traffic
  /// in parallel with the active one (shadow deploy). The shadow stream
  /// starts at the next window boundary so its verdicts stay
  /// window-for-window comparable with the active stream's; from then on
  /// every completed window reports an (active, shadow) verdict pair to
  /// `sink`. Returns false when a shadow is already attached. An event
  /// that makes the *shadow* throw detaches it (the active stream and the
  /// session are unaffected — a bad candidate must never hurt serving).
  bool attach_shadow(std::shared_ptr<const core::Detector> candidate,
                     std::shared_ptr<const ShadowSink> sink);
  /// Drops the shadow stream, if any. Returns true if one was attached.
  bool detach_shadow();

  SessionReport report() const;
  const SessionKey& key() const { return key_; }
  const std::string& profile() const { return profile_; }
  /// The detector snapshot pinned at open time (never changes; see class
  /// comment). The audit stream borrows it to explain this session's
  /// verdicts against the exact model that produced them.
  const std::shared_ptr<const core::Detector>& detector() const {
    return detector_;
  }
  /// Stable hash of the key — the server's shard selector.
  std::size_t shard_hash() const { return shard_hash_; }

  SessionState state() const {
    return state_.load(std::memory_order_acquire);
  }
  bool quarantined() const { return state() == SessionState::kQuarantined; }
  /// Manually trips the breaker (defensive path / operator action).
  void quarantine() {
    state_.store(SessionState::kQuarantined, std::memory_order_release);
  }

  /// Last time an event reached this session (feed_run), for idle
  /// eviction. Opening counts as activity.
  std::chrono::steady_clock::time_point last_active() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(
            last_active_.load(std::memory_order_acquire)));
  }

  /// The producer-side micro-batch stage (guarded by its own mutex so
  /// staging never contends with classification). submit() appends here
  /// and the server flushes a full stage into the shard queue as one
  /// EventBatch; see DetectionServer. Exposed as plain members for the
  /// server (same translation unit family), not for general use.
  std::mutex& stage_mutex() { return stage_mu_; }
  std::vector<trace::CompactEvent>& stage() { return stage_; }

 private:
  // Shadow-deploy state (guarded by mu_). The candidate's stream exists
  // from attach but only starts consuming events once `aligned` flips true
  // — at the first event that begins a fresh active window — so both
  // streams complete windows in lockstep.
  struct ShadowState {
    std::shared_ptr<const core::Detector> detector;
    core::Detector::Stream stream;
    std::shared_ptr<const ShadowSink> sink;
    bool aligned = false;
    std::uint64_t active_ns = 0;  // per-window classification cost
    std::uint64_t shadow_ns = 0;  // accumulators, reset on each pair

    ShadowState(std::shared_ptr<const core::Detector> d,
                std::shared_ptr<const ShadowSink> s)
        : detector(std::move(d)), stream(detector->stream()),
          sink(std::move(s)) {}
  };

  void touch() {
    last_active_.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_release);
  }

  const SessionKey key_;
  const std::string profile_;
  const std::string key_string_;  // cached key().to_string(), fault detail
  const std::size_t shard_hash_;
  const std::shared_ptr<const core::Detector> detector_;
  const trace::TokenTable* table_;  // interning domain of compact events
  std::atomic<SessionState> state_{SessionState::kActive};
  std::atomic<std::chrono::steady_clock::duration::rep> last_active_;
  mutable std::mutex mu_;
  core::Detector::Stream stream_;      // guarded by mu_
  std::size_t consecutive_failures_ = 0;  // guarded by mu_
  std::size_t failed_events_ = 0;         // guarded by mu_
  std::unique_ptr<ShadowState> shadow_;   // guarded by mu_
  // Window-event buffer for the tap; filled only on tapped feed_run calls,
  // and only with events since the last window boundary (guarded by mu_).
  std::vector<trace::CompactEvent> tap_buf_;
  // Producer-side micro-batch stage (guarded by stage_mu_, never by mu_).
  std::mutex stage_mu_;
  std::vector<trace::CompactEvent> stage_;
};

/// Owns the live sessions; thread-safe open/find/close. Sharded: the key
/// space is hash-split across independently-locked shards, so session
/// table operations scale with the worker count instead of serializing
/// on one map mutex. Iterating calls (reports, evict_idle_sessions,
/// sessions_for) lock one shard at a time.
class SessionManager {
 public:
  /// Shards are rounded up to a power of two (default 64). The registry
  /// must outlive the manager.
  explicit SessionManager(const DetectorRegistry* registry,
                          std::size_t shards = 64,
                          std::shared_ptr<SlabGauges> slab_gauges = nullptr);

  /// Opens a session for `key` classified by `profile`'s detector.
  /// Returns the existing session if one is already open for `key` (its
  /// profile wins); nullptr if the registry has no such profile.
  std::shared_ptr<Session> open(const SessionKey& key,
                                const std::string& profile);

  std::shared_ptr<Session> find(const SessionKey& key) const;

  /// Removes the session and returns its final report; nullopt if absent.
  /// The Session object itself lives until the last queued event referring
  /// to it has been processed (shared_ptr ownership).
  std::optional<SessionReport> close(const SessionKey& key);

  /// Removes every session idle since before `cutoff` and hands back the
  /// session objects (the TTL sweep) — the server needs the handles to
  /// flush staged events so none strand in an evicted session's stage.
  /// Queued events for an evicted session are still processed (the
  /// shared_ptr keeps it alive). Sweeps shard by shard; never holds more
  /// than one shard lock.
  std::vector<std::shared_ptr<Session>> evict_idle_sessions(
      std::chrono::steady_clock::time_point cutoff);

  std::size_t active() const;
  /// Reports for every live session, in key order.
  std::vector<SessionReport> reports() const;

  /// Snapshot of the live sessions serving `profile` (for shadow
  /// attach/detach sweeps; the shared_ptrs keep them valid lock-free).
  std::vector<std::shared_ptr<Session>> sessions_for(
      const std::string& profile) const;

  /// Every live session (for the server's stage flush); unordered.
  std::vector<std::shared_ptr<Session>> all() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<SessionKey, std::shared_ptr<Session>> sessions;
  };

  Shard& shard_for(const SessionKey& key) const;

  const DetectorRegistry* registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<SlabPool> pool_;  // session slots; outlives via allocator
};

}  // namespace leaps::serve
