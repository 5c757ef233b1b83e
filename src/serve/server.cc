#include "serve/server.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "obs/trace.h"
#include "util/check.h"

namespace leaps::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;
// The four accounting-identity counters are bumped with release and read
// with acquire: drain() waits on the identity itself.
constexpr auto kRelease = std::memory_order_release;
constexpr auto kAcquire = std::memory_order_acquire;

/// p99 (upper-rank) of a small scratch vector; mutates `waits_us`.
std::uint64_t batch_p99_us(std::vector<std::uint64_t>& waits_us) {
  if (waits_us.empty()) return 0;
  const std::size_t rank =
      static_cast<std::size_t>(0.99 * static_cast<double>(waits_us.size()));
  const std::size_t idx = std::min(rank, waits_us.size() - 1);
  std::nth_element(waits_us.begin(),
                   waits_us.begin() + static_cast<std::ptrdiff_t>(idx),
                   waits_us.end());
  return waits_us[idx];
}

}  // namespace

DetectionServer::DetectionServer(ServerOptions options) : options_(options) {
  LEAPS_CHECK_MSG(options_.workers >= 1, "server needs at least one worker");
  LEAPS_CHECK_MSG(options_.batch_size >= 1, "batch size must be >= 1");
  LEAPS_CHECK_MSG(options_.coalesce >= 1, "coalesce must be >= 1");
  shards_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    shards_.push_back(std::make_unique<WeightedQueue<EventBatch>>(
        options_.queue_capacity, options_.overflow));
  }
}

DetectionServer::~DetectionServer() { stop(); }

void DetectionServer::set_verdict_sink(VerdictSink sink) {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  LEAPS_CHECK_MSG(!started_, "set the verdict sink before start()");
  sink_ = std::move(sink);
}

void DetectionServer::add_window_tap(SessionWindowTap tap) {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  LEAPS_CHECK_MSG(!started_, "add window taps before start()");
  LEAPS_CHECK_MSG(tap, "add_window_tap needs a callable tap");
  taps_.push_back(std::move(tap));
}

void DetectionServer::add_window_tap(WindowTap tap) {
  LEAPS_CHECK_MSG(tap, "add_window_tap needs a callable tap");
  add_window_tap(SessionWindowTap(
      [tap = std::move(tap)](const Session& session, std::size_t window_index,
                             int label, double decision_value,
                             const trace::PartitionedEvent* events,
                             std::size_t count) {
        tap(session.key(), window_index, label, decision_value, events,
            count);
      }));
}

void DetectionServer::start() {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return;
  LEAPS_CHECK_MSG(!stopped_, "a stopped server cannot be restarted");
  if (!taps_.empty()) {
    window_tap_ = [this](const Session& session, std::size_t window_index,
                         int label, double decision_value,
                         const trace::PartitionedEvent* events,
                         std::size_t count) {
      const auto t0 = std::chrono::steady_clock::now();
      for (const SessionWindowTap& tap : taps_) {
        tap(session, window_index, label, decision_value, events, count);
      }
      metrics_.window_tap.record(std::chrono::steady_clock::now() - t0);
    };
  }
  started_ = true;
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  if (options_.idle_ttl.count() > 0) {
    sweeper_ = std::thread([this] { sweeper_loop(); });
  }
}

void DetectionServer::stop() {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  stopped_ = true;
  // Fence new submits, then flush what already staged: any submit that
  // misses this store re-checks closing_ after staging and self-flushes
  // (see the closing_ comment in the header), so no event strands.
  closing_.store(true, std::memory_order_seq_cst);
  // Sweeper first: it must not race session eviction against shutdown.
  {
    const std::lock_guard<std::mutex> sweep_lock(sweep_mu_);
    sweep_stop_ = true;
  }
  sweep_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
  flush_all_stages();  // queues still open; workers still draining
  for (const auto& shard : shards_) shard->close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  started_ = false;
}

void DetectionServer::drain() {
  // Ship partial stages first, or their events would never retire and
  // this wait could not terminate.
  flush_all_stages();
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    // Retired before ingested: every event retires after it is ingested,
    // so a retired total read first that reaches the ingested total read
    // second means nothing ingested by then is still in flight.
    const std::uint64_t retired = metrics_.events_processed.load(kAcquire) +
                                  metrics_.events_dropped.load(kAcquire) +
                                  metrics_.events_quarantined.load(kAcquire);
    return retired >= metrics_.events_ingested.load(kAcquire);
  });
}

std::shared_ptr<Session> DetectionServer::open_session(
    const SessionKey& key, const std::string& profile) {
  std::shared_ptr<Session> session = sessions_.open(key, profile);
  if (session != nullptr) metrics_.sessions_opened.fetch_add(1, kRelaxed);
  return session;
}

std::optional<SessionReport> DetectionServer::close_session(
    const SessionKey& key) {
  // Hold the handle across close so any staged events can still ship
  // (they are already counted ingested and must retire).
  const std::shared_ptr<Session> session = sessions_.find(key);
  std::optional<SessionReport> report = sessions_.close(key);
  if (report.has_value()) {
    metrics_.sessions_closed.fetch_add(1, kRelaxed);
    if (session != nullptr) flush_staged(session);
  }
  return report;
}

std::size_t DetectionServer::sweep_idle_now() {
  if (options_.idle_ttl.count() == 0) return 0;
  const auto cutoff = std::chrono::steady_clock::now() - options_.idle_ttl;
  const std::vector<std::shared_ptr<Session>> evicted =
      sessions_.evict_idle_sessions(cutoff);
  if (!evicted.empty()) {
    metrics_.sessions_evicted.fetch_add(evicted.size(), kRelaxed);
    // An evicted session's staged events still retire: flush them now
    // (the queue keeps the session alive until they are processed).
    for (const auto& s : evicted) flush_staged(s);
  }
  return evicted.size();
}

bool DetectionServer::submit(const std::shared_ptr<Session>& session,
                             trace::PartitionedEvent event) {
  if (session == nullptr || session->quarantined()) {
    metrics_.events_rejected.fetch_add(1, kRelaxed);
    return false;
  }
  if (closing_.load(std::memory_order_seq_cst)) {
    metrics_.events_rejected.fetch_add(1, kRelaxed);
    return false;
  }
  // Ingest boundary: the event's strings die here; only the compact form
  // (interned ids, see trace/intern.h) flows onward. A token table whose
  // id domain is full refuses the event before it is accepted.
  trace::CompactEvent compact;
  try {
    compact = trace::TokenTable::global().compact(event);
  } catch (const std::length_error&) {
    metrics_.events_rejected.fetch_add(1, kRelaxed);
    return false;
  }
  metrics_.events_ingested.fetch_add(1, kRelease);
  {
    const std::lock_guard<std::mutex> lock(session->stage_mutex());
    session->stage().push_back(compact);
    if (session->stage().size() >= options_.coalesce) {
      flush_locked(session);
    }
  }
  // Shutdown race: if stop() raised closing_ after our check above, its
  // flush_all_stages may already have passed this session. Re-check and
  // self-flush so the staged event retires either way.
  if (closing_.load(std::memory_order_seq_cst)) flush_staged(session);
  return true;
}

bool DetectionServer::submit(const SessionKey& key,
                             trace::PartitionedEvent event) {
  return submit(sessions_.find(key), std::move(event));
}

void DetectionServer::retire_dropped(std::size_t n, bool shed) {
  if (shed) metrics_.events_shed.fetch_add(n, kRelaxed);
  metrics_.events_dropped.fetch_add(n, kRelease);
  note_completed();
}

void DetectionServer::flush_locked(const std::shared_ptr<Session>& session) {
  if (session->stage().empty()) return;
  EventBatch batch;
  batch.session = session;
  batch.events = std::move(session->stage());
  session->stage() = {};
  session->stage().reserve(options_.coalesce);
  batch.enqueued = std::chrono::steady_clock::now();
  const std::size_t weight = batch.events.size();
  WeightedQueue<EventBatch>& shard =
      *shards_[session->shard_hash() % shards_.size()];
  // Pushed while the stage lock is held: two racing flushes for one
  // session would otherwise be able to enqueue out of order, corrupting
  // the per-session FIFO that window assembly depends on.
  std::vector<EventBatch> evicted;
  std::size_t depth = 0;
  const bool ok = shard.push(std::move(batch), weight, &evicted, &depth);
  metrics_.note_queue_depth(depth);
  if (!evicted.empty()) {
    const bool shed = shard.shedding();
    for (const EventBatch& b : evicted) retire_dropped(b.events.size(), shed);
  }
  if (!ok) {
    // Queue closed mid-shutdown: these events were accepted (ingested),
    // so they retire as dropped to keep the accounting identity exact.
    retire_dropped(weight, false);
  }
}

void DetectionServer::flush_staged(const std::shared_ptr<Session>& session) {
  const std::lock_guard<std::mutex> lock(session->stage_mutex());
  flush_locked(session);
}

void DetectionServer::flush_all_stages() {
  // Coalesce == 1 ships every event at submit; nothing can be staged.
  if (options_.coalesce <= 1) return;
  for (const auto& session : sessions_.all()) flush_staged(session);
}

void DetectionServer::note_completed() {
  // Serialize with drain()'s predicate check, then wake it.
  {
    const std::lock_guard<std::mutex> lock(drain_mu_);
  }
  drain_cv_.notify_all();
}

void DetectionServer::sweeper_loop() {
  std::unique_lock<std::mutex> lock(sweep_mu_);
  while (!sweep_stop_) {
    sweep_cv_.wait_for(lock, options_.sweep_interval,
                       [this] { return sweep_stop_; });
    if (sweep_stop_) break;
    lock.unlock();
    sweep_idle_now();
    lock.lock();
  }
}

void DetectionServer::worker_loop(std::size_t shard_index) {
  WeightedQueue<EventBatch>& queue = *shards_[shard_index];
  std::vector<EventBatch> batches;
  std::vector<trace::CompactEvent> run;
  std::vector<Verdict> verdicts;
  // Tapped windows of every session this worker feeds are materialized
  // here, so their stacks reuse the capacity earlier windows left.
  std::vector<trace::PartitionedEvent> tap_scratch;
  std::vector<std::uint64_t> waits_us;
  batches.reserve(options_.batch_size);
  run.reserve(options_.batch_size);
  waits_us.reserve(options_.batch_size);
  while (true) {
    batches.clear();
    const std::size_t n = queue.pop_batch(batches, options_.batch_size);
    if (n == 0) break;  // closed and drained
    metrics_.batches_drained.fetch_add(1, kRelaxed);
    const auto dequeued = std::chrono::steady_clock::now();
    const bool shedding_enabled = options_.shed_queue_wait_us > 0;
    waits_us.clear();
    for (const EventBatch& b : batches) {
      const auto wait = dequeued - b.enqueued;
      metrics_.queue_wait.record(wait);
      if (shedding_enabled) {
        waits_us.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(wait)
                .count()));
      }
    }
    if (shedding_enabled) {
      // Overload shedding with hysteresis: engage when this batch waited
      // p99 > threshold; disengage once waits recover below half of it.
      const std::uint64_t p99 = batch_p99_us(waits_us);
      if (!queue.shedding() && p99 > options_.shed_queue_wait_us) {
        queue.set_shedding(true);
        metrics_.shed_activations.fetch_add(1, kRelaxed);
      } else if (queue.shedding() &&
                 p99 * 2 < options_.shed_queue_wait_us) {
        queue.set_shedding(false);
      }
    }
    // Feed maximal consecutive same-session runs under one session lock —
    // this is where window classification batches up. Compact events are
    // 32-byte PODs, so concatenating a run is a cheap copy.
    std::size_t i = 0;
    while (i < batches.size()) {
      std::size_t j = i;
      run.clear();
      while (j < batches.size() && batches[j].session == batches[i].session) {
        run.insert(run.end(), batches[j].events.begin(),
                   batches[j].events.end());
        ++j;
      }
      verdicts.clear();
      LEAPS_SPAN("serve.feed_run");
      const auto t0 = std::chrono::steady_clock::now();
      RunOutcome outcome;
      bool run_ok = true;
      try {
        outcome = batches[i].session->feed_run(
            std::span<const trace::CompactEvent>(run), verdicts,
            options_.circuit_breaker,
            window_tap_ ? &window_tap_ : nullptr, &tap_scratch);
      } catch (...) {
        // feed_run guards each event, so reaching here means something
        // escaped even that (e.g. a throwing verdict copy). Quarantine
        // the session and account the whole run — the worker survives.
        run_ok = false;
      }
      metrics_.classify.record(std::chrono::steady_clock::now() - t0);
      if (!run_ok) {
        const bool already = batches[i].session->quarantined();
        batches[i].session->quarantine();
        if (!already) metrics_.sessions_quarantined.fetch_add(1, kRelaxed);
        metrics_.events_failed.fetch_add(run.size(), kRelaxed);
        metrics_.events_quarantined.fetch_add(run.size(), kRelease);
        note_completed();
        i = j;
        continue;
      }
      if (outcome.newly_quarantined) {
        metrics_.sessions_quarantined.fetch_add(1, kRelaxed);
      }
      for (const Verdict& v : verdicts) {
        metrics_.windows_scored.fetch_add(1, kRelaxed);
        (v.label == 1 ? metrics_.verdicts_benign
                      : metrics_.verdicts_malicious)
            .fetch_add(1, kRelaxed);
        metrics_.decision_values.observe(v.decision_value);
        if (sink_) {
          sink_(VerdictRecord{batches[i].session->key(), v.window_index,
                              v.label, v.decision_value});
        }
      }
      // Retire the run only after its sink calls: a drain() that sees
      // the identity has then seen every verdict of every run.
      if (outcome.failed > 0) {
        metrics_.events_failed.fetch_add(outcome.failed, kRelaxed);
      }
      if (outcome.failed + outcome.skipped > 0) {
        metrics_.events_quarantined.fetch_add(
            outcome.failed + outcome.skipped, kRelease);
      }
      metrics_.events_processed.fetch_add(outcome.processed, kRelease);
      note_completed();
      i = j;
    }
  }
}

}  // namespace leaps::serve
