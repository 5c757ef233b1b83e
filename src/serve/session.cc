#include "serve/session.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <functional>

#include "util/check.h"
#include "util/fault.h"

namespace leaps::serve {

namespace {

std::size_t hash_key(const SessionKey& key) {
  // Boost-style combine; only needs to spread sessions across shards.
  const std::size_t h1 = std::hash<std::string>{}(key.host);
  const std::size_t h2 = std::hash<std::uint32_t>{}(key.pid);
  return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
}

std::shared_ptr<const core::Detector> checked(
    std::shared_ptr<const core::Detector> detector) {
  LEAPS_CHECK_MSG(detector != nullptr, "session needs a detector");
  return detector;
}

}  // namespace

Session::Session(SessionKey key, std::string profile,
                 std::shared_ptr<const core::Detector> detector)
    : key_(std::move(key)),
      profile_(std::move(profile)),
      key_string_(key_.to_string()),
      shard_hash_(hash_key(key_)),
      detector_(checked(std::move(detector))),
      table_(&trace::TokenTable::global()),
      last_active_(
          std::chrono::steady_clock::now().time_since_epoch().count()),
      stream_(detector_->stream()) {}

RunOutcome Session::feed_run(
    std::span<const trace::CompactEvent> events, std::vector<Verdict>& out,
    std::size_t breaker_threshold, const WindowTap* tap,
    std::vector<trace::PartitionedEvent>* tap_scratch) {
  LEAPS_CHECK_MSG(tap == nullptr || tap_scratch != nullptr,
                  "a tapped feed_run needs its scratch");
  const std::lock_guard<std::mutex> lock(mu_);
  touch();
  // An untapped call invalidates any partially-buffered window: the buffer
  // would no longer span contiguous events, so restart at a boundary.
  if (tap == nullptr && !tap_buf_.empty()) tap_buf_.clear();
  RunOutcome outcome;
  for (const trace::CompactEvent& event : events) {
    if (quarantined()) {
      ++outcome.skipped;
      continue;
    }
    try {
      LEAPS_FAULT_POINT_DETAIL("serve.worker.classify", key_string_);
      std::optional<int> label;
      std::optional<int> shadow_label;
      if (shadow_ != nullptr) {
        if (!shadow_->aligned && stream_.pending_events() == 0) {
          shadow_->aligned = true;
        }
        if (shadow_->aligned) {
          const auto a0 = std::chrono::steady_clock::now();
          label = stream_.push(event, *table_);
          const auto a1 = std::chrono::steady_clock::now();
          shadow_->active_ns += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(a1 - a0)
                  .count());
          try {
            const auto s0 = std::chrono::steady_clock::now();
            shadow_label = shadow_->stream.push(event, *table_);
            const auto s1 = std::chrono::steady_clock::now();
            shadow_->shadow_ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(s1 - s0)
                    .count());
          } catch (...) {
            // A candidate that chokes on live traffic disqualifies itself:
            // drop the shadow, leave the session and active stream alone.
            shadow_.reset();
            shadow_label.reset();
          }
        } else {
          label = stream_.push(event, *table_);
        }
      } else {
        label = stream_.push(event, *table_);
      }
      consecutive_failures_ = 0;
      ++outcome.processed;
      if (tap != nullptr) tap_buf_.push_back(event);
      if (label.has_value()) {
        const double decision = stream_.last_decision_value();
        const std::size_t window_index = stream_.tally().windows() - 1;
        out.push_back(Verdict{window_index, *label, decision});
        if (shadow_ != nullptr && shadow_label.has_value()) {
          (*shadow_->sink)(key_, *label, *shadow_label, shadow_->active_ns,
                           shadow_->shadow_ns);
          shadow_->active_ns = 0;
          shadow_->shadow_ns = 0;
        }
        if (tap != nullptr) {
          // Report only full windows: a buffer started mid-window is short
          // at its first verdict and merely resynchronizes here. Tapped
          // windows are materialized back to the string form exactly
          // (TokenTable interning is lossless), so tap consumers — the
          // online accumulator, the durable WAL, the audit stream — see
          // byte-identical events to the pre-interning fabric.
          if (tap_buf_.size() == detector_->preprocessor().window()) {
            // Overwritten in place: the scratch's events keep the stack
            // capacity earlier windows gave them.
            tap_scratch->resize(tap_buf_.size());
            for (std::size_t k = 0; k < tap_buf_.size(); ++k) {
              table_->materialize_into(tap_buf_[k], (*tap_scratch)[k]);
            }
            (*tap)(key_, window_index, *label, decision,
                   tap_scratch->data(), tap_scratch->size());
          }
          tap_buf_.clear();
        }
      }
    } catch (...) {
      // Poison event (or injected fault): the event is lost, the stream
      // object stays valid (Stream::push has no partial-commit state the
      // next event can observe corrupted), and the breaker decides
      // whether the whole session is beyond saving.
      ++outcome.failed;
      ++failed_events_;
      if (breaker_threshold > 0 &&
          ++consecutive_failures_ >= breaker_threshold) {
        quarantine();
        outcome.newly_quarantined = true;
      }
    }
  }
  return outcome;
}

bool Session::attach_shadow(std::shared_ptr<const core::Detector> candidate,
                            std::shared_ptr<const ShadowSink> sink) {
  LEAPS_CHECK_MSG(candidate != nullptr, "shadow needs a detector");
  LEAPS_CHECK_MSG(sink != nullptr && *sink, "shadow needs a sink");
  const std::lock_guard<std::mutex> lock(mu_);
  if (shadow_ != nullptr) return false;
  shadow_ = std::make_unique<ShadowState>(std::move(candidate),
                                          std::move(sink));
  return true;
}

bool Session::detach_shadow() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (shadow_ == nullptr) return false;
  shadow_.reset();
  return true;
}

SessionReport Session::report() const {
  const std::lock_guard<std::mutex> lock(mu_);
  SessionReport r;
  r.key = key_;
  r.profile = profile_;
  r.events_seen = stream_.events_seen();
  r.pending_events = stream_.pending_events();
  const core::Detector::WindowCounts& tally = stream_.tally();
  r.windows = tally.windows();
  r.benign_windows = tally.benign_windows;
  r.malicious_windows = tally.malicious_windows;
  r.malicious_fraction = tally.malicious_fraction();
  r.failed_events = failed_events_;
  r.quarantined = quarantined();
  return r;
}

SessionManager::SessionManager(const DetectorRegistry* registry,
                               std::size_t shards,
                               std::shared_ptr<SlabGauges> slab_gauges)
    : registry_(registry),
      pool_(std::make_shared<SlabPool>(/*slots_per_chunk=*/256,
                                       std::move(slab_gauges))) {
  LEAPS_CHECK_MSG(registry_ != nullptr, "SessionManager needs a registry");
  const std::size_t n = std::bit_ceil(shards == 0 ? std::size_t{1} : shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionManager::Shard& SessionManager::shard_for(
    const SessionKey& key) const {
  // shards_.size() is a power of two, so masking the key hash picks a
  // shard uniformly; Session::shard_hash() uses the same hash, keeping
  // queue sharding and table sharding coherent.
  return *shards_[hash_key(key) & (shards_.size() - 1)];
}

std::shared_ptr<Session> SessionManager::open(const SessionKey& key,
                                              const std::string& profile) {
  Shard& shard = shard_for(key);
  {
    const std::shared_lock lock(shard.mu);
    const auto it = shard.sessions.find(key);
    if (it != shard.sessions.end()) return it->second;
  }
  // Snapshot the detector outside the shard lock.
  std::shared_ptr<const core::Detector> detector = registry_->find(profile);
  if (detector == nullptr) return nullptr;
  // allocate_shared: the Session and its control block land in one slab
  // slot; the allocator's pool shared_ptr keeps the slot's chunk alive
  // even if the manager dies while queued events still hold the session.
  auto session = std::allocate_shared<Session>(
      SlabAllocator<Session>(pool_), key, profile, std::move(detector));
  const std::unique_lock lock(shard.mu);
  // Another opener may have raced us; first one in wins.
  const auto [it, inserted] = shard.sessions.emplace(key, std::move(session));
  return it->second;
}

std::shared_ptr<Session> SessionManager::find(const SessionKey& key) const {
  Shard& shard = shard_for(key);
  const std::shared_lock lock(shard.mu);
  const auto it = shard.sessions.find(key);
  return it == shard.sessions.end() ? nullptr : it->second;
}

std::optional<SessionReport> SessionManager::close(const SessionKey& key) {
  Shard& shard = shard_for(key);
  std::shared_ptr<Session> session;
  {
    const std::unique_lock lock(shard.mu);
    const auto it = shard.sessions.find(key);
    if (it == shard.sessions.end()) return std::nullopt;
    session = std::move(it->second);
    shard.sessions.erase(it);
  }
  return session->report();
}

std::vector<std::shared_ptr<Session>> SessionManager::evict_idle_sessions(
    std::chrono::steady_clock::time_point cutoff) {
  std::vector<std::shared_ptr<Session>> evicted;
  for (const auto& shard : shards_) {
    const std::unique_lock lock(shard->mu);
    for (auto it = shard->sessions.begin(); it != shard->sessions.end();) {
      if (it->second->last_active() < cutoff) {
        evicted.push_back(std::move(it->second));
        it = shard->sessions.erase(it);
      } else {
        ++it;
      }
    }
  }
  return evicted;
}

std::size_t SessionManager::active() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    const std::shared_lock lock(shard->mu);
    n += shard->sessions.size();
  }
  return n;
}

std::vector<SessionReport> SessionManager::reports() const {
  std::vector<std::shared_ptr<Session>> live = all();
  // Key order, as before sharding (shards interleave the key space).
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a->key() < b->key(); });
  std::vector<SessionReport> out;
  out.reserve(live.size());
  for (const auto& s : live) out.push_back(s->report());
  return out;
}

std::vector<std::shared_ptr<Session>> SessionManager::sessions_for(
    const std::string& profile) const {
  std::vector<std::shared_ptr<Session>> out;
  for (const auto& shard : shards_) {
    const std::shared_lock lock(shard->mu);
    for (const auto& [_, s] : shard->sessions) {
      if (s->profile() == profile) out.push_back(s);
    }
  }
  return out;
}

std::vector<std::shared_ptr<Session>> SessionManager::all() const {
  std::vector<std::shared_ptr<Session>> out;
  for (const auto& shard : shards_) {
    const std::shared_lock lock(shard->mu);
    for (const auto& [_, s] : shard->sessions) out.push_back(s);
  }
  return out;
}

}  // namespace leaps::serve
