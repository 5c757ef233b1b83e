// Bounded MPMC queue for the serving layer's batched hand-off.
//
// A classic mutex + two-condition-variable design: small, obviously correct,
// and fast enough that the SVM classification (hundreds of kernel
// evaluations per window) dominates by orders of magnitude. Items carry a
// weight (events per batch), and capacity is counted in weight units.
// Producers are subject to a backpressure policy when the queue is full:
//
//   kBlock      — push() waits for space (lossless; slows ingest to the
//                 drain rate, the right default for replayed logs),
//   kDropOldest — push() evicts the oldest queued items to make room
//                 (lossy but bounded-latency, the right choice for live
//                 tracers that must never stall the monitored host).
//
// close() wakes everyone; consumers then drain the remaining items and
// pop_batch() returns 0 once the queue is both closed and empty.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace leaps::serve {

enum class OverflowPolicy {
  kBlock,
  kDropOldest,
};

/// Parses "block" / "drop-oldest"; nullopt on anything else.
std::optional<OverflowPolicy> parse_overflow_policy(std::string_view name);

/// Bounded MPMC queue for weighted items. Capacity and size are in weight
/// units, so a server configured for "4096 queued events" admits exactly
/// that many whether they arrive one per item or thirty-two. The queue
/// keeps no counts of its own: push() hands back the evicted items and
/// the depth it left, and the caller books both. Two rules follow from
/// batching:
///
///   * eviction hands the evicted items back (via `evicted`) — the caller
///     must retire each evicted event,
///   * an item heavier than the whole capacity is admitted when the
///     queue is empty (kBlock would otherwise deadlock); it simply
///     occupies the queue alone.
template <typename T>
class WeightedQueue {
 public:
  explicit WeightedQueue(std::size_t capacity,
                         OverflowPolicy policy = OverflowPolicy::kBlock)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  WeightedQueue(const WeightedQueue&) = delete;
  WeightedQueue& operator=(const WeightedQueue&) = delete;

  /// Enqueues one item of `weight` units. Under kBlock, waits until the
  /// item fits (or the queue is empty — see class comment); under
  /// kDropOldest — or kBlock with shedding engaged — evicts oldest items
  /// into `evicted` until it fits. When `depth` is given, it receives the
  /// weight queued after the push. Returns false (item discarded, not
  /// evicted into the vector, `depth` untouched) only when the queue is
  /// closed.
  bool push(T item, std::size_t weight, std::vector<T>* evicted = nullptr,
            std::size_t* depth = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    if (policy_ == OverflowPolicy::kBlock) {
      space_.wait(lock, [this, weight] {
        return closed_ || shedding_ || items_.empty() ||
               weight_ + weight <= capacity_;
      });
    }
    if (closed_) return false;
    while (weight_ + weight > capacity_ && !items_.empty()) {
      Entry& front = items_.front();
      weight_ -= front.weight;
      if (evicted != nullptr) evicted->push_back(std::move(front.item));
      items_.pop_front();
    }
    items_.push_back(Entry{std::move(item), weight});
    weight_ += weight;
    if (depth != nullptr) *depth = weight_;
    lock.unlock();
    ready_.notify_one();
    return true;
  }

  /// Overload shedding: while engaged, kBlock producers stop waiting and
  /// full pushes evict the oldest items instead (drop-with-accounting, as
  /// if the policy were kDropOldest). Engaging wakes blocked producers.
  void set_shedding(bool on) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (shedding_ == on) return;
      shedding_ = on;
    }
    if (on) space_.notify_all();
  }
  bool shedding() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return shedding_;
  }

  /// Appends items to `out` until at least `max_weight` units have been
  /// taken (the last item may overshoot), blocking for the first one.
  /// Returns the total weight appended; 0 means closed and drained.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_weight) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    std::size_t taken = 0;
    while (!items_.empty() && (taken == 0 || taken < max_weight)) {
      Entry& front = items_.front();
      taken += front.weight;
      weight_ -= front.weight;
      out.push_back(std::move(front.item));
      items_.pop_front();
    }
    lock.unlock();
    if (taken > 0) space_.notify_all();
    return taken;
  }

  /// No further pushes succeed; consumers drain what remains.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
    space_.notify_all();
  }

  /// Queued weight (events), not item count.
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return weight_;
  }

 private:
  struct Entry {
    T item;
    std::size_t weight;
  };

  const std::size_t capacity_;
  const OverflowPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable space_;
  std::deque<Entry> items_;
  std::size_t weight_ = 0;
  bool closed_ = false;
  bool shedding_ = false;
};

}  // namespace leaps::serve
