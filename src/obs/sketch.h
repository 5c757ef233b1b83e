// Streaming quantile sketches for decision-value monitoring.
//
// QuantileSketch is a KLL-style mergeable sketch with one deliberate
// deviation: compaction keeps alternating halves (even offsets on one
// pass, odd on the next) instead of coin-flipping. The alternation gives
// the same unbiased-in-the-long-run behavior while making the sketch a
// *pure function of its insertion sequence* — two replicas fed the same
// decision values in the same order hold byte-identical state, which is
// what lets the drift drill assert cross-thread-width determinism and
// lets durable recovery rebuild a sketch by re-observing the journaled
// value stream (src/online/drift.h relies on both).
//
// Memory is bounded: ⌈log₂(n/k)⌉ levels of ≤ k doubles each, so ~k·log n
// values summarize any stream. Rank error is O(log(n/k)/k) — at the
// default k=128 the q50/q90/q99 read-outs are well inside what the drift
// trigger or a human eyeballing `leaps-top` needs.
//
// ReservoirWindow is the exact companion: a ring of the last N values in
// arrival order, for the "live" side of the drift comparison and for
// two-sample KS tests that want raw points rather than summaries.
//
// Neither class locks — wrap in obs::Summary (below) or an external mutex
// when shared. Serialization is a versioned little-endian byte string
// (bit-exact round trip) sized for WAL frames and checkpoint blobs.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace leaps::obs {

class QuantileSketch {
 public:
  /// `k` is the per-level compaction buffer size (min 8). Larger k: more
  /// memory, tighter quantiles.
  explicit QuantileSketch(std::uint16_t k = 128);

  void insert(double v);
  /// Folds `other` into this sketch. Equivalent to having inserted the
  /// union (weights are preserved level-wise).
  void merge(const QuantileSketch& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Exact extremes over everything inserted (0 when empty).
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  std::uint16_t k() const { return k_; }

  /// Approximate q-quantile, q ∈ [0,1] (clamped). q=0 / q=1 return the
  /// exact min/max; an empty sketch returns 0.
  double quantile(double q) const;

  /// Retained (value, weight) pairs, value-sorted — the KS test consumes
  /// this as a weighted empirical CDF.
  std::vector<std::pair<double, std::uint64_t>> weighted_values() const;

  /// Versioned binary codec; deserialize(serialize()) is bit-exact, and
  /// equal states serialize to equal bytes.
  std::string serialize() const;
  static util::StatusOr<QuantileSketch> deserialize(std::string_view bytes);

  bool operator==(const QuantileSketch& other) const = default;

 private:
  void compact();

  std::uint16_t k_ = 128;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::vector<double>> levels_;  // level i carries weight 2^i
  std::vector<std::uint8_t> keep_odd_;       // next compaction offset, per level
};

/// Exact sliding window: the last `capacity` values in arrival order.
class ReservoirWindow {
 public:
  /// Largest capacity deserialize() accepts.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 24;

  explicit ReservoirWindow(std::size_t capacity = 256);

  void insert(double v);
  void clear();

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Lifetime insert count (≥ size()).
  std::uint64_t total() const { return total_; }

  /// Window contents, oldest first.
  std::vector<double> values() const;

  std::string serialize() const;
  static util::StatusOr<ReservoirWindow> deserialize(std::string_view bytes);

  bool operator==(const ReservoirWindow& other) const = default;

 private:
  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::size_t head_ = 0;  // next write position once the ring is full
  std::vector<double> ring_;
};

/// A registry-friendly summary metric: a mutex-guarded QuantileSketch
/// observed from hot paths and snapshotted at scrape time. Exposed by
/// MetricRegistry as a Prometheus `summary` (quantile/_sum/_count lines).
class Summary {
 public:
  explicit Summary(std::uint16_t k = 128) : sketch_(k) {}

  void observe(double v) {
    const std::lock_guard<std::mutex> lock(mu_);
    sketch_.insert(v);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double q50 = 0.0;
    double q90 = 0.0;
    double q99 = 0.0;
  };
  Snapshot snapshot() const;

  /// Copy of the underlying sketch (for merging/serialization off-path).
  QuantileSketch sketch() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return sketch_;
  }

 private:
  mutable std::mutex mu_;
  QuantileSketch sketch_;
};

}  // namespace leaps::obs
