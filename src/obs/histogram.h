// Lock-free latency histogram with power-of-two (log₂) buckets.
//
// Shared by the serving layer (queue-wait / classify latencies) and the
// observability metric registry. Lives in obs/ — the lowest layer that
// both src/serve/ and the pipeline instrumentation can reach.
//
// Every mutation is relaxed-atomic: record() is called from worker and
// producer threads on the hot path; a snapshot is a best-effort consistent
// read (counters may be mid-update relative to each other, which is fine
// for operational metrics).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace leaps::obs {

/// Histogram over microsecond latencies with power-of-two buckets:
/// bucket i counts samples in [2^(i-1), 2^i) µs (bucket 0 counts < 1 µs).
/// Quantiles are therefore upper bounds with ≤ 2× resolution — plenty for
/// spotting queueing collapse, useless for microbenchmarking (use
/// bench_micro for that).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 28;  // up to ~2 minutes

  void record(std::chrono::nanoseconds elapsed);
  void record_us(std::uint64_t us);

  /// Inclusive upper bound of bucket i, in µs: 2^i − 1 (bucket 0 holds
  /// only sub-µs samples, so its bound is 0). The last bucket saturates —
  /// Prometheus exposition maps it to le="+Inf".
  static std::uint64_t bucket_upper_us(std::size_t i) {
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t max_us = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean_us() const;
    /// Upper bound of the bucket holding the q-quantile sample, in µs.
    std::uint64_t quantile_us(double q) const;
  };
  Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
};

}  // namespace leaps::obs
