// Serving-layer metrics: lock-free atomic counters and log₂-bucketed
// latency histograms, snapshotted periodically into a plain struct with
// text and JSON renderings.
//
// Everything here is written from worker and producer threads on the hot
// path, so all mutation is atomic and lock-free. Most counters are
// relaxed; the four accounting-identity counters are bumped with release
// because DetectionServer::drain() waits on them with acquire loads. A
// snapshot is a best-effort consistent read (counters may be mid-update
// relative to each other, which is fine for operational metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/registry.h"
#include "serve/slab.h"

namespace leaps::serve {

// Every serving metric, declared once. Each row expands into its
// ServerMetrics storage, its MetricsSnapshot field, its snapshot() read
// and its place in every rendering: to_text, to_json, register_with and
// the serve part of --status-json (online/status.cc). Adding a metric is
// one row here plus its increment site.
//
//   COUNTER(prom, group, key, field, name, help)
//       a std::atomic<uint64_t> member, exposed as a Prometheus counter;
//   GAUGE(prom, group, key, field, type, name, help, source)
//       a reading of `source` (an atomic reachable from ServerMetrics),
//       exposed as a Prometheus gauge;
//   HISTOGRAM(prom, key, field, name, help)  an obs::LatencyHistogram;
//   SUMMARY(prom, key, field, name, help)    an obs::Summary.
//
// Row order is the JSON and text order: scalar rows of one `group` form
// one JSON object / text line under the JSON key `key`; histograms and
// summaries are top-level JSON objects under `key`. `prom` is the row's
// position in the Prometheus exposition, which keeps its historical
// order (new rows take the next number; positions stay dense, 0..N-1).
#define LEAPS_SERVE_METRICS(COUNTER, GAUGE, HISTOGRAM, SUMMARY)              \
  COUNTER(0, "events", "ingested", events_ingested,                          \
          "leaps_serve_events_ingested_total", "events accepted by submit")  \
  COUNTER(1, "events", "processed", events_processed,                        \
          "leaps_serve_events_processed_total", "events classified")         \
  COUNTER(2, "events", "dropped", events_dropped,                            \
          "leaps_serve_events_dropped_total",                                \
          "events evicted from a queue before feed")                         \
  COUNTER(3, "events", "rejected", events_rejected,                          \
          "leaps_serve_events_rejected_total",                               \
          "submits refused (unknown session / stopped server)")              \
  COUNTER(4, "events", "quarantined", events_quarantined,                    \
          "leaps_serve_events_quarantined_total",                            \
          "events failed or skipped in feed_run")                            \
  COUNTER(5, "events", "failed", events_failed,                              \
          "leaps_serve_events_failed_total",                                 \
          "events that threw during classification")                         \
  COUNTER(6, "events", "shed", events_shed, "leaps_serve_events_shed_total", \
          "events dropped while shedding engaged")                           \
  COUNTER(7, "windows", "scored", windows_scored,                            \
          "leaps_serve_windows_scored_total", "windows classified")          \
  COUNTER(8, "windows", "benign", verdicts_benign,                           \
          "leaps_serve_verdicts_benign_total", "benign window verdicts")     \
  COUNTER(9, "windows", "malicious", verdicts_malicious,                     \
          "leaps_serve_verdicts_malicious_total",                            \
          "malicious window verdicts")                                       \
  COUNTER(11, "sessions", "opened", sessions_opened,                         \
          "leaps_serve_sessions_opened_total", "sessions opened")            \
  COUNTER(12, "sessions", "closed", sessions_closed,                         \
          "leaps_serve_sessions_closed_total", "sessions closed")            \
  COUNTER(13, "sessions", "quarantined", sessions_quarantined,               \
          "leaps_serve_sessions_quarantined_total",                          \
          "circuit-breaker trips")                                           \
  COUNTER(14, "sessions", "evicted", sessions_evicted,                       \
          "leaps_serve_sessions_evicted_total",                              \
          "sessions removed by the idle sweep")                              \
  GAUGE(16, "queues", "high_water", queue_high_water, std::uint64_t,         \
        "leaps_serve_queue_high_water",                                      \
        "deepest any shard queue got (events)", queue_high_water_)           \
  COUNTER(10, "queues", "batches", batches_drained,                          \
          "leaps_serve_batches_drained_total", "worker batch drains")        \
  COUNTER(15, "queues", "shed_activations", shed_activations,                \
          "leaps_serve_shed_activations_total",                              \
          "times a shard entered shedding")                                  \
  GAUGE(17, "slabs", "sessions_in_use", slab_sessions_in_use, std::int64_t,  \
        "leaps_serve_slab_sessions_in_use",                                  \
        "session slots handed out by the slab pool", session_slabs->in_use)  \
  GAUGE(18, "slabs", "sessions_free", slab_sessions_free, std::int64_t,      \
        "leaps_serve_slab_sessions_free",                                    \
        "recycled session slots on the freelist", session_slabs->free)       \
  GAUGE(19, "slabs", "chunks", slab_chunks, std::int64_t,                    \
        "leaps_serve_slab_chunks", "slab chunks allocated",                  \
        session_slabs->chunks)                                               \
  GAUGE(20, "slabs", "overflow", slab_overflow, std::int64_t,                \
        "leaps_serve_slab_overflow_total",                                   \
        "allocations served off-pool (size mismatch)",                       \
        session_slabs->overflow)                                             \
  HISTOGRAM(21, "queue_wait", queue_wait, "leaps_serve_queue_wait_us",       \
            "enqueue to worker dequeue latency")                             \
  HISTOGRAM(22, "classify", classify, "leaps_serve_classify_us",             \
            "per drained run of one session")                                \
  HISTOGRAM(24, "window_tap", window_tap, "leaps_serve_window_tap_us",       \
            "the tap calls of one tapped window, inside classify")           \
  SUMMARY(23, "decision_value", decision_values,                             \
          "leaps_serve_decision_value",                                      \
          "SVM decision values over scored windows (quantile sketch)")

/// One table row's reading: where it renders, and the registry sample
/// carrying its Prometheus name, help, type and value.
struct MetricField {
  const char* group = "";  // "" for the top-level histograms and summaries
  const char* key = "";
  int prom = 0;  // position in the Prometheus exposition
  obs::MetricSample sample;
};

/// One coherent reading of every server counter (plain values).
///
/// Accounting identity (holds exactly after drain()):
///   events_ingested == events_processed + events_dropped
///                      + events_quarantined
/// events_failed and events_shed are *subset* counters (failed ⊆
/// quarantined, shed ⊆ dropped); rejected events were never accepted and
/// sit outside the identity.
struct MetricsSnapshot {
#define LEAPS_SNAPSHOT_COUNTER(prom, group, key, field, name, help) \
  std::uint64_t field = 0;
#define LEAPS_SNAPSHOT_GAUGE(prom, group, key, field, type, name, help, \
                             source)                                    \
  type field = 0;
#define LEAPS_SNAPSHOT_HISTOGRAM(prom, key, field, name, help) \
  obs::LatencyHistogram::Snapshot field;
#define LEAPS_SNAPSHOT_SUMMARY(prom, key, field, name, help) \
  obs::Summary::Snapshot field;
  LEAPS_SERVE_METRICS(LEAPS_SNAPSHOT_COUNTER, LEAPS_SNAPSHOT_GAUGE,
                      LEAPS_SNAPSHOT_HISTOGRAM, LEAPS_SNAPSHOT_SUMMARY)
#undef LEAPS_SNAPSHOT_COUNTER
#undef LEAPS_SNAPSHOT_GAUGE
#undef LEAPS_SNAPSHOT_HISTOGRAM
#undef LEAPS_SNAPSHOT_SUMMARY

  /// Every row, in table order.
  std::vector<MetricField> fields() const;

  /// `group: key=value …` lines, one per group, then one per histogram
  /// and summary.
  std::string to_text() const;
  std::string to_json() const;
  /// to_json's members without the outer braces. `extras[group]` holds
  /// pre-rendered `"key":value` members appended inside that group's
  /// object (--status-json adds sessions.active and queues.wait_p99_us).
  void append_json_members(
      std::ostream& os,
      const std::map<std::string, std::string>& extras = {}) const;
};

/// The live counters. Shared by the server, its workers, and any
/// metrics-dumping thread; every member is individually atomic.
class ServerMetrics {
 public:
#define LEAPS_LIVE_COUNTER(prom, group, key, field, name, help) \
  std::atomic<std::uint64_t> field{0};
#define LEAPS_LIVE_GAUGE(prom, group, key, field, type, name, help, source)
#define LEAPS_LIVE_HISTOGRAM(prom, key, field, name, help) \
  obs::LatencyHistogram field;
#define LEAPS_LIVE_SUMMARY(prom, key, field, name, help) obs::Summary field;
  // Summaries are mutex-guarded internally; decision_values is observed
  // once per scored window, not per event.
  LEAPS_SERVE_METRICS(LEAPS_LIVE_COUNTER, LEAPS_LIVE_GAUGE,
                      LEAPS_LIVE_HISTOGRAM, LEAPS_LIVE_SUMMARY)
#undef LEAPS_LIVE_COUNTER
#undef LEAPS_LIVE_GAUGE
#undef LEAPS_LIVE_HISTOGRAM
#undef LEAPS_LIVE_SUMMARY
  /// Gauge block the session slab pool publishes into
  /// (leaps_serve_slab_*). shared_ptr: the pool — and its gauges — can
  /// outlive the server when queued events keep sessions alive past
  /// shutdown.
  std::shared_ptr<SlabGauges> session_slabs =
      std::make_shared<SlabGauges>();

  /// Raises the queue-depth high-water mark if `depth` exceeds it.
  void note_queue_depth(std::size_t depth);

  /// Seeds the four accounting-identity counters from a recovered
  /// durability checkpoint, so ingested == processed + dropped +
  /// quarantined keeps holding across a restart boundary. Only valid
  /// before the server starts ingesting: LEAPS_CHECKs that all four are
  /// still zero.
  void restore_baseline(std::uint64_t ingested, std::uint64_t processed,
                        std::uint64_t dropped, std::uint64_t quarantined);

  MetricsSnapshot snapshot() const;

  /// Contributes every table row to `registry` under its `leaps_serve_*`
  /// name, so serving metrics share one scrape surface with the
  /// pipeline/ingest metrics. Readings are taken at collect() time from
  /// the live atomics. The returned handle unregisters on destruction and
  /// must not outlive this object.
  [[nodiscard]] obs::MetricRegistry::Registration register_with(
      obs::MetricRegistry& registry) const;

 private:
  std::atomic<std::uint64_t> queue_high_water_{0};
};

}  // namespace leaps::serve
