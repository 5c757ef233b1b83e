// Unified metric registry: named counters, gauges, and histograms with
// Prometheus text-format and JSON exposition.
//
// One process-wide registry (MetricRegistry::global()) is the scrape
// surface for everything: pipeline stages register owned metrics lazily
// (a function-local `static Counter&` caches the name lookup off the hot
// path), and composite holders like serve::ServerMetrics contribute their
// existing atomics through a collector callback — so `leaps-serve
// --metrics-out` exposes serving and ingest/pipeline metrics in one
// document. Tests construct private registries instead of fighting over
// the global one.
//
// Hot-path cost: Counter::inc / Gauge::set are one relaxed atomic RMW;
// histogram recording is obs::LatencyHistogram (a handful of relaxed
// RMWs). Name lookup (counter()/gauge()/histogram()) takes a mutex — do
// it once and keep the reference, which is stable for the registry's
// lifetime.
//
// Naming convention (see DESIGN.md §8): snake_case with a `leaps_` module
// prefix, `_total` suffix on counters, unit suffix (`_us`) on histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/sketch.h"

namespace leaps::obs {

/// Monotonic counter. All mutation is relaxed-atomic.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (e.g. iterations of the most
/// recent SVM training run).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram, kSummary };

/// One collected reading, the unit of exposition. Owned metrics produce
/// these from their atomics; collectors append them directly.
struct MetricSample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  /// Optional Prometheus label pairs, pre-rendered without the braces
  /// (e.g. `version="0.7",git="abc123"`). Attached to the sample line
  /// only; HELP/TYPE headers always use the bare name.
  std::string labels;
  std::uint64_t counter_value = 0;              // kCounter
  std::int64_t gauge_value = 0;                 // kGauge
  LatencyHistogram::Snapshot histogram;         // kHistogram
  Summary::Snapshot summary;                    // kSummary
};

/// Appends this holder's readings. Called under the registry mutex; must
/// not call back into the registry.
using Collector = std::function<void(std::vector<MetricSample>&)>;

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide scrape surface.
  static MetricRegistry& global();

  /// Finds or creates the named metric. References stay valid for the
  /// registry's lifetime. Re-requesting a name with a different kind
  /// throws std::logic_error (a naming bug, not a runtime condition).
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  LatencyHistogram& histogram(const std::string& name,
                              const std::string& help = "");
  Summary& summary(const std::string& name, const std::string& help = "");

  /// RAII collector registration; unregisters on destruction. The handle
  /// must not outlive the registry, and the collector's data sources must
  /// outlive the handle.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept { swap(other); }
    Registration& operator=(Registration&& other) noexcept {
      reset();
      swap(other);
      return *this;
    }
    ~Registration() { reset(); }
    void reset();

   private:
    friend class MetricRegistry;
    void swap(Registration& other) noexcept {
      std::swap(registry_, other.registry_);
      std::swap(id_, other.id_);
    }
    MetricRegistry* registry_ = nullptr;
    std::uint64_t id_ = 0;
  };
  [[nodiscard]] Registration register_collector(Collector collector);

  /// Every reading — owned metrics (name-sorted) first, then collector
  /// output in registration order.
  std::vector<MetricSample> collect() const;

  /// Prometheus text exposition format: `# HELP` / `# TYPE` headers, one
  /// sample line per counter/gauge, and for histograms cumulative
  /// `_bucket{le="..."}` lines derived from the log₂ buckets plus `_sum`
  /// and `_count`.
  std::string to_prometheus() const;

  /// The same readings as one JSON object; histograms carry the full
  /// bucket array plus the inclusive `le_us` boundaries so consumers can
  /// compute any quantile.
  std::string to_json() const;

 private:
  struct Owned {
    MetricType type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
    std::unique_ptr<Summary> summary;
  };

  Owned& find_or_create(const std::string& name, const std::string& help,
                        MetricType type);
  void unregister_collector(std::uint64_t id);

  mutable std::mutex mu_;
  std::map<std::string, Owned> owned_;                 // guarded by mu_
  std::map<std::uint64_t, Collector> collectors_;      // guarded by mu_
  std::uint64_t next_collector_id_ = 1;                // guarded by mu_
};

/// A counter or gauge reading (the common collector case).
MetricSample counter_sample(std::string name, std::string help,
                            std::uint64_t value);
MetricSample gauge_sample(std::string name, std::string help,
                          std::int64_t value);

/// Renders samples without a registry (used by MetricsSnapshot-style
/// holders that already have plain values in hand).
std::string samples_to_prometheus(const std::vector<MetricSample>& samples);
std::string samples_to_json(const std::vector<MetricSample>& samples);

/// The one JSON spelling of each reading, shared by every JSON document
/// the process writes (samples_to_json, MetricsSnapshot::to_json, the
/// --status-json file). Numbers are %.9g with the non-finite values JSON
/// cannot carry written as 0. Histograms and summaries are written as
/// their object members without the braces; append_sample_json writes a
/// sample's bare value: the number, or the braced object.
void append_json_number(std::ostream& os, double v);
void append_histogram_json(std::ostream& os,
                           const LatencyHistogram::Snapshot& h);
void append_summary_json(std::ostream& os, const Summary::Snapshot& s);
void append_sample_json(std::ostream& os, const MetricSample& s);
/// The one JSON spelling of a string: quoted, with the quote and the
/// backslash escaped and every byte below 0x20 written as \u00XX (symbol
/// names from binary logs may hold any byte); other bytes pass through.
std::string json_string(std::string_view s);

}  // namespace leaps::obs
