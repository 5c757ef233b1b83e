#include "serve/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "util/check.h"

namespace leaps::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// fetch_max for pre-C++26 atomics.
void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t value) {
  std::uint64_t seen = a.load(kRelaxed);
  while (seen < value && !a.compare_exchange_weak(seen, value, kRelaxed)) {
  }
}

void histogram_text(std::ostream& os,
                    const obs::LatencyHistogram::Snapshot& h) {
  os << " us: count=" << h.count;
  if (h.count > 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", h.mean_us());
    os << " mean=" << buf << " p50<=" << h.quantile_us(0.50)
       << " p95<=" << h.quantile_us(0.95) << " p99<=" << h.quantile_us(0.99)
       << " max=" << h.max_us;
  }
}

void summary_text(std::ostream& os, const obs::Summary::Snapshot& s) {
  os << ": count=" << s.count;
  if (s.count > 0) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  " min=%.4f q50=%.4f q90=%.4f q99=%.4f max=%.4f", s.min,
                  s.q50, s.q90, s.q99, s.max);
    os << buf;
  }
}

}  // namespace

void ServerMetrics::note_queue_depth(std::size_t depth) {
  atomic_max(queue_high_water_, depth);
}

void ServerMetrics::restore_baseline(std::uint64_t ingested,
                                     std::uint64_t processed,
                                     std::uint64_t dropped,
                                     std::uint64_t quarantined) {
  LEAPS_CHECK_MSG(events_ingested.load(kRelaxed) == 0 &&
                      events_processed.load(kRelaxed) == 0 &&
                      events_dropped.load(kRelaxed) == 0 &&
                      events_quarantined.load(kRelaxed) == 0,
                  "restore_baseline must run before the server ingests");
  events_ingested.store(ingested, kRelaxed);
  events_processed.store(processed, kRelaxed);
  events_dropped.store(dropped, kRelaxed);
  events_quarantined.store(quarantined, kRelaxed);
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot s;
#define LEAPS_READ_COUNTER(prom, group, key, field, name, help) \
  s.field = field.load(kRelaxed);
#define LEAPS_READ_GAUGE(prom, group, key, field, type, name, help, source) \
  s.field = static_cast<type>(source.load(kRelaxed));
#define LEAPS_READ_SNAPSHOT(prom, key, field, name, help) \
  s.field = field.snapshot();
  LEAPS_SERVE_METRICS(LEAPS_READ_COUNTER, LEAPS_READ_GAUGE,
                      LEAPS_READ_SNAPSHOT, LEAPS_READ_SNAPSHOT)
#undef LEAPS_READ_COUNTER
#undef LEAPS_READ_GAUGE
#undef LEAPS_READ_SNAPSHOT
  return s;
}

std::vector<MetricField> MetricsSnapshot::fields() const {
  std::vector<MetricField> out;
  const auto sample = [](const char* name, const char* help,
                         obs::MetricType type) {
    obs::MetricSample s;
    s.name = name;
    s.help = help;
    s.type = type;
    return s;
  };
#define LEAPS_FIELD_COUNTER(prom, group, key, field, name, help) \
  out.push_back({group, key, prom, obs::counter_sample(name, help, field)});
#define LEAPS_FIELD_GAUGE(prom, group, key, field, type, name, help, source) \
  out.push_back({group, key, prom,                                          \
                 obs::gauge_sample(name, help,                              \
                                   static_cast<std::int64_t>(field))});
#define LEAPS_FIELD_HISTOGRAM(prom, key, field, name, help)           \
  out.push_back(                                                      \
      {"", key, prom, sample(name, help, obs::MetricType::kHistogram)}); \
  out.back().sample.histogram = field;
#define LEAPS_FIELD_SUMMARY(prom, key, field, name, help)           \
  out.push_back(                                                    \
      {"", key, prom, sample(name, help, obs::MetricType::kSummary)}); \
  out.back().sample.summary = field;
  LEAPS_SERVE_METRICS(LEAPS_FIELD_COUNTER, LEAPS_FIELD_GAUGE,
                      LEAPS_FIELD_HISTOGRAM, LEAPS_FIELD_SUMMARY)
#undef LEAPS_FIELD_COUNTER
#undef LEAPS_FIELD_GAUGE
#undef LEAPS_FIELD_HISTOGRAM
#undef LEAPS_FIELD_SUMMARY
  return out;
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  os << "serve metrics:";
  std::string_view group;
  for (const MetricField& f : fields()) {
    if (*f.group == '\0') {
      os << "\n  " << f.key;
      if (f.sample.type == obs::MetricType::kHistogram) {
        histogram_text(os, f.sample.histogram);
      } else {
        summary_text(os, f.sample.summary);
      }
      continue;
    }
    if (group != f.group) {
      group = f.group;
      os << "\n  " << group << ":";
    }
    os << " " << f.key << "=";
    obs::append_sample_json(os, f.sample);
  }
  os << "\n";
  return os.str();
}

void MetricsSnapshot::append_json_members(
    std::ostream& os, const std::map<std::string, std::string>& extras) const {
  std::string_view group;
  const auto close_group = [&] {
    if (group.empty()) return;
    const auto extra = extras.find(std::string(group));
    if (extra != extras.end()) os << "," << extra->second;
    os << "}";
  };
  bool first = true;
  for (const MetricField& f : fields()) {
    const bool new_group = first || group != f.group;
    if (!first) {
      if (new_group) close_group();
      os << ",";
    }
    if (new_group) {
      group = f.group;
      if (!group.empty()) os << "\"" << group << "\":{";
    }
    first = false;
    os << "\"" << f.key << "\":";
    obs::append_sample_json(os, f.sample);
  }
  close_group();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{";
  append_json_members(os);
  os << "}";
  return os.str();
}

obs::MetricRegistry::Registration ServerMetrics::register_with(
    obs::MetricRegistry& registry) const {
  return registry.register_collector(
      [this](std::vector<obs::MetricSample>& out) {
        std::vector<MetricField> fields = snapshot().fields();
        std::sort(fields.begin(), fields.end(),
                  [](const MetricField& a, const MetricField& b) {
                    return a.prom < b.prom;
                  });
        for (MetricField& f : fields) out.push_back(std::move(f.sample));
      });
}

}  // namespace leaps::serve
