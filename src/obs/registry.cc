#include "obs/registry.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/trace.h"
#include "util/build_info.h"

namespace leaps::obs {

namespace {

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
    case MetricType::kSummary:
      return "summary";
  }
  return "unknown";
}

/// Prometheus float rendering: shortest round-trippable-enough form, with
/// the spec's spellings for the non-finite values.
void append_double(std::ostringstream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
    return;
  }
  if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

/// `name` or `name{labels}`.
void append_sample_name(std::ostringstream& os, const MetricSample& s) {
  os << s.name;
  if (!s.labels.empty()) os << "{" << s.labels << "}";
}

void summary_prometheus(std::ostringstream& os, const MetricSample& s) {
  const std::string prefix = s.labels.empty() ? "" : s.labels + ",";
  const std::pair<const char*, double> quantiles[] = {
      {"0.5", s.summary.q50}, {"0.9", s.summary.q90}, {"0.99", s.summary.q99}};
  for (const auto& [q, v] : quantiles) {
    os << s.name << "{" << prefix << "quantile=\"" << q << "\"} ";
    append_double(os, v);
    os << "\n";
  }
  os << s.name << "_sum";
  if (!s.labels.empty()) os << "{" << s.labels << "}";
  os << " ";
  append_double(os, s.summary.sum);
  os << "\n" << s.name << "_count";
  if (!s.labels.empty()) os << "{" << s.labels << "}";
  os << " " << s.summary.count << "\n";
}

void histogram_prometheus(std::ostringstream& os, const std::string& name,
                          const LatencyHistogram::Snapshot& h) {
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += h.buckets[i];
    if (i + 1 == LatencyHistogram::kBuckets) {
      // The last bucket saturates (everything ≥ ~2 min), so its true
      // upper bound is infinity, and cumulative == count here.
      os << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    } else {
      os << name << "_bucket{le=\""
         << LatencyHistogram::bucket_upper_us(i) << "\"} " << cumulative
         << "\n";
    }
  }
  os << name << "_sum " << h.total_us << "\n";
  os << name << "_count " << h.count << "\n";
}

}  // namespace

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  // Process-wide collectors live only on the global registry (private test
  // registries stay empty until populated). Destroyed before `registry`
  // (constructed after it), so reset() never dangles.
  static const auto collectors = [] {
    struct GlobalCollectors {
      Registration build_info;
      Registration tracer;
    } c;
    c.build_info = registry.register_collector(
        [](std::vector<MetricSample>& out) {
          MetricSample s = gauge_sample(
              "leaps_build_info",
              "build identity: constant 1, labels carry version/SHA/type", 1);
          s.labels = std::string("version=\"") + util::kVersion +
                     "\",git_sha=\"" + util::kGitSha + "\",build_type=\"" +
                     util::kBuildType + "\",sanitizer=\"" + util::kSanitizer +
                     "\"";
          out.push_back(std::move(s));
        });
    c.tracer = registry.register_collector([](std::vector<MetricSample>& out) {
      out.push_back(counter_sample(
          "leaps_trace_spans_dropped_total",
          "spans lost because the tracer ring was full",
          Tracer::instance().dropped()));
    });
    return c;
  }();
  (void)collectors;
  return registry;
}

MetricRegistry::Owned& MetricRegistry::find_or_create(const std::string& name,
                                                      const std::string& help,
                                                      MetricType type) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = owned_.find(name);
  if (it == owned_.end()) {
    Owned owned;
    owned.type = type;
    owned.help = help;
    switch (type) {
      case MetricType::kCounter:
        owned.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        owned.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        owned.histogram = std::make_unique<LatencyHistogram>();
        break;
      case MetricType::kSummary:
        owned.summary = std::make_unique<Summary>();
        break;
    }
    it = owned_.emplace(name, std::move(owned)).first;
  } else if (it->second.type != type) {
    throw std::logic_error("metric '" + name + "' already registered as " +
                           type_name(it->second.type) + ", requested as " +
                           type_name(type));
  }
  return it->second;
}

Counter& MetricRegistry::counter(const std::string& name,
                                 const std::string& help) {
  return *find_or_create(name, help, MetricType::kCounter).counter;
}

Gauge& MetricRegistry::gauge(const std::string& name,
                             const std::string& help) {
  return *find_or_create(name, help, MetricType::kGauge).gauge;
}

LatencyHistogram& MetricRegistry::histogram(const std::string& name,
                                            const std::string& help) {
  return *find_or_create(name, help, MetricType::kHistogram).histogram;
}

Summary& MetricRegistry::summary(const std::string& name,
                                 const std::string& help) {
  return *find_or_create(name, help, MetricType::kSummary).summary;
}

MetricRegistry::Registration MetricRegistry::register_collector(
    Collector collector) {
  const std::lock_guard<std::mutex> lock(mu_);
  Registration handle;
  handle.registry_ = this;
  handle.id_ = next_collector_id_++;
  collectors_.emplace(handle.id_, std::move(collector));
  return handle;
}

void MetricRegistry::unregister_collector(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(id);
}

void MetricRegistry::Registration::reset() {
  if (registry_ != nullptr) registry_->unregister_collector(id_);
  registry_ = nullptr;
  id_ = 0;
}

std::vector<MetricSample> MetricRegistry::collect() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(owned_.size());
  for (const auto& [name, owned] : owned_) {
    MetricSample s;
    s.name = name;
    s.help = owned.help;
    s.type = owned.type;
    switch (owned.type) {
      case MetricType::kCounter:
        s.counter_value = owned.counter->value();
        break;
      case MetricType::kGauge:
        s.gauge_value = owned.gauge->value();
        break;
      case MetricType::kHistogram:
        s.histogram = owned.histogram->snapshot();
        break;
      case MetricType::kSummary:
        s.summary = owned.summary->snapshot();
        break;
    }
    out.push_back(std::move(s));
  }
  for (const auto& [id, collector] : collectors_) collector(out);
  return out;
}

MetricSample counter_sample(std::string name, std::string help,
                            std::uint64_t value) {
  MetricSample s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.type = MetricType::kCounter;
  s.counter_value = value;
  return s;
}

MetricSample gauge_sample(std::string name, std::string help,
                          std::int64_t value) {
  MetricSample s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.type = MetricType::kGauge;
  s.gauge_value = value;
  return s;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x", static_cast<unsigned>(c));
      out += hex;
      continue;
    }
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

void append_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

void append_histogram_json(std::ostream& os,
                           const LatencyHistogram::Snapshot& h) {
  os << "\"count\":" << h.count << ",\"total_us\":" << h.total_us
     << ",\"max_us\":" << h.max_us << ",\"p50_us\":" << h.quantile_us(0.50)
     << ",\"p95_us\":" << h.quantile_us(0.95)
     << ",\"p99_us\":" << h.quantile_us(0.99) << ",\"le_us\":[";
  // Full bucket shape, not just three pre-chewed quantiles: consumers can
  // compute any quantile. The saturated last bucket has no finite bound;
  // -1 is the JSON stand-in for +Inf (the Prometheus rendering uses
  // le="+Inf").
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (i > 0) os << ",";
    if (i + 1 == LatencyHistogram::kBuckets) {
      os << -1;
    } else {
      os << LatencyHistogram::bucket_upper_us(i);
    }
  }
  os << "],\"buckets\":[";
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (i > 0) os << ",";
    os << h.buckets[i];
  }
  os << "]";
}

void append_summary_json(std::ostream& os, const Summary::Snapshot& s) {
  os << "\"count\":" << s.count << ",\"sum\":";
  append_json_number(os, s.sum);
  os << ",\"min\":";
  append_json_number(os, s.min);
  os << ",\"max\":";
  append_json_number(os, s.max);
  os << ",\"q50\":";
  append_json_number(os, s.q50);
  os << ",\"q90\":";
  append_json_number(os, s.q90);
  os << ",\"q99\":";
  append_json_number(os, s.q99);
}

void append_sample_json(std::ostream& os, const MetricSample& s) {
  switch (s.type) {
    case MetricType::kCounter:
      os << s.counter_value;
      break;
    case MetricType::kGauge:
      os << s.gauge_value;
      break;
    case MetricType::kHistogram:
      os << "{";
      append_histogram_json(os, s.histogram);
      os << "}";
      break;
    case MetricType::kSummary:
      os << "{";
      append_summary_json(os, s.summary);
      os << "}";
      break;
  }
}

std::string samples_to_prometheus(const std::vector<MetricSample>& samples) {
  std::ostringstream os;
  for (const MetricSample& s : samples) {
    if (!s.help.empty()) os << "# HELP " << s.name << " " << s.help << "\n";
    os << "# TYPE " << s.name << " " << type_name(s.type) << "\n";
    switch (s.type) {
      case MetricType::kCounter:
        append_sample_name(os, s);
        os << " " << s.counter_value << "\n";
        break;
      case MetricType::kGauge:
        append_sample_name(os, s);
        os << " " << s.gauge_value << "\n";
        break;
      case MetricType::kHistogram:
        histogram_prometheus(os, s.name, s.histogram);
        break;
      case MetricType::kSummary:
        summary_prometheus(os, s);
        break;
    }
  }
  return os.str();
}

std::string samples_to_json(const std::vector<MetricSample>& samples) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) os << ",";
    first = false;
    os << "\n" << json_string(s.name) << ":{\"type\":\"" << type_name(s.type)
       << "\",";
    if (!s.labels.empty()) os << "\"labels\":" << json_string(s.labels) << ",";
    switch (s.type) {
      case MetricType::kCounter:
        os << "\"value\":" << s.counter_value;
        break;
      case MetricType::kGauge:
        os << "\"value\":" << s.gauge_value;
        break;
      case MetricType::kHistogram:
        append_histogram_json(os, s.histogram);
        break;
      case MetricType::kSummary:
        append_summary_json(os, s.summary);
        break;
    }
    os << "}";
  }
  os << "\n}\n";
  return os.str();
}

std::string MetricRegistry::to_prometheus() const {
  return samples_to_prometheus(collect());
}

std::string MetricRegistry::to_json() const {
  return samples_to_json(collect());
}

}  // namespace leaps::obs
