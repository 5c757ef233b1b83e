#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/registry.h"

namespace leaps::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Dense thread numbering plus the per-thread nesting depth. Chrome's
/// trace viewer groups events by (pid, tid); real thread ids are opaque
/// 64-bit values, so spans carry a small stable number instead.
struct ThreadState {
  std::uint32_t tid;
  std::uint32_t depth = 0;
};

ThreadState& thread_state() {
  static std::atomic<std::uint32_t> next_tid{1};
  thread_local ThreadState state{next_tid.fetch_add(1, kRelaxed)};
  return state;
}

std::chrono::steady_clock::time_point& epoch() {
  static std::chrono::steady_clock::time_point t =
      std::chrono::steady_clock::now();
  return t;
}

}  // namespace

Tracer::Tracer() : slots_(new Slot[kCapacity]) {
  epoch();  // pin t=0 at tracer creation
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, std::uint32_t depth) {
  const std::uint64_t idx = next_.fetch_add(1, kRelaxed);
  if (idx >= kCapacity) {
    dropped_.fetch_add(1, kRelaxed);
    return;
  }
  Slot& slot = slots_[idx];
  slot.rec = SpanRecord{name, start_ns, dur_ns, thread_state().tid, depth};
  slot.ready.store(true, std::memory_order_release);
}

std::vector<SpanRecord> Tracer::snapshot() const {
  const std::uint64_t n =
      std::min<std::uint64_t>(next_.load(kRelaxed), kCapacity);
  std::vector<SpanRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    // Acquire pairs with the writer's release: a ready slot's record is
    // fully visible. A claimed-but-unwritten slot is simply skipped.
    if (slots_[i].ready.load(std::memory_order_acquire)) {
      out.push_back(slots_[i].rec);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const { return snapshot().size(); }

void Tracer::clear() {
  const std::uint64_t n =
      std::min<std::uint64_t>(next_.load(kRelaxed), kCapacity);
  for (std::uint64_t i = 0; i < n; ++i) {
    slots_[i].ready.store(false, kRelaxed);
  }
  dropped_.store(0, kRelaxed);
  next_.store(0, std::memory_order_release);
}

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanRecord> spans = snapshot();
  std::string out;
  out.reserve(spans.size() * 96 + 16);
  out += "[";
  char buf[160];
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":" + json_string(s.name);
    std::snprintf(buf, sizeof buf,
                  ",\"cat\":\"leaps\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"depth\":%u}}",
                  static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0, s.tid, s.depth);
    out += buf;
  }
  out += "\n]\n";
  return out;
}

std::string Tracer::profile_text() const {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t min_start_ns = ~std::uint64_t{0};
  };
  const std::vector<SpanRecord> spans = snapshot();
  std::map<std::pair<std::uint32_t, std::string>, Agg> by_stage;
  for (const SpanRecord& s : spans) {
    Agg& a = by_stage[{s.depth, s.name}];
    a.count += 1;
    a.total_ns += s.dur_ns;
    a.max_ns = std::max(a.max_ns, s.dur_ns);
    a.min_start_ns = std::min(a.min_start_ns, s.start_ns);
  }
  // First-start order: for a deterministic pipeline this lays parents
  // before their children and stages in execution order.
  std::vector<std::pair<const std::pair<std::uint32_t, std::string>*,
                        const Agg*>>
      rows;
  rows.reserve(by_stage.size());
  for (const auto& [key, agg] : by_stage) rows.push_back({&key, &agg});
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second->min_start_ns < b.second->min_start_ns;
  });

  std::ostringstream os;
  os << "trace profile: " << spans.size() << " spans";
  if (dropped() > 0) os << " (" << dropped() << " dropped, ring full)";
  os << "\n";
  char line[192];
  std::snprintf(line, sizeof line, "  %-36s %8s %12s %12s %12s\n", "stage",
                "count", "total ms", "mean ms", "max ms");
  os << line;
  for (const auto& [key, agg] : rows) {
    const std::string name =
        std::string(2 * key->first, ' ') + key->second;
    const double total_ms = static_cast<double>(agg->total_ns) / 1e6;
    std::snprintf(line, sizeof line, "  %-36s %8llu %12.3f %12.3f %12.3f\n",
                  name.c_str(),
                  static_cast<unsigned long long>(agg->count), total_ms,
                  total_ms / static_cast<double>(agg->count),
                  static_cast<double>(agg->max_ns) / 1e6);
    os << line;
  }
  // Footer: ring-drop accounting, always present so silent span loss (or
  // its absence) is explicit. The same value is scraped as the
  // leaps_trace_spans_dropped_total counter.
  os << "  spans recorded: " << spans.size() << ", dropped: " << dropped()
     << " (ring capacity " << kCapacity << ")\n";
  return os.str();
}

void Span::begin(const char* name) {
  name_ = name;
  start_ns_ = Tracer::now_ns();
  depth_ = thread_state().depth++;
  active_ = true;
}

void Span::end() {
  --thread_state().depth;
  // A span that straddles a disable still records: the slot was the deal
  // when it started, and dropping it would warp the profile's totals.
  Tracer::instance().record(name_, start_ns_, Tracer::now_ns() - start_ns_,
                            depth_);
}

}  // namespace leaps::obs
