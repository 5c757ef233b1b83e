#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.h"
#include "obs/trace.h"

namespace bench {

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> t_open;
}  // namespace

SpanRecorder& spans() {
  static SpanRecorder recorder;
  return recorder;
}

void import_program_spans() {
  // Both clocks are monotonic; their offset is read once, back to back.
  const std::uint64_t ours = now_ns();
  const std::uint64_t theirs = leaps::obs::Tracer::now_ns();
  std::vector<leaps::obs::SpanRecord> program =
      leaps::obs::Tracer::instance().snapshot();
  // Outer spans first, so nested program spans find their program parent.
  std::sort(program.begin(), program.end(), [](const auto& a, const auto& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.dur_ns > b.dur_ns;
  });
  for (const leaps::obs::SpanRecord& s : program) {
    const std::uint64_t start = s.start_ns + ours - theirs;
    spans().adopt(s.name, start, start + s.dur_ns, s.tid);
  }
}

void SpanRecorder::adopt(const char* name, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint32_t thread) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  // The parent is the shortest recorded span that encloses this one.
  std::int64_t parent = -1;
  std::uint64_t parent_len = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& c = spans_[i];
    const std::uint64_t len = c.end_ns - c.start_ns;
    if ((c.thread == 0 || c.thread == thread) && c.start_ns <= start_ns &&
        end_ns <= c.end_ns && (parent < 0 || len < parent_len)) {
      parent = static_cast<std::int64_t>(i);
      parent_len = len;
    }
  }
  spans_.push_back({name, start_ns, end_ns, parent, 0, thread});
}

std::int64_t SpanRecorder::open(const char* name, std::uint64_t id) {
  if (!enabled_) return -1;
  const std::uint64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({name, start, start, t_open.empty() ? -1 : t_open.back(),
                    id});
  t_open.push_back(index);
  return index;
}

void SpanRecorder::close(std::int64_t index) {
  if (index < 0) return;
  const std::uint64_t end = now_ns();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
  }
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

void SpanRecorder::add(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::int64_t parent,
                       std::uint64_t id) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, id});
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<std::string> SpanRecorder::self_time_table() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  struct Row {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_name;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(spans_[c].start_ns, s.start_ns);
      const std::uint64_t b = std::min(spans_[c].end_ns, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = 0;
    for (const auto& [a, b] : iv) {
      const std::uint64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const double self_ms =
        static_cast<double>(dur - std::min(dur, covered)) / 1e6;
    Row& row = by_name[s.name];
    ++row.count;
    row.total_ms += static_cast<double>(dur) / 1e6;
    row.self_ms += self_ms;
    const std::string name = s.name;
    by_layer[name.substr(0, name.find('.'))] += self_ms;
  }
  std::vector<std::string> out;
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %9s %12s %12s", "span", "count",
                "total_ms", "self_ms");
  out.emplace_back(line);
  for (const auto& [name, row] : by_name) {
    std::snprintf(line, sizeof line, "%-28s %9zu %12.3f %12.3f",
                  name.c_str(), row.count, row.total_ms, row.self_ms);
    out.emplace_back(line);
  }
  for (const auto& [layer, self_ms] : by_layer) {
    std::snprintf(line, sizeof line, "layer %-22s self %12.3f ms",
                  layer.c_str(), self_ms);
    out.emplace_back(line);
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  for (const SpanRecord& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"id\":" << s.id << ",\"thread\":" << s.thread << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace bench
