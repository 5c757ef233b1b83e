#include "obs/sketch.h"

#include <algorithm>
#include <cmath>

#include "util/bytes.h"

namespace leaps::obs {

namespace {

constexpr char kSketchMagic[] = "LPQS1";  // 5 bytes, no NUL in stream
constexpr char kWindowMagic[] = "LPRW1";

using util::put_f64;
using util::put_u16;
using util::put_u32;
using util::put_u64;

}  // namespace

QuantileSketch::QuantileSketch(std::uint16_t k) : k_(std::max<std::uint16_t>(k, 8)) {}

void QuantileSketch::insert(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += 1;
  sum_ += v;
  if (levels_.empty()) {
    levels_.emplace_back();
    levels_.front().reserve(k_);
    keep_odd_.push_back(0);
  }
  levels_[0].push_back(v);
  if (levels_[0].size() >= k_) compact();
}

void QuantileSketch::compact() {
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    std::vector<double>& buf = levels_[lvl];
    if (buf.size() < k_) continue;
    std::sort(buf.begin(), buf.end());
    if (lvl + 1 == levels_.size()) {
      levels_.emplace_back();
      levels_.back().reserve(k_);
      keep_odd_.push_back(0);
      // levels_ may have reallocated; re-reference the buffer.
    }
    std::vector<double>& up = levels_[lvl + 1];
    std::vector<double>& cur = levels_[lvl];
    // Keep every other element, alternating the starting offset between
    // compactions so neither parity is systematically favored. Fully
    // deterministic: state depends only on the insertion sequence.
    const std::size_t offset = keep_odd_[lvl] ? 1 : 0;
    keep_odd_[lvl] = static_cast<std::uint8_t>(1 - keep_odd_[lvl]);
    for (std::size_t i = offset; i < cur.size(); i += 2) up.push_back(cur[i]);
    cur.clear();
  }
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (levels_.size() < other.levels_.size()) {
    levels_.resize(other.levels_.size());
    keep_odd_.resize(other.levels_.size(), 0);
  }
  for (std::size_t lvl = 0; lvl < other.levels_.size(); ++lvl) {
    levels_[lvl].insert(levels_[lvl].end(), other.levels_[lvl].begin(),
                        other.levels_[lvl].end());
  }
  compact();
}

std::vector<std::pair<double, std::uint64_t>> QuantileSketch::weighted_values()
    const {
  std::vector<std::pair<double, std::uint64_t>> out;
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    const std::uint64_t w = std::uint64_t{1} << lvl;
    for (const double v : levels_[lvl]) out.emplace_back(v, w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const std::vector<std::pair<double, std::uint64_t>> wv = weighted_values();
  std::uint64_t total = 0;
  for (const auto& [v, w] : wv) total += w;
  if (total == 0) return min_;
  // Nearest-rank over the weighted sample.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t cum = 0;
  for (const auto& [v, w] : wv) {
    cum += w;
    if (cum >= target) return std::clamp(v, min_, max_);
  }
  return max_;
}

std::string QuantileSketch::serialize() const {
  std::string out;
  out.append(kSketchMagic, sizeof(kSketchMagic) - 1);
  put_u16(out, k_);
  put_u64(out, count_);
  put_f64(out, sum_);
  put_f64(out, min_);
  put_f64(out, max_);
  put_u32(out, static_cast<std::uint32_t>(levels_.size()));
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    out.push_back(static_cast<char>(keep_odd_[lvl]));
    put_u32(out, static_cast<std::uint32_t>(levels_[lvl].size()));
    for (const double v : levels_[lvl]) put_f64(out, v);
  }
  return out;
}

util::StatusOr<QuantileSketch> QuantileSketch::deserialize(
    std::string_view bytes) {
  constexpr std::size_t kMagicLen = sizeof(kSketchMagic) - 1;
  if (bytes.size() < kMagicLen ||
      bytes.substr(0, kMagicLen) != kSketchMagic) {
    return util::corrupt_input("quantile sketch: bad magic");
  }
  util::ByteReader r(bytes.substr(kMagicLen));
  QuantileSketch s(r.u16());
  s.count_ = r.u64();
  s.sum_ = r.f64();
  s.min_ = r.f64();
  s.max_ = r.f64();
  const std::uint32_t n_levels = r.u32();
  if (!r.ok() || n_levels > 64) {
    return util::corrupt_input("quantile sketch: truncated header");
  }
  std::uint64_t retained = 0;
  for (std::uint32_t lvl = 0; lvl < n_levels; ++lvl) {
    const std::uint8_t flag = r.u8();
    const std::uint32_t n = r.u32();
    if (!r.ok() || flag > 1 || n > 4u * s.k_ || !r.count(n, 8)) {
      return util::corrupt_input("quantile sketch: implausible level");
    }
    s.keep_odd_.push_back(flag);
    std::vector<double> level(n);
    for (double& v : level) v = r.f64();
    retained += (std::uint64_t{1} << lvl) * n;
    s.levels_.push_back(std::move(level));
  }
  if (!r.done() || retained != s.count_) {
    return util::corrupt_input("quantile sketch: truncated or inconsistent");
  }
  return s;
}

ReservoirWindow::ReservoirWindow(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(capacity_);
}

void ReservoirWindow::insert(double v) {
  total_ += 1;
  if (ring_.size() < capacity_) {
    ring_.push_back(v);
    return;
  }
  ring_[head_] = v;
  head_ = (head_ + 1) % capacity_;
}

void ReservoirWindow::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

std::vector<double> ReservoirWindow::values() const {
  std::vector<double> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string ReservoirWindow::serialize() const {
  std::string out;
  out.append(kWindowMagic, sizeof(kWindowMagic) - 1);
  put_u64(out, capacity_);
  put_u64(out, total_);
  const std::vector<double> vals = values();  // oldest-first normal form
  put_u32(out, static_cast<std::uint32_t>(vals.size()));
  for (const double v : vals) put_f64(out, v);
  return out;
}

util::StatusOr<ReservoirWindow> ReservoirWindow::deserialize(
    std::string_view bytes) {
  constexpr std::size_t kMagicLen = sizeof(kWindowMagic) - 1;
  if (bytes.size() < kMagicLen ||
      bytes.substr(0, kMagicLen) != kWindowMagic) {
    return util::corrupt_input("reservoir window: bad magic");
  }
  util::ByteReader r(bytes.substr(kMagicLen));
  const std::uint64_t capacity = r.u64();
  const std::uint64_t total = r.u64();
  const std::uint32_t n = r.u32();
  if (!r.ok() || capacity == 0 || capacity > kMaxCapacity || n > capacity ||
      n > total || !r.count(n, 8)) {
    return util::corrupt_input("reservoir window: implausible header");
  }
  // Reserve for the values present, not for the declared capacity.
  ReservoirWindow w(1);
  w.capacity_ = static_cast<std::size_t>(capacity);
  w.ring_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) w.ring_.push_back(r.f64());
  w.total_ = total;
  if (!r.done()) return util::corrupt_input("reservoir window: truncated");
  return w;
}

Summary::Snapshot Summary::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.count = sketch_.count();
  s.sum = sketch_.sum();
  s.min = sketch_.min();
  s.max = sketch_.max();
  s.q50 = sketch_.quantile(0.50);
  s.q90 = sketch_.quantile(0.90);
  s.q99 = sketch_.quantile(0.99);
  return s;
}

}  // namespace leaps::obs
