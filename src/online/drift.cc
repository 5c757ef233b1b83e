#include "online/drift.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/bytes.h"

namespace leaps::online {

namespace {

constexpr std::string_view kMagic = "LPDM1";

using util::put_f64;
using util::put_u32;
using util::put_u64;
using util::put_u8;

DriftOptions restorable(DriftOptions options) {
  if (options.reference_target > DriftOptions::kMaxWindow ||
      options.live_window > DriftOptions::kMaxWindow) {
    throw std::invalid_argument(
        "drift windows must be <= " +
        std::to_string(DriftOptions::kMaxWindow) +
        " values, or a checkpoint cannot restore them");
  }
  return options;
}

}  // namespace

DriftMonitor::DriftMonitor(DriftOptions options)
    : options_(restorable(std::move(options))),
      live_(std::max<std::size_t>(1, options_.live_window)) {
  generations_.resize(1);
}

void DriftMonitor::observe(double decision_value, int label) {
  if (!options_.enabled) return;
  const std::lock_guard<std::mutex> lock(mu_);
  ++observed_;
  sketch_.insert(decision_value);
  GenerationMix& mix = generations_[generation_];
  if (label == 1) {
    ++mix.benign;
  } else {
    ++mix.malicious;
  }
  if (!reference_frozen_) {
    reference_.push_back(decision_value);
    if (reference_.size() >= options_.reference_target) {
      reference_frozen_ = true;
    }
    return;
  }
  live_.insert(decision_value);
}

bool DriftMonitor::evaluate() {
  if (!options_.enabled) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  if (trigger_pending_) return true;
  if (!reference_frozen_ || live_.size() < options_.min_live) return false;
  ++evaluations_;
  last_ks_ = ks_statistic(reference_, live_.values());
  last_p_ = ks_p_value(last_ks_, reference_.size(), live_.size());
  if (last_p_ < options_.p_threshold) {
    trigger_pending_ = true;
    ++triggers_;
  }
  return trigger_pending_;
}

bool DriftMonitor::trigger_pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return trigger_pending_;
}

bool DriftMonitor::consume_trigger() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!trigger_pending_) return false;
  trigger_pending_ = false;
  // Cooldown: the comparison re-arms only after a fresh live window has
  // accumulated, so one sustained shift fires once per retrain, not once
  // per poll.
  live_.clear();
  return true;
}

void DriftMonitor::restore_trigger() {
  const std::lock_guard<std::mutex> lock(mu_);
  trigger_pending_ = true;
}

void DriftMonitor::advance_generation() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  generations_.resize(generation_ + 1);
  observed_ = 0;
  reference_.clear();
  reference_frozen_ = false;
  live_.clear();
  sketch_ = obs::QuantileSketch(sketch_.k());
  last_ks_ = 0.0;
  last_p_ = 1.0;
  trigger_pending_ = false;
}

DriftStatus DriftMonitor::status() const {
  DriftStatus s;
  s.enabled = options_.enabled;
  const std::lock_guard<std::mutex> lock(mu_);
  s.generation = generation_;
  s.observed = observed_;
  s.reference_size = reference_.size();
  s.reference_frozen = reference_frozen_;
  s.live_size = live_.size();
  s.ks_statistic = last_ks_;
  s.p_value = last_p_;
  s.evaluations = evaluations_;
  s.triggers = triggers_;
  s.trigger_pending = trigger_pending_;
  s.sketch.count = sketch_.count();
  s.sketch.sum = sketch_.sum();
  s.sketch.min = sketch_.min();
  s.sketch.max = sketch_.max();
  s.sketch.q50 = sketch_.quantile(0.50);
  s.sketch.q90 = sketch_.quantile(0.90);
  s.sketch.q99 = sketch_.quantile(0.99);
  s.generations = generations_;
  return s;
}

std::string DriftMonitor::serialize() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out(kMagic);
  put_u32(out, generation_);
  put_u64(out, observed_);
  put_u8(out, reference_frozen_ ? 1 : 0);
  put_u8(out, trigger_pending_ ? 1 : 0);
  put_f64(out, last_ks_);
  put_f64(out, last_p_);
  put_u64(out, evaluations_);
  put_u64(out, triggers_);
  put_u32(out, static_cast<std::uint32_t>(reference_.size()));
  for (const double v : reference_) put_f64(out, v);
  util::put_bytes(out, live_.serialize());
  util::put_bytes(out, sketch_.serialize());
  put_u32(out, static_cast<std::uint32_t>(generations_.size()));
  for (const GenerationMix& mix : generations_) {
    put_u64(out, mix.benign);
    put_u64(out, mix.malicious);
  }
  return out;
}

util::Status DriftMonitor::deserialize(std::string_view bytes) {
  if (bytes.substr(0, kMagic.size()) != kMagic) {
    return util::corrupt_input("drift state: bad magic");
  }
  util::ByteReader r(bytes.substr(kMagic.size()));
  const std::uint32_t generation = r.u32();
  const std::uint64_t observed = r.u64();
  const std::uint8_t frozen = r.u8();
  const std::uint8_t pending = r.u8();
  const double last_ks = r.f64();
  const double last_p = r.f64();
  const std::uint64_t evaluations = r.u64();
  const std::uint64_t triggers = r.u64();
  const std::uint32_t ref_n = r.u32();
  if (!r.ok() || ref_n > DriftOptions::kMaxWindow) {
    return util::corrupt_input("drift state: truncated header");
  }
  if (!r.count(ref_n, 8)) {
    return util::corrupt_input("drift state: truncated reference");
  }
  std::vector<double> reference(ref_n);
  for (double& v : reference) v = r.f64();
  const std::string_view live_bytes = r.bytes();
  const std::string_view sketch_bytes = r.bytes();
  const std::uint32_t gen_n = r.u32();
  if (!r.ok() || gen_n == 0 || gen_n > (1u << 20) ||
      gen_n != generation + 1) {
    return util::corrupt_input("drift state: truncated windows");
  }
  auto live = obs::ReservoirWindow::deserialize(live_bytes);
  if (!live.ok()) return live.status();
  auto sketch = obs::QuantileSketch::deserialize(sketch_bytes);
  if (!sketch.ok()) return sketch.status();
  if (!r.count(gen_n, 16)) {
    return util::corrupt_input("drift state: truncated generation mix");
  }
  std::vector<GenerationMix> generations(gen_n);
  for (GenerationMix& mix : generations) {
    mix.benign = r.u64();
    mix.malicious = r.u64();
  }
  if (!r.done()) return util::corrupt_input("drift state: trailing bytes");
  const std::lock_guard<std::mutex> lock(mu_);
  generation_ = generation;
  observed_ = observed;
  reference_frozen_ = frozen != 0;
  trigger_pending_ = pending != 0;
  last_ks_ = last_ks;
  last_p_ = last_p;
  evaluations_ = evaluations;
  triggers_ = triggers;
  reference_ = std::move(reference);
  live_ = *std::move(live);
  sketch_ = *std::move(sketch);
  generations_ = std::move(generations);
  return util::ok_status();
}

bool DriftMonitor::operator==(const DriftMonitor& other) const {
  // Ordered lock irrelevant: comparison is test/drill-only, single caller.
  const std::lock_guard<std::mutex> lock(mu_);
  const std::lock_guard<std::mutex> other_lock(other.mu_);
  return generation_ == other.generation_ && observed_ == other.observed_ &&
         reference_frozen_ == other.reference_frozen_ &&
         trigger_pending_ == other.trigger_pending_ &&
         last_ks_ == other.last_ks_ && last_p_ == other.last_p_ &&
         evaluations_ == other.evaluations_ &&
         triggers_ == other.triggers_ && reference_ == other.reference_ &&
         live_ == other.live_ && sketch_ == other.sketch_ &&
         generations_.size() == other.generations_.size() &&
         std::equal(generations_.begin(), generations_.end(),
                    other.generations_.begin(),
                    [](const GenerationMix& a, const GenerationMix& b) {
                      return a.benign == b.benign &&
                             a.malicious == b.malicious;
                    });
}

double DriftMonitor::ks_statistic(std::vector<double> a,
                                  std::vector<double> b) {
  if (a.empty() || b.empty()) return 0.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na -
                              static_cast<double>(j) / nb));
  }
  return d;
}

double DriftMonitor::ks_p_value(double d, std::size_t n, std::size_t m) {
  if (n == 0 || m == 0 || d <= 0.0) return 1.0;
  const double ne = static_cast<double>(n) * static_cast<double>(m) /
                    static_cast<double>(n + m);
  const double sqrt_ne = std::sqrt(ne);
  const double lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d;
  // Q_KS(λ) = 2 Σ_{j≥1} (−1)^{j−1} e^{−2 j² λ²}; alternating and rapidly
  // convergent, so stop once a term stops mattering.
  double sum = 0.0;
  double sign = 1.0;
  const double l2 = -2.0 * lambda * lambda;
  for (int j = 1; j <= 100; ++j) {
    const double term = sign * std::exp(l2 * j * j);
    sum += term;
    if (std::fabs(term) < 1e-12 * std::fabs(sum) ||
        std::fabs(term) < 1e-300) {
      break;
    }
    sign = -sign;
  }
  const double p = 2.0 * sum;
  return std::min(1.0, std::max(0.0, p));
}

}  // namespace leaps::online
