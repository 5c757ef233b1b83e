#include "online/shadow.h"

#include <chrono>
#include <span>
#include <utility>

#include "util/check.h"

namespace leaps::online {

namespace {

struct Scored {
  int label = 0;
  std::uint64_t ns = 0;
};

Scored score(const core::Detector& detector,
             std::span<const trace::PartitionedEvent> window) {
  const auto t0 = std::chrono::steady_clock::now();
  const int label =
      detector.predict(detector.preprocessor().window_features(window));
  const auto t1 = std::chrono::steady_clock::now();
  return {label, static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t1 - t0)
                         .count())};
}

}  // namespace

RolloverDecision judge(const DiffStats& stats, const RolloverGates& gates) {
  if (stats.compared < gates.min_windows) return RolloverDecision::kUndecided;
  if (stats.disagreement_rate() > gates.max_disagreement ||
      stats.latency_ratio() > gates.max_latency_ratio) {
    return RolloverDecision::kRollback;
  }
  return RolloverDecision::kPromote;
}

ShadowEvaluator::ShadowEvaluator(
    std::shared_ptr<const core::Detector> incumbent,
    std::shared_ptr<const core::Detector> candidate, RolloverGates gates)
    : incumbent_(std::move(incumbent)),
      candidate_(std::move(candidate)),
      gates_(gates) {
  LEAPS_CHECK_MSG(incumbent_ != nullptr && candidate_ != nullptr,
                  "shadow evaluation needs an incumbent and a candidate");
  LEAPS_CHECK_MSG(
      candidate_->preprocessor().window() == window(),
      "shadow candidate scores windows of another size than the incumbent");
}

void ShadowEvaluator::score_window(const trace::PartitionedEvent* events,
                                   std::size_t count) {
  if (count != window()) return;
  const std::span<const trace::PartitionedEvent> w(events, count);
  try {
    const Scored active = score(*incumbent_, w);
    const Scored shadow = score(*candidate_, w);
    diff_.record(active.label, shadow.label, active.ns, shadow.ns);
  } catch (...) {
    // An unscorable window is a disagreement, at no recorded cost.
    diff_.record(+1, -1, 0, 0);
  }
}

void ShadowEvaluator::score_log(const trace::PartitionedLog& log) {
  const std::size_t n = window();
  for (std::size_t i = 0; i + n <= log.events.size(); i += n) {
    score_window(log.events.data() + i, n);
  }
}

}  // namespace leaps::online
