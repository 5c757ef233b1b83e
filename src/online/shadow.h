// ShadowEvaluator — the canary gate of a rollover.
//
// A staged candidate is judged window by window. The evaluator holds the
// incumbent and the candidate, and score_window() scores one materialized
// window with both through the same path,
// predict(preprocessor().window_features(window)), timing each model on
// that window and recording the (incumbent, candidate) pair. The same
// call serves both gates: online, the OnlineManager's window tap calls it
// for every window of its profile while a candidate is staged; offline,
// `leaps-rollover shadow` calls it (score_log) once per window of a log.
// Once enough windows have been compared, decision() applies judge():
//
//   promote  — disagreement rate <= max_disagreement AND
//              candidate/incumbent latency ratio <= max_latency_ratio,
//   rollback — either gate exceeded,
//   undecided — fewer than min_windows compared (keep shadowing).
//
// A window that either model fails to score counts as a disagreement: a
// candidate that throws on live traffic is not promotable, and the window
// the server already scored, and its session, are untouched by it.
//
// The evaluator only *judges*; acting on the judgment (the registry's
// promote_shadow or rollback_shadow) belongs to the owner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/pipeline.h"
#include "online/verdict_diff.h"
#include "trace/partition.h"

namespace leaps::online {

struct RolloverGates {
  /// Max fraction of compared windows where the candidate disagrees with
  /// the incumbent. Benign drift retraining should barely move verdicts;
  /// a candidate that reclassifies live traffic wholesale is wrong.
  double max_disagreement = 0.02;
  /// Max candidate/incumbent per-window classification cost ratio. A
  /// candidate that is much slower (e.g. support-vector blowup) fails
  /// rollover even when it agrees perfectly.
  double max_latency_ratio = 3.0;
  /// Verdict pairs required before the gates are consulted at all.
  std::uint64_t min_windows = 64;
};

enum class RolloverDecision {
  kUndecided,  // not enough evidence yet
  kPromote,
  kRollback,
};

/// The gates applied to a comparison's evidence.
RolloverDecision judge(const DiffStats& stats, const RolloverGates& gates);

class ShadowEvaluator {
 public:
  /// Both models must score windows of one size (LEAPS_CHECK): pairing
  /// windows of different lengths would compare different traffic.
  ShadowEvaluator(std::shared_ptr<const core::Detector> incumbent,
                  std::shared_ptr<const core::Detector> candidate,
                  RolloverGates gates = {});

  /// Scores one window of window() events with both models and records
  /// the pair; a window of any other length is not scored. Thread-safe
  /// (the detectors are shared const, the diff is atomic) and never
  /// throws, so a window tap may call it.
  void score_window(const trace::PartitionedEvent* events, std::size_t count);

  /// score_window over every whole window of `log`, in order (a trailing
  /// partial window is not scored, as in Detector::scan).
  void score_log(const trace::PartitionedLog& log);

  /// Gate verdict on the evidence so far.
  RolloverDecision decision() const { return judge(stats(), gates_); }
  DiffStats stats() const { return diff_.stats(); }
  std::size_t window() const { return incumbent_->preprocessor().window(); }
  const std::shared_ptr<const core::Detector>& candidate() const {
    return candidate_;
  }

 private:
  const std::shared_ptr<const core::Detector> incumbent_;
  const std::shared_ptr<const core::Detector> candidate_;
  const RolloverGates gates_;
  VerdictDiff diff_;
};

}  // namespace leaps::online
