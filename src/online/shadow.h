// ShadowEvaluator — the canary gate of a rollover.
//
// While a candidate detector shadows live sessions (serve::Session runs
// both streams window-aligned), every (active, shadow) verdict pair and
// its per-model classification cost land here via record(), which matches
// the serve::ShadowSink signature. Once enough windows have been compared,
// decision() applies the gates:
//
//   promote  — disagreement rate <= max_disagreement AND
//              shadow/active latency ratio <= max_latency_ratio,
//   rollback — either gate exceeded,
//   undecided — fewer than min_windows compared (keep shadowing).
//
// The evaluator only *judges*; acting on the judgment (the registry swap
// or the rollback) belongs to the owner. In particular record() runs under
// session mutexes, so the decision must be polled from another thread —
// never acted on inside the sink (detaching shadows retakes those same
// session mutexes).
#pragma once

#include <cstdint>

#include "online/verdict_diff.h"
#include "serve/session.h"

namespace leaps::online {

struct RolloverGates {
  /// Max fraction of compared windows where the candidate disagrees with
  /// the incumbent. Benign drift retraining should barely move verdicts;
  /// a candidate that reclassifies live traffic wholesale is wrong.
  double max_disagreement = 0.02;
  /// Max shadow/active per-window classification cost ratio. A candidate
  /// that is much slower (e.g. support-vector blowup) fails rollover even
  /// when it agrees perfectly.
  double max_latency_ratio = 3.0;
  /// Verdict pairs required before the gates are consulted at all.
  std::uint64_t min_windows = 64;
};

enum class RolloverDecision {
  kUndecided,  // not enough evidence yet
  kPromote,
  kRollback,
};

class ShadowEvaluator {
 public:
  explicit ShadowEvaluator(RolloverGates gates = {}) : gates_(gates) {}

  /// serve::ShadowSink-compatible; thread-safe and wait-free.
  void record(const serve::SessionKey& /*key*/, int active_label,
              int shadow_label, std::uint64_t active_ns,
              std::uint64_t shadow_ns) {
    diff_.record(active_label, shadow_label, active_ns, shadow_ns);
  }

  /// Gate verdict on the evidence so far.
  RolloverDecision decision() const {
    const DiffStats s = diff_.stats();
    if (s.compared < gates_.min_windows) return RolloverDecision::kUndecided;
    if (s.disagreement_rate() > gates_.max_disagreement ||
        s.latency_ratio() > gates_.max_latency_ratio) {
      return RolloverDecision::kRollback;
    }
    return RolloverDecision::kPromote;
  }

  DiffStats stats() const { return diff_.stats(); }
  const RolloverGates& gates() const { return gates_; }
  void reset() { diff_.reset(); }

 private:
  RolloverGates gates_;
  VerdictDiff diff_;
};

}  // namespace leaps::online
