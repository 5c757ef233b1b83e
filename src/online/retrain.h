// RetrainScheduler — incremental retraining with warm-started SMO.
//
// Periodically re-fits the deployed detector's SVM on its original
// training set *plus* the benign windows the accumulator admitted since
// the last cycle, seeding SMO with the previous model's full dual solution
// (ContinualState::alpha). The old optimum is feasible for the grown
// problem (new rows start at α = 0), so the solver resumes near the
// solution instead of rebuilding it — the measured iteration savings
// versus a cold start are the point of the warm-start machinery, and
// retrain() can run both to record them.
//
// Triggering is pull-based: the owner (OnlineManager, or an operator via
// `leaps-rollover retrain`) polls due() and calls retrain() on its own
// thread; the scheduler never spawns one. A detector loaded from a pre-v2
// file carries no ContinualState — can_retrain() is false and the caller
// must fall back to a cold offline retrain (tools/leaps-train).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/pipeline.h"
#include "ml/svm.h"
#include "online/accumulator.h"

namespace leaps::online {

struct RetrainConfig {
  /// Accumulated benign events that make a retrain due.
  std::uint64_t min_new_events = 2048;
  /// Also run a cold (zero-seed) fit on the same grown dataset to record
  /// the iteration savings. Costs a second SMO solve; disable in
  /// production, keep for evaluation.
  bool measure_cold_baseline = true;
  /// Cap on new windows folded into one retrain (newest kept).
  std::size_t max_new_samples = 1024;
  /// Solver settings for the refit. The kernel is always taken from the
  /// deployed model (a candidate must be comparable to its incumbent);
  /// lambda/epsilon/max_iterations apply as given.
  ml::SvmParams svm;
};

/// What one retrain cycle produced. `candidate` is null when the cycle
/// could not run (see `error`).
struct RetrainResult {
  std::shared_ptr<const core::Detector> candidate;
  std::size_t new_samples = 0;     // windows appended this cycle
  std::size_t train_size = 0;      // total rows of the grown dataset
  std::size_t warm_iterations = 0;
  std::size_t warm_nonzero = 0;    // surviving seed entries
  std::size_t cold_iterations = 0;     // 0 unless measured
  std::size_t iterations_saved = 0;    // max(0, cold - warm), when measured
  bool measured_cold = false;
  std::string error;  // empty on success
};

class RetrainScheduler {
 public:
  /// `accumulator` must outlive the scheduler. `base` is the deployed
  /// detector whose ContinualState anchors the first cycle.
  RetrainScheduler(std::shared_ptr<const core::Detector> base,
                   OnlineCfgAccumulator* accumulator, RetrainConfig config);

  /// False when the base detector carries no ContinualState (pre-v2 model
  /// file): there is no training set to grow, so online retraining is
  /// unavailable and due() never fires.
  bool can_retrain() const;

  /// True when the detector can retrain and enough new benign events have
  /// accumulated.
  bool due() const;

  /// Drains the accumulator and fits a candidate detector. On success the
  /// candidate carries a fresh ContinualState (merged CFG, grown dataset,
  /// new α) and the incumbent's calibrated decision threshold.
  RetrainResult retrain();

  /// Same fit over windows the caller already drained — for callers that
  /// must make the drain atomic with other bookkeeping (OnlineManager
  /// drains under its durability fence so the journaled drain boundary
  /// exactly matches this set) while keeping the training outside it.
  RetrainResult retrain(std::vector<PendingWindow> windows);

  /// Rebase after a promotion: subsequent cycles grow from `promoted`'s
  /// ContinualState instead of the original base.
  void adopt(std::shared_ptr<const core::Detector> promoted);

  std::uint64_t cycles() const;
  const RetrainConfig& config() const { return config_; }

 private:
  const RetrainConfig config_;
  OnlineCfgAccumulator* const accumulator_;
  mutable std::mutex mu_;
  std::shared_ptr<const core::Detector> base_;  // guarded by mu_
  std::uint64_t cycles_ = 0;                     // guarded by mu_
};

}  // namespace leaps::online
