// Incremental retraining with warm-started SMO.
//
// retrain() re-fits a deployed detector's SVM on its original training
// set *plus* the benign windows the accumulator admitted since the last
// cycle, seeding SMO with the incumbent's full dual solution
// (ContinualState::alpha) and solving at the incumbent's own λ
// (ContinualState::lambda) and σ². The old optimum is feasible for the
// grown problem (new rows start at α = 0), so the solver resumes near the
// solution instead of rebuilding it — the measured iteration savings
// versus a cold start are the point of the warm-start machinery, and
// retrain() can run both to record them.
//
// It is a function of the incumbent it is handed: the owner (OnlineManager,
// which reads the incumbent from the server's registry, or an operator via
// `leaps-rollover retrain`) decides when a cycle is due, drains the
// accumulator and calls it. A detector loaded from a
// pre-v2 file carries no ContinualState — retrain() reports that, and the
// caller must fall back to a cold offline retrain (tools/leaps-train).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "online/accumulator.h"

namespace leaps::online {

struct RetrainConfig {
  /// Accumulated benign events that make a retrain due (OnlineManager's
  /// volume trigger).
  std::uint64_t min_new_events = 2048;
  /// Also run a cold (zero-seed) fit on the same grown dataset to record
  /// the iteration savings. Costs a second SMO solve; disable in
  /// production, keep for evaluation.
  bool measure_cold_baseline = true;
  /// Cap on new windows folded into one retrain (newest kept).
  std::size_t max_new_samples = 1024;
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

/// Fits a candidate from `incumbent` and the `windows` the caller drained
/// from `accumulator` (the newest `config.max_new_samples` are kept). On
/// success the candidate carries the incumbent's decision threshold and a
/// fresh ContinualState: the accumulator's CFG as snapshotted after the
/// fit, the grown dataset, the new α and the incumbent's λ.
RetrainResult retrain(const core::Detector& incumbent,
                      std::vector<PendingWindow> windows,
                      OnlineCfgAccumulator& accumulator,
                      const RetrainConfig& config);

}  // namespace leaps::online
