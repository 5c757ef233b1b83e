// OnlineCfgAccumulator — Algorithm 1, running forever.
//
// Training infers the benign CFG from one recorded log; serving sees an
// endless benign stream the recorded log never covered. The accumulator
// consumes classified-benign windows straight off the serving path (the
// server's WindowTap) and folds their control flow into the benign CFG
// *incrementally*: each batch of buffered windows is run through the same
// CfgInference as training and its edges merged into the running graph —
// edges only accumulate, so a merge is a set union, never a rebuild.
//
// Poisoning guard: a camouflaged attacker that slips a malicious window
// past the active detector must not thereby teach the next detector that
// its control flow is benign. Every observed window is scored against the
// *current* merged benign CFG (mean WeightAssessor::node_benignity over
// its application frames); windows below the admission floor are folded
// into neither the CFG nor the retraining set, and are counted as
// rejected. Self-training only on samples the program analysis already
// vouches for is the LEAPS answer to the classic self-training trap.
//
// Threading: observe_window() is called under session mutexes from worker
// threads — it only appends to a pending buffer under the accumulator's
// own mutex (no inference, no allocation beyond the copy). The fold — the
// expensive part — runs when a batch fills or when a retrain asks for a
// snapshot, on whichever thread that is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "cfg/graph.h"
#include "cfg/inference.h"
#include "trace/partition.h"

namespace leaps::online {

struct AccumulatorOptions {
  /// Pending windows are folded into the CFG once their events reach this
  /// count (amortizes inference); every snapshot and drain folds first.
  std::size_t fold_batch_events = 256;
  /// Admission floor: windows whose mean frame benignity against the
  /// current merged CFG falls below this are rejected (poisoning guard).
  /// 0 admits everything (the graph still only grows).
  double admit_floor = 0.25;
  /// Bound on windows retained for the next retraining pass; when full,
  /// the oldest retained window is evicted (counted, never silent).
  std::size_t max_pending_windows = 4096;
  cfg::InferenceOptions inference;
};

struct AccumulatorStats {
  std::uint64_t windows_observed = 0;
  std::uint64_t windows_admitted = 0;
  std::uint64_t windows_rejected = 0;  // below the admission floor
  std::uint64_t windows_evicted = 0;   // retention bound hit
  std::uint64_t events_folded = 0;
  std::uint64_t edges_added = 0;  // new edges merged into the benign CFG
  std::uint64_t folds = 0;
};

/// One admitted window, retained for the next retraining pass.
struct PendingWindow {
  std::vector<trace::PartitionedEvent> events;
  double benignity = 1.0;  // CFG-derived, at admission time
};

class OnlineCfgAccumulator {
 public:
  /// Seeds the merged CFG with the deployed detector's benign graph (the
  /// ContinualState CFG — pass a default-constructed graph to start empty).
  OnlineCfgAccumulator(cfg::AddressGraph base_cfg,
                       AccumulatorOptions options = {});

  /// Feeds one classified-benign window (label +1) from the serving path.
  /// Cheap: copies the events into the pending batch; folding happens on
  /// batch boundaries. Thread-safe.
  void observe_window(const trace::PartitionedEvent* events,
                      std::size_t count);

  /// Copy of the current merged benign CFG (after folding pending data).
  cfg::AddressGraph graph_snapshot();

  /// Drains the admitted windows retained for retraining (after folding);
  /// the internal retention buffer is left empty.
  std::vector<PendingWindow> drain_windows();

  /// Copy of the admitted-but-undrained windows (after folding), without
  /// disturbing them — what a durability checkpoint folds into the
  /// snapshot so a crash loses no retained window.
  std::vector<PendingWindow> pending_snapshot();

  /// Events observed since construction or the last drain — the retrain
  /// trigger's progress counter. Thread-safe.
  std::uint64_t events_since_drain() const;

  AccumulatorStats stats() const;

 private:
  // Requires lock held.
  void fold_locked();

  const AccumulatorOptions options_;
  mutable std::mutex mu_;
  cfg::AddressGraph graph_;                       // guarded by mu_
  std::vector<PendingWindow> batch_;              // awaiting fold
  std::size_t batch_events_ = 0;                  // events in batch_
  std::deque<PendingWindow> retained_;            // admitted, for retrain
  std::uint64_t events_since_drain_ = 0;          // guarded by mu_
  AccumulatorStats stats_;                        // guarded by mu_
};

}  // namespace leaps::online
