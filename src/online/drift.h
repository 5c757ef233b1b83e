// DriftMonitor — distribution-shift detection over SVM decision values.
//
// The serving layer's verdicts carry the raw decision value f(x); its
// distribution is the model-health signal. For each detector generation
// the monitor first *freezes a reference window* (the first
// `reference_target` values the generation scores — what "normal" looks
// like right after training), then maintains a sliding *live window* of
// the most recent values. A two-sample Kolmogorov–Smirnov test between
// the two fires a retrain trigger when the live distribution has drifted
// from the reference with p below `p_threshold`.
//
// Everything here is deterministic: the reference is a plain prefix, the
// live window is a FIFO ring, and the per-generation quantile sketch uses
// the deterministic compaction in obs/sketch.h — so the monitor's full
// state is a pure function of the observation sequence. That is what lets
// durability replay (journal the values, re-observe them in order)
// recover the monitor byte-exactly and re-fire a lost trigger at the same
// point in the sequence.
//
// Generations: advance_generation() (called on promotion) resets the
// reference/live windows and starts a fresh sketch — a newly promoted
// model has a new "normal". Per-generation verdict mixes are kept for the
// status surface.
//
// Thread-safety: all members serialize on one internal mutex; observe()
// runs on server worker threads, evaluate()/consume_trigger() on
// whichever thread steps the online manager.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sketch.h"
#include "util/status.h"

namespace leaps::online {

struct DriftOptions {
  /// Largest reference_target and live_window whose state a checkpoint
  /// can restore (deserialize() rejects longer windows, and the
  /// DriftMonitor constructor rejects larger options).
  static constexpr std::size_t kMaxWindow = obs::ReservoirWindow::kMaxCapacity;

  /// Master switch; a disabled monitor observes nothing and never fires.
  bool enabled = false;
  /// Values that freeze the reference window (per generation).
  std::size_t reference_target = 256;
  /// Capacity of the live FIFO window compared against the reference.
  std::size_t live_window = 128;
  /// Live values required before the KS test is consulted.
  std::size_t min_live = 64;
  /// Fire when the two-sample KS p-value drops below this.
  double p_threshold = 0.01;
};

/// One generation's verdict mix (for the status surface).
struct GenerationMix {
  std::uint64_t benign = 0;
  std::uint64_t malicious = 0;
};

/// A coherent reading of the monitor (all plain values).
struct DriftStatus {
  bool enabled = false;
  std::uint32_t generation = 0;
  std::uint64_t observed = 0;        // values seen, current generation
  std::size_t reference_size = 0;
  bool reference_frozen = false;
  std::size_t live_size = 0;
  double ks_statistic = 0.0;         // from the most recent evaluation
  double p_value = 1.0;              // from the most recent evaluation
  std::uint64_t evaluations = 0;
  std::uint64_t triggers = 0;
  bool trigger_pending = false;
  obs::Summary::Snapshot sketch;     // current generation's decision values
  std::vector<GenerationMix> generations;  // index = generation number
};

class DriftMonitor {
 public:
  /// Throws std::invalid_argument when reference_target or live_window
  /// exceeds DriftOptions::kMaxWindow: a checkpoint of such a monitor
  /// could not be restored.
  explicit DriftMonitor(DriftOptions options = {});

  const DriftOptions& options() const { return options_; }

  /// Feeds one scored window's decision value and verdict label. Builds
  /// the reference until it freezes, then the live window; always feeds
  /// the generation sketch and verdict mix.
  void observe(double decision_value, int label);

  /// Runs the KS test (when the reference is frozen, the live window has
  /// at least min_live values, and no trigger is already pending) and
  /// latches a trigger on p < p_threshold. Returns true when a trigger is
  /// pending after the call. Deterministic: same observation sequence and
  /// call points → same result.
  bool evaluate();

  /// True when a drift trigger has fired and not yet been consumed.
  bool trigger_pending() const;

  /// Claims a pending trigger: returns false when none; otherwise clears
  /// it and resets the live window (natural cooldown — the test is not
  /// re-armed until a fresh live window accumulates).
  bool consume_trigger();

  /// Re-latches a trigger recovered from the journal (crash after the
  /// trigger record landed but before the retrain consumed it).
  void restore_trigger();

  /// New detector generation (promotion): resets reference, live window
  /// and sketch; verdict mixes of past generations are retained.
  void advance_generation();

  DriftStatus status() const;

  /// Full monitor state, little-endian, magic-tagged; deserialize() of
  /// the result reconstructs a monitor that compares equal (options are
  /// NOT serialized — the caller configures them).
  std::string serialize() const;
  util::Status deserialize(std::string_view bytes);

  /// Byte-exact state comparison (ignores options).
  bool operator==(const DriftMonitor& other) const;

  /// Two-sample KS statistic D = sup |F_a − F_b|; inputs need not be
  /// sorted. Returns 0 when either sample is empty.
  static double ks_statistic(std::vector<double> a, std::vector<double> b);

  /// Asymptotic two-sample KS p-value for statistic `d` over sample sizes
  /// n and m (Numerical-Recipes Q_KS with the small-sample correction).
  static double ks_p_value(double d, std::size_t n, std::size_t m);

 private:
  const DriftOptions options_;
  mutable std::mutex mu_;
  std::uint32_t generation_ = 0;            // guarded by mu_
  std::uint64_t observed_ = 0;              // current generation
  std::vector<double> reference_;           // frozen prefix when full
  bool reference_frozen_ = false;
  obs::ReservoirWindow live_;               // FIFO of recent values
  obs::QuantileSketch sketch_;              // current generation
  double last_ks_ = 0.0;
  double last_p_ = 1.0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t triggers_ = 0;
  bool trigger_pending_ = false;
  std::vector<GenerationMix> generations_;  // index = generation
};

}  // namespace leaps::online
