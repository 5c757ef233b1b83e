// The LEAPS training pipeline (Figure 1) and the trained detector.
//
// prepare() runs the full front half of the workflow on a (benign, mixed)
// pair of partitioned logs:
//   Stack-partitioned events
//     → Data Preprocessing (clustered {Event_Type, Lib, Func} tuples,
//        coalesced into windows)                                → features
//     → CFG Inference on both application stack traces (Alg. 1)
//     → Weight Assessment mixed-vs-benign (Alg. 2)              → benignity
//     → per-window SVM weights  c = 1 − mean benignity.
//
// fit_detector() adds the rest of the Training Phase: scaler → optional CV
// tune → (W)SVM → Detector.
//
// The benignity→c flip is deliberate (see DESIGN.md): Algorithm 2 measures
// *benignity*, while Eqn. 2's cᵢ is the importance of a *negative* training
// sample — a mixed-log window that the CFG proves benign must not act as a
// malicious exemplar.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "cfg/alignment.h"
#include "cfg/inference.h"
#include "cfg/weight.h"
#include "core/preprocess.h"
#include "ml/cross_validation.h"
#include "ml/dataset.h"
#include "ml/scaler.h"
#include "ml/svm.h"
#include "trace/partition.h"

namespace leaps::core {

struct PipelineOptions {
  PreprocessOptions preprocess;
  cfg::InferenceOptions inference;
  /// Benignity assumed for mixed events with no application frames at all.
  double default_benignity = 1.0;
  /// Align the mixed CFG to the benign CFG structurally before weight
  /// assessment (Section VI-A extension). Required for source-level
  /// trojans, where recompilation shifts every address; harmless (pivots
  /// are identities) for the binary attacks of Table I.
  bool align_cfgs = false;
  cfg::AlignmentOptions alignment;
};

/// Everything prepare() learns from one (benign, mixed) training pair.
struct TrainingData {
  Preprocessor preprocessor;  // fitted on both logs
  /// Positive samples: label +1, weight 1.
  ml::Dataset benign;
  /// Negative samples: label -1, weight = CFG-derived maliciousness.
  ml::Dataset mixed;
  /// Window → source-event indices (for the CGraph baseline and tests).
  WindowedData benign_windows;
  WindowedData mixed_windows;
  /// Diagnostics: the inferred CFGs and raw per-event benignity.
  cfg::InferredCfg benign_cfg;
  cfg::InferredCfg mixed_cfg;
  std::map<std::uint64_t, double> event_benignity;  // seq → [0,1]
  /// Populated when PipelineOptions::align_cfgs is set.
  cfg::Alignment alignment;
};

struct MixedSamples {
  ml::Dataset samples;  // one row per mixed window: label -1, weight cᵢ
  std::map<std::uint64_t, double> event_benignity;  // seq → [0,1]
  cfg::Alignment alignment;  // populated when align_cfgs is set
};

/// The one copy of the weight rule, for prepare() and train_universal():
/// optional CFG alignment, Algorithm 2, a frame-density score for events no
/// path maps to, then cᵢ = mean over a window of 1 − clamp(benignity).
MixedSamples assess_mixed_windows(const trace::PartitionedLog& benign_log,
                                  const trace::PartitionedLog& mixed_log,
                                  const cfg::InferredCfg& benign_cfg,
                                  const cfg::InferredCfg& mixed_cfg,
                                  const WindowedData& mixed_windows,
                                  const PipelineOptions& options);

class LeapsPipeline {
 public:
  explicit LeapsPipeline(PipelineOptions options = {}) : options_(options) {}

  TrainingData prepare(const trace::PartitionedLog& benign_log,
                       const trace::PartitionedLog& mixed_log) const;

  const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
};

/// Everything a later *incremental* retraining run needs to continue from
/// this detector instead of starting cold (the continual-learning state of
/// src/online/):
///   * the benign CFG the weights were assessed against — live benign
///     traffic merges new edges into it (edges only accumulate),
///   * the scaled training set the SVM was fit on — new benign windows are
///     appended to it,
///   * the full dual solution α aligned with that set — the warm start for
///     the next SMO run,
///   * the λ that α was solved under — the next run's box, so the seed
///     stays optimal (fit_detector records the tuned or fixed λ).
/// Persisted by core/persist (format v2); absent on detectors loaded from
/// pre-v2 files, which therefore fall back to cold-start retraining.
struct ContinualState {
  cfg::AddressGraph benign_cfg;
  ml::Dataset train;          // scaled rows, labels ±1, weights c_i
  std::vector<double> alpha;  // size == train.size()
  /// What a file without a LAMBDA line loads as: the λ every online
  /// refit used before the state recorded it.
  double lambda = 10.0;
};

/// A deployed classifier: preprocessing + scaling + (W)SVM, applied to any
/// partitioned log (the Testing Phase).
///
/// Thread safety: every const member (scan, predict, stream, accessors)
/// may be called concurrently on a shared `const Detector` (the serving
/// layer in src/serve/ relies on this). The model/preprocessor state is
/// genuinely read-only; the one internal cache — the TupleCodec that
/// memoizes interned-id features for the compact-event path — is itself
/// thread-safe and deterministic (same id, same value), so sharing stays
/// race-free and verdicts stay byte-identical. The only mutators are
/// calibrate() and set_decision_threshold(); finish calibrating before
/// publishing the detector to other threads. Stream objects are NOT
/// thread-safe: one stream = one event source.
class Detector {
 public:
  Detector(Preprocessor preprocessor, ml::MinMaxScaler scaler,
           ml::SvmModel model);

  /// Verdict counts over a run of windows.
  struct WindowCounts {
    std::size_t benign_windows = 0;
    std::size_t malicious_windows = 0;
    std::size_t windows() const { return benign_windows + malicious_windows; }
    double malicious_fraction() const;
    /// Counts one verdict (+1 benign / -1 malicious).
    void add(int label) {
      (label == 1 ? benign_windows : malicious_windows) += 1;
    }
  };

  struct ScanResult : WindowCounts {
    std::vector<int> window_labels;  // +1 benign / -1 malicious per window
  };

  /// Classifies every window of the log.
  ScanResult scan(const trace::PartitionedLog& log) const;

  /// Classifies one already-extracted (unscaled) feature window.
  int predict(const ml::FeatureVector& raw_features) const;

  /// The SVM decision value f(x) for one (unscaled) feature window —
  /// predict() is `f >= decision_threshold()`. Exposed separately so the
  /// serving layer can report *how* malicious a window looked (audit
  /// stream) and watch the distribution drift (src/online/drift.h).
  double decision_value(const ml::FeatureVector& raw_features) const;

  /// Calibrates the verdict threshold so that at most
  /// `max_false_alarm_rate` of the given known-clean log's windows are
  /// flagged malicious (an operator-facing operating point; the default
  /// threshold 0 is the SVM's natural boundary). Returns the fraction of
  /// clean windows flagged after calibration.
  double calibrate(const trace::PartitionedLog& clean_log,
                   double max_false_alarm_rate);

  /// Decision offset: a window is malicious when the SVM decision value
  /// falls below this.
  double decision_threshold() const { return decision_threshold_; }
  void set_decision_threshold(double t) { decision_threshold_ = t; }

  const ml::SvmModel& model() const { return model_; }
  const Preprocessor& preprocessor() const { return preprocessor_; }
  const ml::MinMaxScaler& scaler() const { return scaler_; }
  /// The interned-feature cache for the compact-event serving path (see
  /// TupleCodec). Shared by every Stream of this detector; copies of the
  /// detector share it too (the cached values depend only on the model,
  /// never on addresses).
  TupleCodec& codec() const { return *codec_; }

  /// Continual-learning state, when this detector carries one (see
  /// ContinualState). Like calibrate(), set it before publishing the
  /// detector to other threads; a published `const Detector` stays
  /// genuinely immutable.
  const ContinualState* continual() const {
    return continual_.has_value() ? &*continual_ : nullptr;
  }
  void set_continual(ContinualState state) { continual_ = std::move(state); }

  /// Online scanning: feed events as the tracer produces them; a verdict
  /// (+1 benign / -1 malicious) pops out every `window` events. The stream
  /// keeps counters, never per-window state, so a stream that lives for
  /// days stays the same size. It borrows the detector, which must
  /// outlive it.
  class Stream {
   public:
    explicit Stream(const Detector& detector);

    /// Returns a verdict when this event completes a window.
    std::optional<int> push(const trace::PartitionedEvent& event);

    /// Compact-event fast path: same verdicts, byte for byte, as push()
    /// on the event `table` interned. Features come from the detector's
    /// TupleCodec (id-keyed cache) instead of rebuilding string sets.
    std::optional<int> push(const trace::CompactEvent& event,
                            const trace::TokenTable& table);

    std::size_t events_seen() const { return events_seen_; }
    /// Events buffered toward the next (incomplete) window. Mirrors batch
    /// scan() semantics: a trailing partial window is never classified.
    std::size_t pending_events() const {
      return pending_.size() / kFeaturesPerEvent;
    }
    const WindowCounts& tally() const { return tally_; }
    /// Decision value of the most recently completed window (0 before the
    /// first verdict). Valid right after push() returned a label.
    double last_decision_value() const { return last_decision_value_; }

   private:
    std::optional<int> push_tuple(const EventTuple& tuple);

    const Detector* detector_;
    ml::FeatureVector pending_;
    std::size_t events_seen_ = 0;
    double last_decision_value_ = 0.0;
    WindowCounts tally_;
  };
  Stream stream() const { return Stream(*this); }

 private:
  Preprocessor preprocessor_;
  ml::MinMaxScaler scaler_;
  ml::SvmModel model_;
  double decision_threshold_ = 0.0;
  std::optional<ContinualState> continual_;
  // shared_ptr keeps the detector movable/copyable while the codec stays
  // non-copyable (its cache is address-stable, not its identity).
  std::shared_ptr<TupleCodec> codec_ = std::make_shared<TupleCodec>();
};

struct FitOptions {
  PipelineOptions pipeline;
  bool weighted = true;  // false: plain SVM, every training weight 1
  /// Fixed parameters, or the base that `tune` fills λ and σ² into.
  ml::SvmParams svm;
  /// k-fold CV over this grid, seed 7; weighted_validation = `weighted`.
  std::optional<ml::CrossValidationOptions> tune;
};

/// The model half of fit_detector(), for a caller with its own training
/// set (train_universal): weights → 1 unless `weighted`, MinMaxScaler fit
/// on `train` and applied in place, the optional tune, then SMO.
Detector fit_model(Preprocessor preprocessor, ml::Dataset& train,
                   const FitOptions& options, ml::TrainStats* stats = nullptr,
                   std::optional<ml::GridSearchResult>* grid = nullptr);

struct FitResult {
  TrainingData data;
  Detector detector;  // with ContinualState (benign CFG, scaled set, α)
  ml::TrainStats stats;
  std::optional<ml::GridSearchResult> grid;  // when a tune ran
};

/// The one way to fit a detector: prepare(), then fit_model() on the
/// benign windows followed by the mixed windows, then the ContinualState.
FitResult fit_detector(const trace::PartitionedLog& benign_log,
                       const trace::PartitionedLog& mixed_log,
                       const FitOptions& options = {});

}  // namespace leaps::core
