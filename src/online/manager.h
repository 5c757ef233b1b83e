// OnlineManager — the continuous-learning control loop.
//
// Ties the pieces into one state machine per served profile:
//
//   accumulating ──(retrain due)──▶ training ──▶ shadowing
//        ▲                                            │
//        └──── promote (RCU swap)         ◀── gates ──┤
//        └──── rollback (drop candidate)   ◀──────────┘
//
// install() hooks the server's WindowTap (classified-benign windows of
// the manager's own profile feed the OnlineCfgAccumulator). The manager
// has no thread of its own: its owner steps it with poll_once(), which
// checks the retrain trigger and — crucially — the shadow decision. The
// decision is never taken inside the ShadowSink: sinks run under session
// mutexes on worker threads, and ending a shadow retakes every session's
// mutex to detach, so acting in the sink would deadlock. poll_once() and
// stop() are the only places promote/rollback happens.
//
// Every count lives once, in the state report() reads; the metrics, the
// --status-json "online" object and leaps-serve's `online:` lines all
// render from report() through LEAPS_ONLINE_METRICS. The owner calls
// register_with() right after construction, so a metrics dump taken
// before any retrain shows the online subsystem at zero — absence of a
// metric and a zero metric must not look the same.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "durable/store.h"
#include "obs/registry.h"
#include "online/accumulator.h"
#include "online/drift.h"
#include "online/retrain.h"
#include "online/shadow.h"
#include "serve/server.h"

namespace leaps::online {

struct OnlineOptions {
  /// The registry profile this manager learns for.
  std::string profile = "default";
  AccumulatorOptions accumulator;
  RetrainConfig retrain;
  RolloverGates gates;
  /// Decision-value drift detection (online/drift.h). When enabled, every
  /// scored window's decision value feeds the DriftMonitor and a KS-test
  /// trigger schedules a retrain alongside the volume trigger.
  DriftOptions drift;
  /// When set, the manager journals learnable windows, retrain outcomes
  /// and promotions to this store as they happen, checkpoints
  /// when the store says it is due (and on every promotion, on restore()
  /// and on stop()), making the online state crash-safe. The store must
  /// be open()ed and must outlive the manager. Null disables durability.
  durable::DurableStore* durable = nullptr;
};

// Every online scalar, declared once, in JSON and text order: its key,
// then for COUNTER and GAUGE rows its Prometheus name and help, then the
// expression reading it off an OnlineReport `r`. VALUE rows are not
// exported to a registry. The phase, the current shadow's rates and the
// drift sketch are not scalar counts and stay hand-written.
#define LEAPS_ONLINE_METRICS(COUNTER, GAUGE, VALUE)                          \
  COUNTER("retrain_cycles", "leaps_online_retrain_cycles_total",             \
          "completed incremental retrain cycles", r.retrain_cycles)          \
  COUNTER("retrain_failures", "leaps_online_retrain_failures_total",         \
          "retrain cycles that produced no candidate", r.retrain_failures)   \
  COUNTER("promotions", "leaps_online_promotions_total",                     \
          "candidates promoted to active via the registry snapshot swap",    \
          r.promotions)                                                      \
  COUNTER("rollbacks", "leaps_online_rollbacks_total",                       \
          "shadow candidates rolled back instead of promoted", r.rollbacks)  \
  COUNTER("drift_retrains", "leaps_online_drift_retrains_total",             \
          "retrain cycles scheduled by a drift trigger", r.drift_retrains)   \
  COUNTER("windows_observed", "leaps_online_windows_observed_total",         \
          "classified-benign windows fed to the online accumulator",         \
          r.accumulator.windows_observed)                                    \
  VALUE("windows_admitted", r.accumulator.windows_admitted)                  \
  COUNTER("windows_rejected", "leaps_online_windows_rejected_total",         \
          "windows rejected by the CFG admission floor (poisoning guard)",   \
          r.accumulator.windows_rejected)                                    \
  GAUGE("cfg_edges_added", "leaps_online_cfg_edges_added",                   \
        "edges the accumulator has merged into the benign CFG",              \
        r.accumulator.edges_added)                                           \
  COUNTER("warm_iterations_saved", "leaps_online_warm_iterations_saved_total",\
          "SMO iterations saved by warm starts vs measured cold baselines",  \
          r.warm_iterations_saved)                                           \
  VALUE("last_warm_iterations", r.last_warm_iterations)                      \
  VALUE("last_cold_iterations", r.last_cold_iterations)                      \
  COUNTER("shadow_windows", "leaps_online_shadow_windows_total",             \
          "window verdict pairs compared during shadow evaluation",          \
          r.shadow_windows)                                                  \
  COUNTER("shadow_disagreements", "leaps_online_shadow_disagreements_total", \
          "shadow verdict pairs where candidate and incumbent disagreed",    \
          r.shadow_disagreements)                                            \
  COUNTER("drift_triggers", "leaps_online_drift_triggers_total",             \
          "decision-value drift triggers fired by the KS test",              \
          r.drift.triggers)                                                  \
  GAUGE("drift_p_value_ppm", "leaps_online_drift_p_value_ppm",               \
        "latest two-sample KS p-value, parts per million",                   \
        drift_ppm(r.drift, r.drift.p_value))                                 \
  GAUGE("drift_ks_ppm", "leaps_online_drift_ks_ppm",                         \
        "latest two-sample KS statistic, parts per million",                 \
        drift_ppm(r.drift, r.drift.ks_statistic))                            \
  GAUGE("drift_generation", "leaps_online_drift_generation",                 \
        "detector generation the drift monitor is watching",                 \
        r.drift.generation)

/// A drift reading in parts per million; 0 while drift is disabled (a
/// disabled monitor's p-value rests at 1).
inline std::uint64_t drift_ppm(const DriftStatus& drift, double v) {
  return drift.enabled ? static_cast<std::uint64_t>(v * 1e6) : 0;
}

/// One LEAPS_ONLINE_METRICS row's reading.
struct OnlineScalar {
  const char* key = "";
  const char* name = nullptr;  // nullptr for a VALUE row
  const char* help = "";
  obs::MetricType type = obs::MetricType::kCounter;
  std::uint64_t value = 0;
};

struct OnlineReport {
  std::string phase;  // "accumulating" | "shadowing"
  AccumulatorStats accumulator;
  std::uint64_t retrain_cycles = 0;
  std::uint64_t retrain_failures = 0;
  std::uint64_t warm_iterations_saved = 0;  // summed over cycles
  std::uint64_t last_warm_iterations = 0;
  std::uint64_t last_cold_iterations = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  DiffStats shadow;  // current (or final) shadow comparison
  /// Verdict pairs compared and disagreeing over every shadow so far.
  std::uint64_t shadow_windows = 0;
  std::uint64_t shadow_disagreements = 0;
  DriftStatus drift;
  /// LSN of the most recent journaled drift trigger (0 = none); the drift
  /// drill asserts a recovered run re-fires at the same one.
  std::uint64_t last_drift_trigger_lsn = 0;
  std::uint64_t drift_retrains = 0;  // retrains caused by a drift trigger
  std::string last_error;

  /// One reading per LEAPS_ONLINE_METRICS row, in row order.
  std::vector<OnlineScalar> scalars() const;
  /// `phase=<phase>` then `key=value` for every row, space-separated.
  std::string to_text() const;
};

class OnlineManager {
 public:
  /// `server` must outlive the manager. The profile's detector must be
  /// registered before install(); its ContinualState (if any) seeds the
  /// accumulator's CFG.
  OnlineManager(serve::DetectionServer* server, OnlineOptions options);

  OnlineManager(const OnlineManager&) = delete;
  OnlineManager& operator=(const OnlineManager&) = delete;

  /// Hooks the server's window tap, which skips windows of sessions open
  /// under another profile. Must run before server->start().
  void install();

  /// Concludes an in-flight shadow (by its current evidence: promote only
  /// on a kPromote decision) and writes the final checkpoint when durable.
  /// The owner calls it once the manager is no longer stepped; nothing
  /// calls it on destruction.
  void stop();

  /// One control-loop step, callable directly for deterministic drives
  /// (tests, tools): triggers a due retrain, starts/concludes shadows,
  /// checkpoints the durable store when due. Serialized against stop()
  /// and other poll_once callers — a shutdown racing a poll step can
  /// never lose admitted windows.
  void poll_once();

  /// Applies a recovered durability state: restores the server's
  /// accounting baseline, re-observes the recovered pending windows
  /// through the accumulator (re-running admission — replay is
  /// idempotent), replays the drift state, then forces a checkpoint so a
  /// second crash recovers to this same state. Call after install(),
  /// before the server starts ingesting. The recovered incumbent
  /// detector must already be registered (it seeds this manager's
  /// accumulator CFG via the constructor).
  void restore(const durable::RecoveredState& recovered);

  OnlineReport report() const;

  /// Contributes every COUNTER and GAUGE row of LEAPS_ONLINE_METRICS to
  /// `registry`, read from report() at collect() time. The returned
  /// handle unregisters on destruction and must not outlive this object.
  [[nodiscard]] obs::MetricRegistry::Registration register_with(
      obs::MetricRegistry& registry) const;
  bool shadowing() const { return server_->shadowing(options_.profile); }
  const OnlineOptions& options() const { return options_; }

 private:
  void maybe_retrain();                  // accumulating → shadowing
  void conclude_shadow(bool promote);    // shadowing → accumulating
  void do_checkpoint();                  // fold journal into a snapshot
  void poll_drift();                     // flush, evaluate, journal trigger
  void flush_drift_locked();             // requires tap_mu_ held
  void note_durable_failure(const util::Status& status);

  serve::DetectionServer* const server_;
  const OnlineOptions options_;
  OnlineCfgAccumulator accumulator_;
  DriftMonitor drift_;
  /// Drift samples observed since the last journal flush (poll_once and
  /// do_checkpoint flush them as one kDriftBatch record). Guarded by
  /// tap_mu_ — the same fence that keeps window journaling atomic against
  /// checkpoints keeps the batch aligned with the monitor state.
  std::vector<durable::DriftSample> drift_buffer_;

  /// Serializes control-loop steps (poll_once, stop()'s conclusion and
  /// final checkpoint, restore()) against each other.
  std::mutex poll_mu_;

  /// The durability fence. A tap's journal→observe pair and a
  /// checkpoint's capture→snapshot→truncate sequence must be mutually
  /// atomic: a window journaled after the pending-state capture but
  /// before the journal truncate would be in neither the snapshot nor
  /// the journal, and gone after a crash. The retrain drain takes the
  /// same fence so its journaled drain boundary exactly matches the
  /// drained set. Only taken when durability is on; ordering is always
  /// tap_mu_ → (accumulator / store) internal locks, never the reverse.
  std::mutex tap_mu_;

  mutable std::mutex mu_;
  // The incumbent and the shadow candidate live in the server's registry
  // (find, shadow_candidate); the manager keeps no copy of either.
  std::shared_ptr<ShadowEvaluator> evaluator_;           // guarded by mu_
  std::uint64_t retrain_cycles_ = 0;                     // guarded by mu_
  std::uint64_t retrain_failures_ = 0;                   // guarded by mu_
  std::uint64_t warm_saved_ = 0;                         // guarded by mu_
  std::uint64_t last_warm_ = 0;                          // guarded by mu_
  std::uint64_t last_cold_ = 0;                          // guarded by mu_
  std::uint64_t promotions_ = 0;                         // guarded by mu_
  std::uint64_t rollbacks_ = 0;                          // guarded by mu_
  DiffStats last_shadow_;                                // guarded by mu_
  // Verdict pairs of the concluded shadows (report() adds the live one).
  std::uint64_t shadow_windows_ = 0;                     // guarded by mu_
  std::uint64_t shadow_disagreements_ = 0;               // guarded by mu_
  std::string last_error_;                               // guarded by mu_
  std::uint64_t last_drift_trigger_lsn_ = 0;  // guarded by mu_
  std::uint64_t drift_retrains_ = 0;          // guarded by mu_
};

/// Helper for the tap closure: true for windows the accumulator should
/// learn from (classified benign by the active detector).
inline bool learnable(int label) { return label == 1; }

}  // namespace leaps::online
