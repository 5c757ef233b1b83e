// leaps_rollover — operator tooling for the online-learning subsystem.
//
// Subcommands:
//   retrain <detector> <benign.log> <candidate-out>
//       Offline form of the online retrain cycle: folds the log's
//       detector-benign windows into the continual CFG, refits the SVM
//       warm-started from the deployed model's dual solution, reports the
//       iteration savings vs a cold fit, and saves the candidate.
//   shadow <incumbent> <candidate> <traffic.log>
//       Offline shadow evaluation: replays the traffic through both
//       detectors window-aligned, diffs the verdicts, applies the
//       rollover gates. Exit 0 = promote, 4 = rollback/undecided.
//   drill <detector> <broken-out>
//       Writes a deliberately broken candidate (verdict threshold pushed
//       to +1e18, so every window classifies malicious) for rollback
//       drills — `shadow incumbent broken traffic` must exit 4.
//   diff <detector-a> <detector-b> <traffic.log>
//       Prints the positional verdict diff of the two detectors over the
//       traffic (online::diff_sequences).
//   recover <durable-dir> [--detector-out FILE]
//       Replays a durable directory (snapshot.leaps + journal.wal) the way
//       a restarting server would — torn journal tails are truncated, and
//       records the snapshot already folded are skipped — then prints the
//       recovered state. Optionally re-saves the recovered incumbent.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli.h"
#include "core/persist.h"
#include "durable/store.h"
#include "ingest.h"
#include "online/accumulator.h"
#include "online/drift.h"
#include "online/retrain.h"
#include "online/shadow.h"
#include "online/verdict_diff.h"
#include "trace/partition.h"

namespace {

using namespace leaps;

constexpr const char* kUsage =
    "usage: leaps-rollover <subcommand> <args...>\n"
    "  retrain <detector> <benign.log> <candidate-out>\n"
    "      warm-started incremental retrain; prints iteration savings\n"
    "  shadow <incumbent> <candidate> <traffic.log>\n"
    "      gate evaluation; exit 0 = promote, 4 = rollback\n"
    "  drill <detector> <broken-out>\n"
    "      write an all-malicious candidate for rollback drills\n"
    "  diff <detector-a> <detector-b> <traffic.log>\n"
    "      positional verdict diff over the traffic\n"
    "  drift <detector> <reference.log> <live.log>\n"
    "      offline drift check: two-sample KS over the decision values of\n"
    "      the two replays; exit 0 = stable, 4 = drift\n"
    "  recover <durable-dir>\n"
    "      recover and summarize a crash-safe state directory\n"
    "options:\n"
    "  --detector-out FILE     (recover) save the recovered incumbent\n"
    "  --admit-floor F         CFG admission floor for retrain "
    "(default 0.25)\n"
    "  --no-cold-baseline      skip the cold fit (faster, no savings "
    "number)\n"
    "  --shadow-min-windows N  pairs required before gating (default 64)\n"
    "  --shadow-max-disagree F max disagreement rate (default 0.02)\n"
    "  --shadow-max-latency F  max latency ratio (default 3.0)\n"
    "  --drift-p F             (drift) KS p-value threshold (default "
    "0.01)\n"
    "exit: 0 ok/promote/stable, 4 rollback/drift, 1 error, 2 usage\n";

core::Detector load_detector(const std::string& path) {
  try {
    return core::load_detector_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leaps-rollover: %s\n", e.what());
    std::exit(1);
  }
}

/// Replays the log through one detector, timing each window.
struct Replayed {
  std::vector<int> verdicts;
  std::uint64_t total_ns = 0;
};

Replayed replay(const core::Detector& detector,
                const trace::PartitionedLog& log) {
  Replayed out;
  core::Detector::Stream stream = detector.stream();
  for (const trace::PartitionedEvent& event : log.events) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::optional<int> label = stream.push(event);
    const auto t1 = std::chrono::steady_clock::now();
    out.total_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    if (label.has_value()) out.verdicts.push_back(*label);
  }
  return out;
}

int cmd_retrain(const std::string& tool, const std::vector<std::string>& pos,
                double admit_floor, bool cold_baseline) {
  const core::Detector base = load_detector(pos[1]);
  const trace::PartitionedLog log = cli::load_log_or_exit(tool, pos[2]);
  if (base.continual() == nullptr) {
    std::fprintf(stderr,
                 "leaps-rollover: %s carries no continual state (pre-v2 "
                 "file): online retraining unavailable, retrain offline "
                 "with leaps-train\n",
                 pos[1].c_str());
    return 1;
  }
  online::AccumulatorOptions acc_options;
  acc_options.admit_floor = admit_floor;
  online::OnlineCfgAccumulator accumulator(base.continual()->benign_cfg,
                                           acc_options);
  // Feed every window the deployed detector itself classifies benign —
  // exactly what the server's window tap would deliver.
  const std::size_t window = base.preprocessor().window();
  core::Detector::Stream stream = base.stream();
  std::vector<trace::PartitionedEvent> buffer;
  std::size_t benign_windows = 0;
  for (const trace::PartitionedEvent& event : log.events) {
    buffer.push_back(event);
    const std::optional<int> label = stream.push(event);
    if (buffer.size() == window) {
      if (label.has_value() && *label == 1) {
        accumulator.observe_window(buffer.data(), buffer.size());
        ++benign_windows;
      }
      buffer.clear();
    }
  }
  std::printf("observed %zu benign windows from %s\n", benign_windows,
              pos[2].c_str());

  online::RetrainConfig config;
  config.measure_cold_baseline = cold_baseline;
  const online::RetrainResult result = online::retrain(
      base, accumulator.drain_windows(), accumulator, config);
  if (result.candidate == nullptr) {
    std::fprintf(stderr, "leaps-rollover: retrain failed: %s\n",
                 result.error.c_str());
    return 1;
  }
  const online::AccumulatorStats acc = accumulator.stats();
  std::printf("admitted %llu windows (rejected %llu below floor %.2f), "
              "%llu new CFG edges\n",
              static_cast<unsigned long long>(acc.windows_admitted),
              static_cast<unsigned long long>(acc.windows_rejected),
              admit_floor,
              static_cast<unsigned long long>(acc.edges_added));
  std::printf("retrained on %zu rows (%zu new) at lambda=%g: warm %zu "
              "iterations (%zu seed entries)",
              result.train_size, result.new_samples,
              result.candidate->continual()->lambda, result.warm_iterations,
              result.warm_nonzero);
  if (result.measured_cold) {
    std::printf(", cold %zu, saved %zu", result.cold_iterations,
                result.iterations_saved);
  }
  std::printf("\n");
  core::save_detector_file(*result.candidate, pos[3]);
  std::printf("saved candidate to %s\n", pos[3].c_str());
  return 0;
}

int cmd_shadow(const std::string& tool, const std::vector<std::string>& pos,
               const online::RolloverGates& gates) {
  const core::Detector incumbent = load_detector(pos[1]);
  const core::Detector candidate = load_detector(pos[2]);
  const trace::PartitionedLog log = cli::load_log_or_exit(tool, pos[3]);
  const Replayed active = replay(incumbent, log);
  const Replayed shadow = replay(candidate, log);

  online::ShadowEvaluator evaluator(gates);
  const serve::SessionKey key{"rollover", 0};
  const std::size_t pairs =
      std::min(active.verdicts.size(), shadow.verdicts.size());
  // Window costs are aggregate/N — offline replay has no per-window
  // interleaving to preserve.
  const std::uint64_t active_per =
      pairs > 0 ? active.total_ns / pairs : 0;
  const std::uint64_t shadow_per =
      pairs > 0 ? shadow.total_ns / pairs : 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    evaluator.record(key, active.verdicts[i], shadow.verdicts[i],
                     active_per, shadow_per);
  }
  const online::DiffStats stats = evaluator.stats();
  std::printf("compared %llu windows: %llu disagreements (rate %.4f), "
              "latency ratio %.2f\n",
              static_cast<unsigned long long>(stats.compared),
              static_cast<unsigned long long>(stats.disagreements),
              stats.disagreement_rate(), stats.latency_ratio());
  switch (evaluator.decision()) {
    case online::RolloverDecision::kPromote:
      std::printf("decision: PROMOTE (disagreement <= %.4f, latency ratio "
                  "<= %.2f)\n",
                  gates.max_disagreement, gates.max_latency_ratio);
      return 0;
    case online::RolloverDecision::kRollback:
      std::printf("decision: ROLLBACK\n");
      return 4;
    case online::RolloverDecision::kUndecided:
      std::printf("decision: UNDECIDED (%llu of %llu required windows) — "
                  "not promotable\n",
                  static_cast<unsigned long long>(stats.compared),
                  static_cast<unsigned long long>(gates.min_windows));
      return 4;
  }
  return 1;
}

int cmd_drill(const std::vector<std::string>& pos) {
  core::Detector detector = load_detector(pos[1]);
  // Every decision value sits below +1e18, so every window flags
  // malicious: the maximally disagreeable candidate, guaranteed to trip
  // the disagreement gate on benign traffic.
  detector.set_decision_threshold(1e18);
  core::save_detector_file(detector, pos[2]);
  std::printf("wrote drill candidate (threshold 1e18, all-malicious) "
              "to %s\n",
              pos[2].c_str());
  return 0;
}

int cmd_diff(const std::string& tool, const std::vector<std::string>& pos) {
  const core::Detector a = load_detector(pos[1]);
  const core::Detector b = load_detector(pos[2]);
  const trace::PartitionedLog log = cli::load_log_or_exit(tool, pos[3]);
  const online::SequenceDiff diff =
      online::diff_sequences(replay(a, log).verdicts,
                             replay(b, log).verdicts);
  std::printf("compared %zu windows: %zu disagreements (rate %.4f), "
              "length delta %zu\n",
              diff.compared, diff.disagreements, diff.disagreement_rate(),
              diff.length_delta);
  for (const std::size_t i : diff.mismatch_indices) {
    std::printf("  window %zu differs\n", i);
  }
  std::printf("%s", diff.identical() ? "verdicts identical\n"
                                     : "verdicts differ\n");
  return 0;
}

/// Replays a log, collecting each completed window's decision value —
/// the drift subcommand's sample extractor.
std::vector<double> decision_values(const core::Detector& detector,
                                    const trace::PartitionedLog& log) {
  std::vector<double> values;
  core::Detector::Stream stream = detector.stream();
  for (const trace::PartitionedEvent& event : log.events) {
    if (stream.push(event).has_value()) {
      values.push_back(stream.last_decision_value());
    }
  }
  return values;
}

int cmd_drift(const std::string& tool, const std::vector<std::string>& pos,
              double p_threshold) {
  const core::Detector detector = load_detector(pos[1]);
  const std::vector<double> reference =
      decision_values(detector, cli::load_log_or_exit(tool, pos[2]));
  const std::vector<double> live =
      decision_values(detector, cli::load_log_or_exit(tool, pos[3]));
  if (reference.empty() || live.empty()) {
    std::fprintf(stderr,
                 "leaps-rollover: drift needs at least one complete window "
                 "in each log (reference %zu, live %zu)\n",
                 reference.size(), live.size());
    return 1;
  }
  const double d = online::DriftMonitor::ks_statistic(reference, live);
  const double p =
      online::DriftMonitor::ks_p_value(d, reference.size(), live.size());
  std::printf("reference %zu windows, live %zu windows\n", reference.size(),
              live.size());
  std::printf("two-sample KS: D=%.6f p=%.6g (threshold %g)\n", d, p,
              p_threshold);
  if (p < p_threshold) {
    std::printf("decision: DRIFT — live decision values shifted from the "
                "reference\n");
    return 4;
  }
  std::printf("decision: STABLE\n");
  return 0;
}

int cmd_recover(const std::vector<std::string>& pos,
                const std::string& detector_out) {
  durable::DurableOptions options;
  options.dir = pos[1];
  durable::DurableStore store(options);
  const util::StatusOr<durable::RecoveredState> recovered = store.recover();
  if (!recovered.ok()) {
    std::fprintf(stderr, "leaps-rollover: recover %s: %s\n",
                 options.dir.c_str(),
                 recovered.status().to_string().c_str());
    return 1;
  }
  const durable::RecoveredState& r = *recovered;
  std::printf("durable dir:        %s\n", options.dir.c_str());
  std::printf("snapshot:           %s\n",
              r.snapshot_found ? "found" : "absent (cold start)");
  std::printf("incumbent detector: %s\n",
              r.detector != nullptr
                  ? (r.detector->continual() != nullptr
                         ? "recovered (with continual state)"
                         : "recovered")
                  : "none");
  std::printf("pending windows:    %zu\n", r.pending_windows.size());
  std::printf("accounting:         ingested=%llu processed=%llu "
              "dropped=%llu quarantined=%llu\n",
              static_cast<unsigned long long>(r.accounting.ingested),
              static_cast<unsigned long long>(r.accounting.processed),
              static_cast<unsigned long long>(r.accounting.dropped),
              static_cast<unsigned long long>(r.accounting.quarantined));
  std::printf("journal:            last_lsn=%llu replayed=%llu "
              "skipped=%llu%s\n",
              static_cast<unsigned long long>(r.last_lsn),
              static_cast<unsigned long long>(r.replayed),
              static_cast<unsigned long long>(r.skipped),
              r.torn_tail ? " (torn tail truncated)" : "");
  if (r.torn_tail) {
    std::printf("torn tail:          %s\n", r.torn_reason.c_str());
  }
  std::size_t drift_observes = 0, drift_triggers = 0, drift_retrains = 0;
  for (const durable::DriftReplayOp& op : r.drift_ops) {
    switch (op.kind) {
      case durable::DriftReplayOp::Kind::kObserve: ++drift_observes; break;
      case durable::DriftReplayOp::Kind::kTrigger: ++drift_triggers; break;
      case durable::DriftReplayOp::Kind::kRetrain: ++drift_retrains; break;
    }
  }
  std::printf("drift:              %s; journal ops: %zu observe, "
              "%zu trigger, %zu retrain\n",
              r.drift.empty() ? "no monitor state in snapshot"
                              : "monitor state recovered",
              drift_observes, drift_triggers, drift_retrains);
  if (!detector_out.empty()) {
    if (r.detector == nullptr) {
      std::fprintf(stderr,
                   "leaps-rollover: no incumbent to save (cold start)\n");
      return 1;
    }
    core::save_detector_file(*r.detector, detector_out);
    std::printf("incumbent saved:    %s\n", detector_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args(argc, argv, kUsage);
  double admit_floor = 0.25;
  bool no_cold = false;
  online::RolloverGates gates;
  args.option("--admit-floor", &admit_floor);
  args.flag("--no-cold-baseline", &no_cold);
  args.option("--shadow-min-windows", &gates.min_windows);
  args.option("--shadow-max-disagree", &gates.max_disagreement);
  args.option("--shadow-max-latency", &gates.max_latency_ratio);
  double drift_p = 0.01;
  args.option("--drift-p", &drift_p);
  std::string detector_out;
  args.option("--detector-out", &detector_out);
  const std::vector<std::string> pos = args.parse(2, 4);

  try {
    const std::string& sub = pos[0];
    if (sub == "retrain") {
      if (pos.size() != 4) args.usage_error("%s", "retrain takes 3 arguments");
      return cmd_retrain(args.tool(), pos, admit_floor, !no_cold);
    }
    if (sub == "shadow") {
      if (pos.size() != 4) args.usage_error("%s", "shadow takes 3 arguments");
      return cmd_shadow(args.tool(), pos, gates);
    }
    if (sub == "drill") {
      if (pos.size() != 3) args.usage_error("%s", "drill takes 2 arguments");
      return cmd_drill(pos);
    }
    if (sub == "diff") {
      if (pos.size() != 4) args.usage_error("%s", "diff takes 3 arguments");
      return cmd_diff(args.tool(), pos);
    }
    if (sub == "drift") {
      if (pos.size() != 4) args.usage_error("%s", "drift takes 3 arguments");
      return cmd_drift(args.tool(), pos, drift_p);
    }
    if (sub == "recover") {
      if (pos.size() != 2) args.usage_error("%s", "recover takes 1 argument");
      return cmd_recover(pos, detector_out);
    }
    args.usage_error("unknown subcommand '%s'", sub.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leaps-rollover: %s\n", e.what());
    return 1;
  }
  return 2;
}
