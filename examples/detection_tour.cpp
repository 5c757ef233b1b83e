// End-to-end detection tour: train a LEAPS detector on one scenario and
// deploy it against fresh logs — the Testing Phase as a user would run it.
//
// 1. Simulate putty + reverse HTTPS meterpreter (online injection);
//    record the training logs.
// 2. Train: pipeline prepare → CFG-guided weights → tune λ, σ² by weighted
//    10-fold CV → Weighted SVM.
// 3. Deploy the detector on three *fresh* traces (different seeds): a clean
//    Putty session, a newly infected Putty process, and the standalone
//    recompiled payload.
#include <cstdio>

#include "core/pipeline.h"
#include "ml/cross_validation.h"
#include "sim/scenario.h"
#include "trace/partition.h"

using namespace leaps;

namespace {

void report(const char* what, const core::Detector::ScanResult& r) {
  std::printf("  %-38s %4zu windows benign, %4zu malicious  (%.1f%% flagged)\n",
              what, r.benign_windows, r.malicious_windows,
              100.0 * r.malicious_fraction());
}

}  // namespace

int main() {
  const sim::ScenarioSpec& spec =
      sim::find_scenario("putty_reverse_https_online");
  sim::SimConfig train_cfg;
  std::printf("Training on scenario %s (%s)\n", spec.name.c_str(),
              std::string(sim::attack_method_name(spec.method)).c_str());
  const sim::ScenarioLogs train_logs = sim::generate_scenario(spec, train_cfg);
  const trace::PartitionedLog benign = trace::partition_raw(train_logs.benign);
  const trace::PartitionedLog mixed = trace::partition_raw(train_logs.mixed);

  // --- training phase ----------------------------------------------------
  core::FitOptions options;
  options.tune = ml::CrossValidationOptions{};
  const core::FitResult fit = core::fit_detector(benign, mixed, options);
  std::printf("  %zu benign windows (+1), %zu mixed windows (-1, CFG "
              "weights)\n",
              fit.data.benign.size(), fit.data.mixed.size());
  std::printf("  tuned by weighted %zu-fold CV: lambda=%g sigma2=%g "
              "(validation accuracy %.3f)\n",
              options.tune->folds, fit.grid->best.lambda,
              fit.grid->best.kernel.sigma2, fit.grid->best_accuracy);
  std::printf("  WSVM trained: %zu support vectors, %zu SMO iterations\n\n",
              fit.stats.support_vectors, fit.stats.iterations);
  const core::Detector& detector = fit.detector;

  // --- testing phase on fresh traces --------------------------------------
  std::printf("Scanning fresh traces (unseen seeds):\n");
  sim::SimConfig fresh = train_cfg;
  fresh.seed = train_cfg.seed + 1;
  const sim::ScenarioLogs fresh_logs = sim::generate_scenario(spec, fresh);

  report("clean putty session",
         detector.scan(trace::partition_raw(fresh_logs.benign)));
  report("putty with injected backdoor (mixed)",
         detector.scan(trace::partition_raw(fresh_logs.mixed)));
  report("standalone recompiled payload",
         detector.scan(trace::partition_raw(fresh_logs.malicious)));

  std::printf("\nA clean trace should stay mostly green; the infected "
              "process lights up in proportion\nto the adversary's backdoor "
              "sessions; the pure payload should be flagged nearly "
              "everywhere.\n");
  return 0;
}
