// leaps_train — train a LEAPS detector from raw logs and save it.
//
// Usage:
//   leaps_train <benign.log> <mixed.log> <detector-out>
//               [--align] [--plain-svm] [--folds N]
//
// Runs the full training phase (Figure 1): parse → partition → preprocess
// → CFG inference → weight assessment (optionally CFG-aligned for
// source-level trojans) → weighted 10-fold CV over (λ, σ²) → WSVM.
// The resulting detector file is consumed by leaps_scan.
#include <cstdio>
#include <string>

#include "cli.h"
#include "core/persist.h"
#include "ingest.h"
#include "ml/cross_validation.h"
#include "trace/partition.h"

int main(int argc, char** argv) {
  using namespace leaps;
  cli::ArgParser args(argc, argv,
                      "usage: leaps-train <benign.log> <mixed.log> "
                      "<detector-out>\n"
                      "                   [--align] [--plain-svm] [--folds N]"
                      " [--max-false-alarms F]\n"
                      "  trains a detector (Training Phase) and saves it for "
                      "leaps-scan / leaps-serve.\n"
                      "  --align              CFG-align mixed vs benign "
                      "(source-level trojans)\n"
                      "  --plain-svm          drop the CFG-derived sample "
                      "weights\n"
                      "  --folds N            cross-validation folds "
                      "(default 10)\n"
                      "  --max-false-alarms F calibrate the verdict "
                      "threshold on the benign log\n"
                      "  --trace-out FILE     write a chrome://tracing span "
                      "JSON\n"
                      "  --profile            print per-stage timings to "
                      "stderr\n"
                      "  --metrics-out FILE   write metrics on exit "
                      "(.json or Prometheus)\n" +
                      std::string(cli::ThreadsFlag::kUsage));
  core::PipelineOptions pipeline_options;
  bool plain_svm = false;
  std::size_t folds = 10;
  double max_false_alarms = -1.0;
  cli::ObsFlags obs_flags;
  cli::ThreadsFlag threads_flag;
  args.flag("--align", &pipeline_options.align_cfgs);
  args.flag("--plain-svm", &plain_svm);
  args.option("--folds", &folds);
  args.option("--max-false-alarms", &max_false_alarms);
  obs_flags.add_to(args);
  threads_flag.add_to(args);
  const std::vector<std::string> pos = args.parse(3, 3);
  obs_flags.activate();
  threads_flag.apply();

  try {
    const auto read_log = [&](const std::string& path) {
      trace::PartitionedLog log = cli::load_log_or_exit(args.tool(), path);
      std::printf("parsed %-26s %zu events, process %s\n", path.c_str(),
                  log.events.size(), log.process_name.c_str());
      return log;
    };
    const trace::PartitionedLog benign = read_log(pos[0]);
    const trace::PartitionedLog mixed = read_log(pos[1]);

    core::FitOptions fit_options;
    fit_options.pipeline = pipeline_options;
    fit_options.weighted = !plain_svm;
    fit_options.tune = ml::CrossValidationOptions{.folds = folds};
    core::FitResult fit = core::fit_detector(benign, mixed, fit_options);
    const core::TrainingData& td = fit.data;
    std::printf("pipeline: %zu benign windows, %zu mixed windows",
                td.benign.size(), td.mixed.size());
    if (pipeline_options.align_cfgs) {
      std::printf(" (CFG alignment: %zu pivots over %zu nodes)",
                  td.alignment.pivots.size(), td.alignment.mixed_nodes);
    }
    std::printf("\n");
    std::printf("tuned (%zu-fold%s CV): lambda=%g sigma2=%g (val acc %.3f)\n",
                folds, fit_options.weighted ? " weighted" : "",
                fit.grid->best.lambda, fit.grid->best.kernel.sigma2,
                fit.grid->best_accuracy);
    std::printf("trained %s: %zu support vectors, %zu iterations\n",
                fit_options.weighted ? "WSVM" : "SVM",
                fit.stats.support_vectors, fit.stats.iterations);

    // fit_detector attaches the continual-learning state, so leaps-serve
    // --online can retrain this detector with a warm-started solver.
    core::Detector& detector = fit.detector;
    if (max_false_alarms >= 0.0) {
      const double achieved = detector.calibrate(benign, max_false_alarms);
      std::printf("calibrated threshold %.4f (%.2f%% of clean windows "
                  "flagged, target %.2f%%)\n",
                  detector.decision_threshold(), 100.0 * achieved,
                  100.0 * max_false_alarms);
    }
    core::save_detector_file(detector, pos[2]);
    std::printf("saved detector to %s\n", pos[2].c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leaps-train: %s\n", e.what());
    obs_flags.finish();
    return 1;
  }
  obs_flags.finish();
  return 0;
}
