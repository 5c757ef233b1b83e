// Evaluation harness (Section V): data selection, the competing models,
// the five measurements, and multi-run averaging.
//
// For each run (constants in experiment.cc):
//  * pure benign windows are split kBenignTrainFraction (50/50) into
//    train/test pools,
//  * kSampleFraction (paper: 20%) of each pool — and of the mixed and
//    pure-malicious windows — is randomly selected,
//  * every model is trained on the *same* selection and evaluated on the
//    same held-out benign + pure-malicious windows: CGraph, plain SVM and
//    Weighted SVM, and with `extension_models` the HMM, WHMM, W-LR, W-Tree
//    and W-RF, which reuse the WSVM's scaled, CFG-weighted training set,
//  * λ and σ² are tuned by k-fold cross-validation (from kSvmBase's other
//    fields) once per scenario, on the first run's training set, and every
//    run trains with them — the selection is an i.i.d. resample, so the
//    tuned values are stable (the paper tunes per run, at ~10x the cost).
// Results are averaged over `runs` (paper: 10) runs. The runs share the
// global pool (util::parallel_for, sized by --threads / LEAPS_THREADS);
// each is independently seeded and aggregated in run order, so results are
// identical at any thread count.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ml/cgraph_model.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "sim/scenario.h"

namespace leaps::core {

struct ExperimentOptions {
  sim::SimConfig sim;
  PipelineOptions pipeline;
  ml::CrossValidationOptions cv;
  std::size_t runs = 10;
  std::uint64_t seed = 7;
  /// Score the WSVM's cross-validation folds with confidence-weighted
  /// accuracy (see CrossValidationOptions::weighted_validation). Exposed so
  /// the ablation bench can quantify the bias of plain CV under label noise.
  bool weighted_cv_for_wsvm = true;
  /// Also train/evaluate the extension models: the HMM sequence models of
  /// Section VI-B (an unweighted LLR classifier and a CFG-weighted one)
  /// and Section III-D-2's alternative classifiers (weighted logistic
  /// regression, CART tree and bagged forest). Off by default — the
  /// paper's evaluation compares CGraph/SVM/WSVM only.
  bool extension_models = false;
};

struct ModelOutcome {
  ml::Measurements mean;
  ml::Measurements stddev;
  /// Mean area under the ROC curve across runs (threshold-free quality).
  double auc = 0.0;
  /// Confusion counts pooled over all runs (diagnostics).
  ml::ConfusionMatrix pooled;
  /// Hyper-parameters used (SVM/WSVM only).
  ml::SvmParams params;
};

struct ExperimentResult {
  sim::ScenarioSpec spec;
  std::size_t runs = 0;
  ModelOutcome cgraph;
  ModelOutcome svm;
  ModelOutcome wsvm;
  /// Populated only when ExperimentOptions::extension_models is set.
  ModelOutcome hmm;        // unweighted sequences
  ModelOutcome whmm;       // CFG-weighted sequences
  ModelOutcome wlr;        // weighted logistic regression
  ModelOutcome wtree;      // weighted CART tree
  ModelOutcome wrf;        // weighted random forest
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentOptions options)
      : options_(std::move(options)) {}

  /// Generates the scenario's logs and evaluates the models.
  ExperimentResult run_scenario(const sim::ScenarioSpec& spec) const;

  /// Evaluates the models on pre-generated logs.
  ExperimentResult run_on_logs(const sim::ScenarioLogs& logs) const;

  const ExperimentOptions& options() const { return options_; }

 private:
  ExperimentOptions options_;
};

/// Fixed-width table formatting shared by the bench binaries.
std::string format_result_header(bool with_models);
std::string format_result_row(const ExperimentResult& r, bool with_models);

}  // namespace leaps::core
