// k-fold cross-validation grid search for the SVM hyper-parameters
// (Section IV: "we use 10-fold cross validation to tune the model parameter
// λ and σ² on the training set").
//
// One kernel per σ² per tune: the Gram of the dataset's positive-weight
// rows is built once per σ², and every (λ, fold) fit of that σ² trains
// against it with the fold's test rows pinned at box bound Cᵢ = 0
// (SvmTrainer::train_fold) — no per-fold row copy, no per-fold Gram,
// bit-identical to fitting each fold's subset (DESIGN.md §10). The fold
// tasks of a σ² are claimed largest λ first.
//
// Fold × λ evaluations run in parallel on the shared pool
// (util/parallel.h): the fold split is drawn up front from the caller's
// seed, each task is a pure function of (data, Gram, params, fold), and the
// per-point reduction happens serially in fold order — so every accuracy,
// trial row, and the winning (λ, σ²) are byte-identical for --threads 1
// and --threads N.
#pragma once

#include <vector>

#include "ml/dataset.h"
#include "ml/svm.h"
#include "util/rng.h"

namespace leaps::ml {

struct GridPoint {
  double lambda = 0.0;
  double sigma2 = 0.0;
  double accuracy = 0.0;  // mean held-out accuracy across folds
};

struct GridSearchResult {
  SvmParams best;
  double best_accuracy = 0.0;
  std::vector<GridPoint> trials;
};

struct CrossValidationOptions {
  std::vector<double> lambdas = {1.0, 10.0, 100.0};
  std::vector<double> sigma2s = {2.0, 8.0, 32.0};
  std::size_t folds = 10;
  /// Score held-out folds by weight-weighted accuracy (Σ cᵢ·[correct]/Σ cᵢ)
  /// instead of plain accuracy. Plain accuracy *rewards* classifying the
  /// mislabeled (benign-looking, low-cᵢ) mixed windows as malicious, which
  /// systematically selects over-aggressive hyper-parameters for the WSVM;
  /// weighting the validation score by the same confidences the training
  /// objective uses removes that bias. Has no effect when all weights are 1
  /// (the plain-SVM case).
  bool weighted_validation = false;
};

/// Stratified-ish k-fold (folds are random after a shuffle): returns
/// `folds` disjoint index sets covering [0, n).
std::vector<std::vector<std::size_t>> make_folds(std::size_t n,
                                                 std::size_t folds,
                                                 util::Rng& rng);

/// Full grid search; `base` supplies everything except λ and σ². Each
/// trial's accuracy is the mean held-out accuracy over the folds; folds
/// whose training split degenerates (one class absent) are skipped. A
/// one-point grid cross-validates a single (λ, σ²).
GridSearchResult tune_svm(const Dataset& data, const SvmParams& base,
                          const CrossValidationOptions& options,
                          util::Rng& rng);

}  // namespace leaps::ml
