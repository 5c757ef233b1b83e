// Unit tests for the kernel, scaler, metrics, dataset, and cross-validation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <string>

#include "ml/cross_validation.h"
#include "ml/dataset.h"
#include "ml/kernel.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "ml/svm.h"
#include "obs/registry.h"
#include "util/rng.h"

namespace leaps::ml {
namespace {

// ------------------------------------------------------------- kernel ----

TEST(Kernel, GaussianProperties) {
  KernelParams k;
  k.sigma2 = 2.0;
  const FeatureVector a = {1.0, 2.0};
  const FeatureVector b = {2.0, 0.0};
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);              // k(x,x) = 1
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));          // symmetry
  EXPECT_DOUBLE_EQ(k(a, b), std::exp(-5.0 / 2.0));
  EXPECT_GT(k(a, b), 0.0);
}

TEST(Kernel, GramMatrixSymmetricUnitDiagonal) {
  const std::vector<FeatureVector> X = {{0.0}, {1.0}, {2.0}};
  const auto K = gram_matrix(X, {});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(K[i][i], 1.0);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(K[i][j], K[j][i]);
  }
}

// -------------------------------------------------------------- scaler ----

TEST(Scaler, MapsTrainingRangeToUnit) {
  MinMaxScaler s;
  s.fit({{0.0, 10.0}, {4.0, 20.0}});
  EXPECT_EQ(s.transform({0.0, 10.0}), (FeatureVector{0.0, 0.0}));
  EXPECT_EQ(s.transform({4.0, 20.0}), (FeatureVector{1.0, 1.0}));
  EXPECT_EQ(s.transform({2.0, 15.0}), (FeatureVector{0.5, 0.5}));
}

TEST(Scaler, ClampsOutOfRangeTestValues) {
  MinMaxScaler s;
  s.fit({{0.0}, {1.0}});
  EXPECT_DOUBLE_EQ(s.transform({100.0})[0], 1.5);
  EXPECT_DOUBLE_EQ(s.transform({-100.0})[0], -0.5);
}

TEST(Scaler, DegenerateDimensionCollapsesToZero) {
  MinMaxScaler s;
  s.fit({{5.0, 1.0}, {5.0, 2.0}});
  EXPECT_DOUBLE_EQ(s.transform({5.0, 1.5})[0], 0.0);
  EXPECT_DOUBLE_EQ(s.transform({99.0, 1.5})[0], 0.0);
}

TEST(Scaler, UsageErrorsThrow) {
  MinMaxScaler s;
  EXPECT_THROW(s.transform({1.0}), std::logic_error);  // before fit
  EXPECT_THROW(s.fit({}), std::logic_error);
  s.fit({{1.0, 2.0}});
  EXPECT_THROW(s.transform({1.0}), std::logic_error);  // dim mismatch
}

TEST(Scaler, TransformInPlaceCoversDataset) {
  MinMaxScaler s;
  s.fit({{0.0}, {2.0}});
  Dataset d;
  d.add({0.0}, 1);
  d.add({2.0}, -1);
  s.transform_in_place(d);
  EXPECT_DOUBLE_EQ(d.X[0][0], 0.0);
  EXPECT_DOUBLE_EQ(d.X[1][0], 1.0);
}

// ------------------------------------------------------------- metrics ----

TEST(ConfusionMatrix, CountsAllFourCells) {
  ConfusionMatrix cm;
  cm.add(1, 1);    // TP
  cm.add(1, -1);   // FN
  cm.add(-1, -1);  // TN
  cm.add(-1, -1);  // TN
  cm.add(-1, 1);   // FP
  EXPECT_EQ(cm.tp, 1u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.tn, 2u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.total(), 5u);
}

TEST(ConfusionMatrix, DerivedMeasuresMatchEqns6To10) {
  ConfusionMatrix cm;
  cm.tp = 8;
  cm.fn = 2;
  cm.tn = 9;
  cm.fp = 1;
  EXPECT_DOUBLE_EQ(cm.accuracy(), 17.0 / 20.0);  // Eqn. 6
  EXPECT_DOUBLE_EQ(cm.ppv(), 8.0 / 9.0);         // Eqn. 7
  EXPECT_DOUBLE_EQ(cm.tpr(), 8.0 / 10.0);        // Eqn. 8
  EXPECT_DOUBLE_EQ(cm.tnr(), 9.0 / 10.0);        // Eqn. 9
  EXPECT_DOUBLE_EQ(cm.npv(), 9.0 / 11.0);        // Eqn. 10
}

TEST(ConfusionMatrix, EmptyDenominatorsAreZeroNotNan) {
  ConfusionMatrix cm;
  EXPECT_EQ(cm.accuracy(), 0.0);
  EXPECT_EQ(cm.ppv(), 0.0);
  EXPECT_EQ(cm.tpr(), 0.0);
  EXPECT_EQ(cm.tnr(), 0.0);
  EXPECT_EQ(cm.npv(), 0.0);
}

TEST(ConfusionMatrix, MergeAndLabelsValidation) {
  ConfusionMatrix a;
  a.add(1, 1);
  ConfusionMatrix b;
  b.add(-1, -1);
  a.merge(b);
  EXPECT_EQ(a.tp, 1u);
  EXPECT_EQ(a.tn, 1u);
  EXPECT_THROW(a.add(0, 1), std::logic_error);
}

TEST(Measurements, FromAndToString) {
  ConfusionMatrix cm;
  cm.tp = cm.tn = 9;
  cm.fp = cm.fn = 1;
  const Measurements m = Measurements::from(cm);
  EXPECT_DOUBLE_EQ(m.acc, 0.9);
  EXPECT_NE(m.to_string().find("ACC=0.900"), std::string::npos);
}

// ----------------------------------------------------------- ROC / AUC ----

TEST(RocAuc, PerfectSeparationIsOne) {
  EXPECT_DOUBLE_EQ(
      roc_auc({3.0, 2.5, -1.0, -2.0}, {1, 1, -1, -1}), 1.0);
}

TEST(RocAuc, ReversedSeparationIsZero) {
  EXPECT_DOUBLE_EQ(
      roc_auc({-3.0, -2.5, 1.0, 2.0}, {1, 1, -1, -1}), 0.0);
}

TEST(RocAuc, AllTiedScoresGiveHalf) {
  EXPECT_DOUBLE_EQ(roc_auc({1.0, 1.0, 1.0, 1.0}, {1, 1, -1, -1}), 0.5);
}

TEST(RocAuc, MatchesHandComputedMixedCase) {
  // scores: pos {3, 1}, neg {2, 0}. Pairs: (3>2),(3>0),(1<2),(1>0) → 3/4.
  EXPECT_DOUBLE_EQ(roc_auc({3.0, 1.0, 2.0, 0.0}, {1, 1, -1, -1}), 0.75);
}

TEST(RocAuc, SingleClassReturnsHalf) {
  EXPECT_DOUBLE_EQ(roc_auc({1.0, 2.0}, {1, 1}), 0.5);
}

TEST(RocCurve, EndpointsAndMonotonicity) {
  const auto curve =
      roc_curve({3.0, 1.0, 2.0, 0.0, 2.0}, {1, 1, -1, -1, 1});
  ASSERT_GE(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.front().fpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().tpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().fpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().tpr, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].fpr, curve[i - 1].fpr);
    EXPECT_GE(curve[i].tpr, curve[i - 1].tpr);
    EXPECT_LE(curve[i].threshold, curve[i - 1].threshold);
  }
}

// -------------------------------------------------------------- dataset ----

TEST(Dataset, ValidateCatchesCorruption) {
  Dataset d;
  d.add({1.0, 2.0}, 1, 0.5);
  d.add({3.0, 4.0}, -1, 1.0);
  EXPECT_NO_THROW(d.validate());
  d.y[0] = 3;
  EXPECT_THROW(d.validate(), std::logic_error);
  d.y[0] = 1;
  d.weight[0] = 1.5;
  EXPECT_THROW(d.validate(), std::logic_error);
  d.weight[0] = 0.5;
  d.X[0].push_back(9.0);
  EXPECT_THROW(d.validate(), std::logic_error);
}

TEST(Dataset, SubsetAndAppend) {
  Dataset d;
  d.add({1.0}, 1, 0.1);
  d.add({2.0}, -1, 0.2);
  d.add({3.0}, 1, 0.3);
  const Dataset s = d.subset({2, 0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.X[0][0], 3.0);
  EXPECT_DOUBLE_EQ(s.weight[1], 0.1);
  EXPECT_THROW(d.subset({9}), std::logic_error);
  Dataset t;
  t.append(d);
  t.append(s);
  EXPECT_EQ(t.size(), 5u);
}

// ----------------------------------------------------- cross-validation ----

TEST(CrossValidation, FoldsPartitionTheIndexSpace) {
  util::Rng rng(1);
  const auto folds = make_folds(23, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::vector<char> seen(23, 0);
  for (const auto& f : folds) {
    for (const std::size_t i : f) {
      EXPECT_LT(i, 23u);
      EXPECT_FALSE(seen[i]) << "index " << i << " in two folds";
      seen[i] = 1;
    }
  }
  for (const char c : seen) EXPECT_TRUE(c);
  EXPECT_THROW(make_folds(10, 1, rng), std::logic_error);
}

Dataset easy_dataset(util::Rng& rng) {
  Dataset d;
  for (int i = 0; i < 30; ++i) {
    d.add({rng.next_gaussian() * 0.1 + 1.0}, 1, 1.0);
    d.add({rng.next_gaussian() * 0.1 - 1.0}, -1, 1.0);
  }
  return d;
}

/// Cross-validated accuracy of the default SvmParams: tune_svm over a
/// one-point grid.
double cv_accuracy(const Dataset& d, std::size_t folds, util::Rng& rng,
                   bool weighted = false) {
  const SvmParams params;
  CrossValidationOptions opt;
  opt.lambdas = {params.lambda};
  opt.sigma2s = {params.kernel.sigma2};
  opt.folds = folds;
  opt.weighted_validation = weighted;
  const GridSearchResult res = tune_svm(d, params, opt, rng);
  EXPECT_EQ(res.trials.size(), 1u);
  return res.best_accuracy;
}

TEST(CrossValidation, HighAccuracyOnSeparableData) {
  util::Rng rng(2);
  const Dataset d = easy_dataset(rng);
  util::Rng cv_rng(3);
  EXPECT_GT(cv_accuracy(d, 5, cv_rng), 0.9);
}

TEST(CrossValidation, WeightedValidationIgnoresZeroWeightErrors) {
  util::Rng rng(4);
  Dataset d = easy_dataset(rng);
  // Poison: mislabeled positives at weight 0 — weighted validation must not
  // let them drag the score down.
  for (int i = 0; i < 10; ++i) d.add({1.0}, -1, 0.0);
  util::Rng r1(5);
  util::Rng r2(5);
  const double weighted = cv_accuracy(d, 5, r1, true);
  const double plain = cv_accuracy(d, 5, r2, false);
  EXPECT_GT(weighted, plain);
  EXPECT_GT(weighted, 0.9);
}

TEST(CrossValidation, GridSearchFindsAWorkingCell) {
  util::Rng rng(6);
  const Dataset d = easy_dataset(rng);
  CrossValidationOptions opt;
  opt.lambdas = {0.001, 10.0};
  opt.sigma2s = {1.0};
  opt.folds = 5;
  util::Rng grid_rng(7);
  const GridSearchResult res = tune_svm(d, {}, opt, grid_rng);
  EXPECT_EQ(res.trials.size(), 2u);
  EXPECT_GT(res.best_accuracy, 0.9);
  EXPECT_DOUBLE_EQ(res.best.lambda, 10.0);
}

TEST(CrossValidation, GridSearchRejectsEmptyGrid) {
  util::Rng rng(8);
  const Dataset d = easy_dataset(rng);
  CrossValidationOptions opt;
  opt.lambdas = {};
  EXPECT_THROW(tune_svm(d, {}, opt, rng), std::logic_error);
}

// --------------------- shared-Gram folds vs per-fold subset reference ----

constexpr std::size_t kRefFolds = 4;

/// Overlapping blobs over a fixed fold split. Every other malicious row has
/// weight 0, and the only positively-weighted malicious rows sit in fold
/// 0's test set — so fold 0's training split lacks a class and must be
/// skipped, while every other fold trains on them.
Dataset reference_dataset(const std::vector<std::vector<std::size_t>>& folds,
                          util::Rng& rng) {
  std::size_t n = 0;
  for (const auto& f : folds) n += f.size();
  std::vector<char> in_fold0(n, 0);
  for (const std::size_t i : folds[0]) in_fold0[i] = 1;
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const bool benign = i % 3 != 0;
    const double c = benign ? 0.0 : 1.5;
    double w = 1.0;
    if (!benign) w = in_fold0[i] ? 0.3 + 0.7 * rng.next_double() : 0.0;
    d.add({c + rng.next_gaussian(), c + rng.next_gaussian()},
          benign ? 1 : -1, w);
  }
  return d;
}

/// The per-fold recipe the shared Gram replaced: copy the training rows
/// with Dataset::subset, train on the copy, mean the held-out accuracies
/// in fold order. `skipped` counts folds left out of the mean.
double reference_cv(const Dataset& data, const SvmParams& params,
                    const std::vector<std::vector<std::size_t>>& folds,
                    bool weighted, std::size_t* skipped) {
  double acc_sum = 0.0;
  std::size_t used = 0;
  for (const auto& test : folds) {
    std::vector<char> in_test(data.size(), 0);
    for (const std::size_t i : test) in_test[i] = 1;
    std::vector<std::size_t> train_idx;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (!in_test[i]) train_idx.push_back(i);
    }
    const Dataset train = data.subset(train_idx);
    bool pos = false;
    bool neg = false;
    for (std::size_t i = 0; i < train.size(); ++i) {
      if (train.weight[i] > 0.0) (train.y[i] > 0 ? pos : neg) = true;
    }
    double correct = 0.0;
    double total = 0.0;
    if (!test.empty() && pos && neg) {
      const SvmModel model = SvmTrainer(params).train(train);
      for (const std::size_t i : test) {
        const double w = weighted ? data.weight[i] : 1.0;
        total += w;
        if (model.predict(data.X[i]) == data.y[i]) correct += w;
      }
    }
    if (total <= 0.0) {
      ++*skipped;
      continue;
    }
    acc_sum += correct / total;
    ++used;
  }
  return used == 0 ? 0.0 : acc_sum / static_cast<double>(used);
}

TEST(CrossValidation, TuneSvmEqualsPerFoldSubsetReference) {
  CrossValidationOptions opt;
  opt.lambdas = {0.5, 4.0, 50.0};
  opt.sigma2s = {0.5, 2.0, 8.0};
  opt.folds = kRefFolds;
  util::Rng rng(21);
  // tune_svm draws its split from this fork of the caller's generator.
  util::Rng fold_rng = rng.fork(0xF01D5);
  const auto folds = make_folds(60, kRefFolds, fold_rng);
  util::Rng data_rng(22);
  const Dataset data = reference_dataset(folds, data_rng);

  for (const bool weighted : {false, true}) {
    opt.weighted_validation = weighted;
    const GridSearchResult res = tune_svm(data, {}, opt, rng);
    ASSERT_EQ(res.trials.size(), 9u);
    double best = -1.0;
    for (std::size_t g = 0; g < res.trials.size(); ++g) {
      SvmParams p;
      p.lambda = opt.lambdas[g / 3];
      p.kernel.sigma2 = opt.sigma2s[g % 3];
      std::size_t skipped = 0;
      const double want = reference_cv(data, p, folds, weighted, &skipped);
      EXPECT_EQ(skipped, 1u) << "fold 0 lacks a malicious training row";
      EXPECT_EQ(res.trials[g].lambda, p.lambda);
      EXPECT_EQ(res.trials[g].sigma2, p.kernel.sigma2);
      EXPECT_EQ(res.trials[g].accuracy, want) << "trial " << g;
      best = std::max(best, want);
    }
    EXPECT_EQ(res.best_accuracy, best);
  }
}

TEST(SvmTrainer, FoldFitOnSharedGramEqualsSubsetFit) {
  util::Rng rng(41);
  const auto folds = make_folds(90, 5, rng);
  Dataset data;
  for (std::size_t i = 0; i < 90; ++i) {
    const bool benign = i % 2 == 0;
    const double c = benign ? 0.0 : 1.2;
    // A zero-weight row every seventh: pinned both ways.
    const double w = i % 7 == 0 ? 0.0 : 0.2 + 0.8 * rng.next_double();
    data.add({c + rng.next_gaussian(), c + rng.next_gaussian(),
              rng.next_gaussian()},
             benign ? 1 : -1, w);
  }
  for (const double sigma2 : {0.5, 4.0}) {
    SvmParams p;
    p.kernel.sigma2 = sigma2;
    const GramMatrix gram(data.X, p.kernel);
    for (const double lambda : {1.0, 100.0}) {
      p.lambda = lambda;
      for (const auto& test : folds) {
        std::vector<char> held_out(data.size(), 0);
        for (const std::size_t i : test) held_out[i] = 1;
        std::vector<std::size_t> train_idx;
        for (std::size_t i = 0; i < data.size(); ++i) {
          if (!held_out[i]) train_idx.push_back(i);
        }
        const SvmModel shared =
            SvmTrainer(p).train_fold(data, gram, held_out);
        const SvmModel subset = SvmTrainer(p).train(data.subset(train_idx));
        ASSERT_GT(subset.support_vector_count(), 0u);
        EXPECT_EQ(shared.support_vectors(), subset.support_vectors());
        EXPECT_EQ(shared.coefficients(), subset.coefficients());
        EXPECT_EQ(shared.bias(), subset.bias());
      }
    }
  }
}

TEST(CrossValidation, TuneBuildsOneGramPerSigma2) {
  util::Rng rng(51);
  const Dataset d = easy_dataset(rng);
  CrossValidationOptions opt;
  opt.lambdas = {1.0, 10.0};
  opt.sigma2s = {0.5, 1.0, 4.0};
  opt.folds = 5;
  obs::Counter& evals =
      obs::MetricRegistry::global().counter("leaps_ml_kernel_evals_total");
  const std::uint64_t n = d.size();
  const std::uint64_t before = evals.value();
  util::Rng tune_rng(52);
  (void)tune_svm(d, {}, opt, tune_rng);
  // |σ²| full-dataset Grams, each counting its upper triangle — not one
  // fold-sized Gram per (λ, σ², fold) task.
  EXPECT_EQ(evals.value() - before, 3 * n * (n + 1) / 2);
}

TEST(CrossValidation, GramCoversOnlyPositiveWeightRows) {
  util::Rng rng(54);
  Dataset d = easy_dataset(rng);
  // Zero weights scattered through both classes plus one contiguous run.
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i % 7 == 3 || (i >= 20 && i < 26)) d.weight[i] = 0.0;
  }
  const std::uint64_t m = d.positive_rows().size();
  ASSERT_LT(m, d.size());
  CrossValidationOptions opt;
  opt.lambdas = {1.0, 10.0};
  opt.sigma2s = {0.5, 1.0, 4.0};
  opt.folds = 5;
  obs::Counter& evals =
      obs::MetricRegistry::global().counter("leaps_ml_kernel_evals_total");
  const std::uint64_t before = evals.value();
  util::Rng tune_rng(55);
  (void)tune_svm(d, {}, opt, tune_rng);
  EXPECT_EQ(evals.value() - before, 3 * m * (m + 1) / 2);

  const std::uint64_t pre_train = evals.value();
  TrainStats stats;
  (void)SvmTrainer({}).train(d, &stats);
  EXPECT_EQ(evals.value() - pre_train, m * (m + 1) / 2);
  ASSERT_EQ(stats.alpha.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.weight[i] == 0.0) {
      EXPECT_EQ(stats.alpha[i], 0.0) << "row " << i;
    }
  }

  // A fold fit reads the same numbers from a positive-row Gram as from an
  // all-rows one.
  SvmParams p;
  const GramMatrix all(d.X, p.kernel);
  const GramMatrix positive(d.X, p.kernel, d.positive_rows());
  EXPECT_EQ(positive.size(), m);
  EXPECT_EQ(positive.rows(), d.positive_rows());
  std::vector<char> held_out(d.size(), 0);
  for (std::size_t i = 1; i < d.size(); i += 5) held_out[i] = 1;
  const SvmModel a = SvmTrainer(p).train_fold(d, all, held_out);
  const SvmModel b = SvmTrainer(p).train_fold(d, positive, held_out);
  EXPECT_EQ(a.coefficients(), b.coefficients());
  EXPECT_EQ(a.bias(), b.bias());
  EXPECT_EQ(a.support_vectors(), b.support_vectors());

  // A Gram that leaves out a trainable row is refused.
  std::vector<std::size_t> short_rows = d.positive_rows();
  short_rows.pop_back();
  const GramMatrix missing(d.X, p.kernel, short_rows);
  EXPECT_THROW((void)SvmTrainer(p).train_fold(d, missing, held_out),
               std::logic_error);
}

// ------------------------------------------ SMO trajectory, pinned bits ----

/// 48 overlapping rows in three dimensions. Zero weights sit at every
/// fifth row and in the contiguous run 20–25, so pinned rows fall both
/// between and next to active ones.
Dataset golden_dataset() {
  util::Rng rng(61);
  Dataset d;
  for (std::size_t i = 0; i < 48; ++i) {
    const bool benign = i % 3 != 0;
    const double c = benign ? 0.0 : 0.9;
    const bool pinned = i % 5 == 4 || (i >= 20 && i < 26);
    const double w = pinned ? 0.0 : 0.3 + 0.7 * rng.next_double();
    d.add({c + rng.next_gaussian(), c + rng.next_gaussian(),
           rng.next_gaussian()},
          benign ? 1 : -1, w);
  }
  return d;
}

/// One fit's observable result. `objective` and `alpha` come from
/// TrainStats, which train_fold does not expose; its iteration count is
/// read back from the leaps_ml_svm_iterations gauge.
struct GoldenFit {
  std::size_t iterations = 0;
  std::size_t warm_nonzero = 0;
  double bias = 0.0;
  double objective = 0.0;
  std::vector<double> coef;
  std::vector<double> alpha;
};

GoldenFit record(const SvmModel& model, const TrainStats& stats) {
  return {stats.iterations, stats.warm_nonzero, model.bias(),
          stats.objective,  model.coefficients(), stats.alpha};
}

/// The three solver entry points on golden_dataset(): a cold train, a
/// train on the grown dataset warm-started from a fit of its first 32
/// rows at a larger λ (so the seed is clamped and repaired), and a fold
/// fit against an all-rows Gram with every fourth row held out.
std::vector<GoldenFit> golden_fits() {
  const Dataset data = golden_dataset();
  SvmParams p;
  p.lambda = 4.0;
  p.kernel.sigma2 = 2.0;
  std::vector<GoldenFit> out;

  TrainStats cold;
  const SvmModel cold_model = SvmTrainer(p).train(data, &cold);
  out.push_back(record(cold_model, cold));

  std::vector<std::size_t> prefix(32);
  std::iota(prefix.begin(), prefix.end(), 0);
  SvmParams wide = p;
  wide.lambda = 16.0;
  TrainStats seed;
  (void)SvmTrainer(wide).train(data.subset(prefix), &seed);
  TrainStats warm;
  const SvmModel warm_model = SvmTrainer(p).train(data, &warm, &seed.alpha);
  out.push_back(record(warm_model, warm));

  const GramMatrix gram(data.X, p.kernel);
  std::vector<char> held_out(data.size(), 0);
  for (std::size_t i = 0; i < data.size(); i += 4) held_out[i] = 1;
  const SvmModel fold_model = SvmTrainer(p).train_fold(data, gram, held_out);
  GoldenFit fold;
  fold.iterations = static_cast<std::size_t>(
      obs::MetricRegistry::global().gauge("leaps_ml_svm_iterations").value());
  fold.bias = fold_model.bias();
  fold.coef = fold_model.coefficients();
  out.push_back(fold);
  return out;
}

// Pinned with "%a" from the solver that swept every row, before the sweeps
// moved to the active rows: cold, warm, fold. The fold entry has no
// objective or alpha to pin.
const GoldenFit kGoldenFits[] = {
    {55, 0, 0x1.d5e9d63594c3p-2, -0x1.201d12036c1f2p+5,
        /*coef*/ {
            -0x1.273a864da032fp+1, 0x1.df0b4fe142af6p+0, -0x1.f8ba61fec30a2p+1,
            -0x1.fd67958fb20fcp+1, 0x1.e1f4b4516c11fp-2, 0x1.4e6315e216b2fp-1,
            0x1.c57bd966a7ccdp+0, -0x1.042e5898cb8a2p+1, 0x1.57d26612b3cdap+1,
            0x1.79e919010d7d8p+0, -0x1.10034c16f6721p+1, 0x1.5c8d9aefcd3eep-1,
            -0x1.ad89bbb7ec8e1p+0, 0x1.f59603e9f34fap+0, 0x1.e193cdeec13b9p-4,
            0x1.b2d618ae51a84p+0, -0x1.453aa45994534p+1, 0x1.28eaba0b17d9dp+0,
            -0x1.3604c084e33a5p+1, 0x1.096ee9c8d9d3bp+1, 0x1.833dad883959cp+1,
            -0x1.663d3a6459535p+1, 0x1.b4785f8394726p+1, -0x1.9f14d64b7b5edp+0,
            0x1.f1434f7e87da4p-1, 0x1.6c4dd8ca2f9bdp+0},
        /*alpha*/ {
            0x1.273a864da032fp+1, 0x0p+0, 0x1.df0b4fe142af6p+0,
            0x1.f8ba61fec30a2p+1, 0x0p+0, 0x0p+0,
            0x1.fd67958fb20fcp+1, 0x1.e1f4b4516c11fp-2, 0x0p+0,
            0x0p+0, 0x1.4e6315e216b2fp-1, 0x1.c57bd966a7ccdp+0,
            0x1.042e5898cb8a2p+1, 0x0p+0, 0x0p+0,
            0x0p+0, 0x1.57d26612b3cdap+1, 0x1.79e919010d7d8p+0,
            0x1.10034c16f6721p+1, 0x0p+0, 0x0p+0,
            0x0p+0, 0x0p+0, 0x0p+0,
            0x0p+0, 0x0p+0, 0x1.5c8d9aefcd3eep-1,
            0x1.ad89bbb7ec8e1p+0, 0x1.f59603e9f34fap+0, 0x0p+0,
            0x0p+0, 0x1.e193cdeec13b9p-4, 0x1.b2d618ae51a84p+0,
            0x1.453aa45994534p+1, 0x0p+0, 0x1.28eaba0b17d9dp+0,
            0x1.3604c084e33a5p+1, 0x1.096ee9c8d9d3bp+1, 0x1.833dad883959cp+1,
            0x0p+0, 0x0p+0, 0x0p+0,
            0x1.663d3a6459535p+1, 0x1.b4785f8394726p+1, 0x0p+0,
            0x1.9f14d64b7b5edp+0, 0x1.f1434f7e87da4p-1, 0x1.6c4dd8ca2f9bdp+0},
    },
    {36, 16, 0x1.d5d88753d9e47p-2, -0x1.201d118c84b08p+5,
        /*coef*/ {
            -0x1.273a864da032fp+1, 0x1.df0b4fe142af6p+0, -0x1.f8ba61fec30a2p+1,
            -0x1.fd67958fb20fcp+1, 0x1.e20f95705949ep-2, 0x1.4e6f1d9c11c28p-1,
            0x1.c57bd966a7ccdp+0, -0x1.042e5898cb8a2p+1, 0x1.57d2baca73c1p+1,
            0x1.79e919010d7d8p+0, -0x1.0ff537db1a238p+1, 0x1.5c38480173626p-1,
            -0x1.ad89bbb7ec8e1p+0, 0x1.f59603e9f34fap+0, 0x1.d506f08085d0dp-4,
            0x1.b2f6165d3ddd7p+0, -0x1.453aa45994534p+1, 0x1.2859c17cd51dcp+0,
            -0x1.3604c084e33a5p+1, 0x1.0a02e609b9727p+1, 0x1.833dad883959cp+1,
            -0x1.663d3a6459535p+1, 0x1.b4785f8394726p+1, -0x1.9f14d64b7b5edp+0,
            0x1.f136e8e6b0f4ap-1, 0x1.6c66f7b5d1a37p+0},
        /*alpha*/ {
            0x1.273a864da032fp+1, 0x0p+0, 0x1.df0b4fe142af6p+0,
            0x1.f8ba61fec30a2p+1, 0x0p+0, 0x0p+0,
            0x1.fd67958fb20fcp+1, 0x1.e20f95705949ep-2, 0x0p+0,
            0x0p+0, 0x1.4e6f1d9c11c28p-1, 0x1.c57bd966a7ccdp+0,
            0x1.042e5898cb8a2p+1, 0x0p+0, 0x0p+0,
            0x0p+0, 0x1.57d2baca73c1p+1, 0x1.79e919010d7d8p+0,
            0x1.0ff537db1a238p+1, 0x0p+0, 0x0p+0,
            0x0p+0, 0x0p+0, 0x0p+0,
            0x0p+0, 0x0p+0, 0x1.5c38480173626p-1,
            0x1.ad89bbb7ec8e1p+0, 0x1.f59603e9f34fap+0, 0x0p+0,
            0x0p+0, 0x1.d506f08085d0dp-4, 0x1.b2f6165d3ddd7p+0,
            0x1.453aa45994534p+1, 0x0p+0, 0x1.2859c17cd51dcp+0,
            0x1.3604c084e33a5p+1, 0x1.0a02e609b9727p+1, 0x1.833dad883959cp+1,
            0x0p+0, 0x0p+0, 0x0p+0,
            0x1.663d3a6459535p+1, 0x1.b4785f8394726p+1, 0x0p+0,
            0x1.9f14d64b7b5edp+0, 0x1.f136e8e6b0f4ap-1, 0x1.6c66f7b5d1a37p+0},
    },
    {48, 0, 0x1.188b00778e75fp-1, 0x0p+0,
        /*coef*/ {
            0x1.05d0b821e2b77p-1, 0x1.df0b4fe142af6p+0, -0x1.f8ba61fec30a2p+1,
            -0x1.fd67958fb20fcp+1, 0x1.8bc5f46f76276p-1, 0x1.c57bd966a7ccdp+0,
            -0x1.67fdf29dc6a96p-1, 0x1.79e919010d7d8p+0, -0x1.3380216a89731p+1,
            0x1.c41ecf5482ea5p-1, -0x1.ad89bbb7ec8e1p+0, -0x1.453aa45994534p+1,
            0x1.297f0d632bb8fp+1, 0x1.d738273595038p+0, 0x1.350f0dc1d0a41p+1,
            0x1.97f8da1706a52p-1, -0x1.663d3a6459535p+1, 0x1.b4785f8394726p+1,
            -0x1.342a4c20422adp+0, 0x1.b2a4691e2ff19p-1, 0x1.5020c8decaa3ap-2},
        /*alpha*/ {},
    },
};

std::string hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::vector<std::string> hex_all(const std::vector<double>& v) {
  std::vector<std::string> out;
  for (const double x : v) out.push_back(hex(x));
  return out;
}

TEST(SvmSolve, MatchesParentBitForBit) {
  const std::vector<GoldenFit> fits = golden_fits();
  ASSERT_EQ(fits.size(), std::size(kGoldenFits));
  for (std::size_t k = 0; k < fits.size(); ++k) {
    SCOPED_TRACE(k == 0 ? "cold train" : k == 1 ? "warm train" : "fold fit");
    const GoldenFit& got = fits[k];
    const GoldenFit& want = kGoldenFits[k];
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.warm_nonzero, want.warm_nonzero);
    EXPECT_EQ(hex(got.bias), hex(want.bias));
    EXPECT_EQ(hex(got.objective), hex(want.objective));
    EXPECT_EQ(hex_all(got.coef), hex_all(want.coef));
    EXPECT_EQ(hex_all(got.alpha), hex_all(want.alpha));
  }
}

}  // namespace
}  // namespace leaps::ml
