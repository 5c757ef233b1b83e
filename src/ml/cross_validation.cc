#include "ml/cross_validation.h"

#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/parallel.h"

namespace leaps::ml {

std::vector<std::vector<std::size_t>> make_folds(std::size_t n,
                                                 std::size_t folds,
                                                 util::Rng& rng) {
  LEAPS_CHECK_MSG(folds >= 2, "need at least 2 folds");
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  rng.shuffle(indices);
  std::vector<std::vector<std::size_t>> out(folds);
  for (std::size_t i = 0; i < n; ++i) {
    out[i % folds].push_back(indices[i]);
  }
  return out;
}

namespace {

/// One held-out fold over the full dataset: which rows it leaves out, and
/// whether it can be scored at all. A fold is skipped when its test set is
/// empty or its training split lacks a positively-weighted row of either
/// class — independent of λ and σ², so decided once per tune.
struct Fold {
  std::vector<std::size_t> test_idx;
  std::vector<char> held_out;  // 1 = test row, pinned at Cᵢ = 0
  bool trainable = false;
};

std::vector<Fold> plan_folds(const Dataset& data,
                             std::vector<std::vector<std::size_t>> sets) {
  std::vector<Fold> folds(sets.size());
  for (std::size_t f = 0; f < sets.size(); ++f) {
    Fold& fold = folds[f];
    fold.test_idx = std::move(sets[f]);
    fold.held_out.assign(data.size(), 0);
    for (const std::size_t i : fold.test_idx) fold.held_out[i] = 1;
    bool pos = false;
    bool neg = false;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (fold.held_out[i] || data.weight[i] <= 0.0) continue;
      (data.y[i] > 0 ? pos : neg) = true;
    }
    fold.trainable = !fold.test_idx.empty() && pos && neg;
  }
  return folds;
}

struct FoldOutcome {
  double accuracy = 0.0;
  bool used = false;  // false: empty test set, degenerate train, no weight
};

/// One held-out fold: train on the complement against the shared Gram `K`
/// of `data`'s positive-weight rows, score the fold. Pure — deterministic
/// in its inputs, no shared state — so folds and grid points evaluate
/// concurrently without changing any reported number. (SVM training itself
/// has no randomness; the only RNG in CV is the fold shuffle, which happens
/// up front on the caller's seed.)
FoldOutcome run_fold(const Dataset& data, const GramMatrix& K,
                     const SvmParams& params, const Fold& fold,
                     bool weighted_validation) {
  FoldOutcome out;
  if (!fold.trainable) return out;
  const SvmModel model = SvmTrainer(params).train_fold(data, K, fold.held_out);
  double correct = 0.0;
  double total = 0.0;
  for (const std::size_t i : fold.test_idx) {
    const double w = weighted_validation ? data.weight[i] : 1.0;
    total += w;
    if (model.predict(data.X[i]) == data.y[i]) correct += w;
  }
  if (total <= 0.0) return out;
  out.accuracy = correct / total;
  out.used = true;
  return out;
}

/// Serial reduction in fold order — the same arithmetic sequence the old
/// sequential loop performed, so the mean is byte-identical regardless of
/// how many threads evaluated the folds.
double reduce_folds(const FoldOutcome* outcomes, std::size_t folds) {
  double acc_sum = 0.0;
  std::size_t used = 0;
  for (std::size_t f = 0; f < folds; ++f) {
    if (!outcomes[f].used) continue;
    acc_sum += outcomes[f].accuracy;
    ++used;
  }
  return used == 0 ? 0.0 : acc_sum / static_cast<double>(used);
}

}  // namespace

GridSearchResult tune_svm(const Dataset& data, const SvmParams& base,
                          const CrossValidationOptions& options,
                          util::Rng& rng) {
  LEAPS_CHECK_MSG(!options.lambdas.empty() && !options.sigma2s.empty(),
                  "empty hyper-parameter grid");
  data.validate();
  LEAPS_CHECK_MSG(data.size() >= options.folds, "fewer samples than folds");

  // Identical fold split for every grid point: comparisons stay fair. The
  // fork is const on rng, so this matches the historic per-point fork.
  util::Rng fold_rng = rng.fork(0xF01D5);
  const std::vector<Fold> plan =
      plan_folds(data, make_folds(data.size(), options.folds, fold_rng));
  const std::size_t folds = plan.size();
  const std::size_t n_lambda = options.lambdas.size();
  const std::size_t n_sigma2 = options.sigma2s.size();

  // Trial g = l·|σ²| + s (λ outer, σ² inner); outcome slot g·folds + f.
  // The walk is σ²-major: one Gram per σ² over the positive-weight rows,
  // built by the pool at the top level, then that σ²'s λ × fold tasks
  // drain through the pool against it. One Gram is live at a time. Tasks
  // are claimed largest λ first: a wider box takes the most iterations,
  // and starting it last would leave the pool idle before the next σ².
  const std::vector<std::size_t> gram_rows = data.positive_rows();
  std::vector<FoldOutcome> outcomes(n_lambda * n_sigma2 * folds);
  for (std::size_t s = 0; s < n_sigma2; ++s) {
    KernelParams kernel = base.kernel;
    kernel.sigma2 = options.sigma2s[s];
    const GramMatrix K(data.X, kernel, gram_rows);
    util::parallel_for(
        0, n_lambda * folds, 1, [&](std::size_t b, std::size_t e) {
          for (std::size_t task = b; task < e; ++task) {
            const std::size_t l = n_lambda - 1 - task / folds;
            const std::size_t f = task % folds;
            SvmParams p = base;
            p.lambda = options.lambdas[l];
            p.kernel = kernel;
            outcomes[(l * n_sigma2 + s) * folds + f] = run_fold(
                data, K, p, plan[f], options.weighted_validation);
          }
        });
  }

  GridSearchResult result;
  result.best = base;
  result.best_accuracy = -1.0;
  for (std::size_t g = 0; g < n_lambda * n_sigma2; ++g) {
    const double lambda = options.lambdas[g / n_sigma2];
    const double sigma2 = options.sigma2s[g % n_sigma2];
    const double acc = reduce_folds(&outcomes[g * folds], folds);
    result.trials.push_back({lambda, sigma2, acc});
    if (acc > result.best_accuracy) {
      result.best_accuracy = acc;
      result.best = base;
      result.best.lambda = lambda;
      result.best.kernel.sigma2 = sigma2;
    }
  }
  return result;
}

}  // namespace leaps::ml
