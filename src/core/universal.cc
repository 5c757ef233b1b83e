#include "core/universal.h"

#include <numeric>

#include "cfg/inference.h"
#include "util/check.h"
#include "util/rng.h"

namespace leaps::core {

UniversalEvaluation train_universal(const std::vector<AppLogs>& apps,
                                    const UniversalOptions& options) {
  LEAPS_CHECK_MSG(!apps.empty(), "universal classifier needs applications");

  // --- one shared feature space across all applications -----------------
  Preprocessor preprocessor(options.pipeline.preprocess);
  {
    std::vector<const trace::PartitionedLog*> all;
    for (const AppLogs& app : apps) {
      all.push_back(&app.benign);
      all.push_back(&app.mixed);
    }
    preprocessor.fit(all);
  }

  // --- per-application CFG weights, pooled training set -----------------
  const cfg::CfgInference inference(options.pipeline.inference);
  ml::Dataset train;
  struct EvalSlice {
    std::vector<ml::FeatureVector> benign_test;
    std::vector<ml::FeatureVector> malicious_test;
  };
  std::map<std::string, EvalSlice> eval;

  util::Rng rng(options.seed);
  for (const AppLogs& app : apps) {
    const WindowedData benign_w = preprocessor.make_windows(app.benign);
    const WindowedData mixed_w = preprocessor.make_windows(app.mixed);
    const WindowedData malicious_w = preprocessor.make_windows(app.malicious);
    LEAPS_CHECK_MSG(benign_w.X.size() >= 4,
                    "too few benign windows for " + app.name);

    // Benign windows: half train (+1, weight 1), half evaluate.
    std::vector<std::size_t> order(benign_w.X.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    const auto split = static_cast<std::size_t>(
        options.benign_train_fraction * static_cast<double>(order.size()));
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (k < split) {
        train.add(benign_w.X[order[k]], 1, 1.0);
      } else {
        eval[app.name].benign_test.push_back(benign_w.X[order[k]]);
      }
    }
    // Mixed windows: negatives with CFG-derived weights. The application's
    // own benign CFG is its oracle (Algorithm 2 is inherently
    // per-application — CFGs of different binaries share no address space).
    train.append(assess_mixed_windows(app.benign, app.mixed,
                                      inference.infer(app.benign),
                                      inference.infer(app.mixed), mixed_w,
                                      options.pipeline)
                     .samples);
    for (const ml::FeatureVector& x : malicious_w.X) {
      eval[app.name].malicious_test.push_back(x);
    }
  }

  // --- one detector for the whole machine --------------------------------
  FitOptions fit_options;
  fit_options.svm = options.svm;
  UniversalEvaluation result{
      {}, {}, fit_model(std::move(preprocessor), train, fit_options)};

  ml::ConfusionMatrix pooled;
  for (const auto& [name, slice] : eval) {
    ml::ConfusionMatrix cm;
    for (const ml::FeatureVector& x : slice.benign_test) {
      cm.add(1, result.detector.predict(x));
    }
    for (const ml::FeatureVector& x : slice.malicious_test) {
      cm.add(-1, result.detector.predict(x));
    }
    result.per_app[name] = ml::Measurements::from(cm);
    pooled.merge(cm);
  }
  result.pooled = ml::Measurements::from(pooled);
  return result;
}

}  // namespace leaps::core
