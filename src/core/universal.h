// Universal (cross-application) classifier — Section II-B-2:
//
//   "We point out that we use the application-wise binary classifier only
//    for the convenience of evaluation. When applied to attack detection
//    in real situations, LEAPS can coalesce all application data from the
//    system event log to learn a universal classifier for testing."
//
// train_universal() does exactly that: one Preprocessor (shared Lib/Func
// clusterers) fitted over every application's logs, per-application CFG
// weight assessment (each application has its own benign CFG oracle), all
// windows pooled into one weighted training set, and a single WSVM.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ml/metrics.h"

namespace leaps::core {

/// One application's contribution: its clean trace, its (possibly noisy)
/// mixed trace, and a pure-malicious trace for evaluation.
struct AppLogs {
  std::string name;
  trace::PartitionedLog benign;
  trace::PartitionedLog mixed;
  trace::PartitionedLog malicious;
};

struct UniversalOptions {
  PipelineOptions pipeline;
  /// A Gaussian kernel of radius σ² = 8 and λ = 10, the values the
  /// universal-classifier study trains with.
  ml::SvmParams svm{.kernel = {.sigma2 = 8.0}, .lambda = 10.0};
  /// Benign windows reserved for training (rest evaluate).
  double benign_train_fraction = 0.5;
  std::uint64_t seed = 7;
};

struct UniversalEvaluation {
  /// Per-application measurements of the single shared detector.
  std::map<std::string, ml::Measurements> per_app;
  /// Pooled confusion across all applications.
  ml::Measurements pooled;
  /// The universal detector itself, ready to scan any application's slice.
  Detector detector;
};

/// Trains and evaluates the universal classifier. Requires at least one
/// application and at least 4 benign windows per application.
UniversalEvaluation train_universal(const std::vector<AppLogs>& apps,
                                    const UniversalOptions& options);

}  // namespace leaps::core
