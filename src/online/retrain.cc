#include "online/retrain.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace leaps::online {

RetrainResult retrain(const core::Detector& incumbent,
                      std::vector<PendingWindow> windows,
                      OnlineCfgAccumulator& accumulator,
                      const RetrainConfig& config) {
  LEAPS_SPAN("online.retrain");
  RetrainResult result;
  const core::ContinualState* state = incumbent.continual();
  if (state == nullptr) {
    result.error =
        "incumbent detector has no continual state (pre-v2 model file); "
        "retrain offline with leaps-train";
    return result;
  }

  if (windows.empty()) {
    result.error = "no admitted benign windows since the last cycle";
    return result;
  }
  if (windows.size() > config.max_new_samples) {
    // Newest windows describe current behavior best; drop the oldest.
    windows.erase(windows.begin(),
                  windows.end() - static_cast<std::ptrdiff_t>(
                                      config.max_new_samples));
  }

  // Grow the dataset: incumbent rows first (so the exported α lines up as
  // the warm seed), then the new benign windows, featurized exactly like
  // the serving path (Detector::Stream) and scaled with the incumbent's
  // scaler — the grown problem must live in the same feature space.
  const core::Preprocessor& pre = incumbent.preprocessor();
  const std::size_t window = pre.window();
  ml::Dataset grown = state->train;
  for (const PendingWindow& w : windows) {
    if (w.events.size() != window) continue;  // tap guarantees this; belt
    grown.add(incumbent.scaler().transform(pre.window_features(w.events)), +1,
              std::clamp(w.benignity, 0.0, 1.0));
    ++result.new_samples;
  }
  if (result.new_samples == 0) {
    result.error = "no admitted window matched the detector's window size";
    return result;
  }
  result.train_size = grown.size();

  // The warm seed: the incumbent's full dual solution over the prefix of
  // the grown dataset; new rows implicitly start at α = 0. It is optimal
  // for the incumbent's kernel and box, so the refit solves under both.
  const ml::SvmTrainer trainer(
      {.kernel = incumbent.model().kernel(), .lambda = state->lambda});

  ml::TrainStats warm_stats;
  ml::SvmModel model;
  try {
    model = trainer.train(grown, &warm_stats, &state->alpha);
  } catch (const std::exception& e) {
    result.error = std::string("warm refit failed: ") + e.what();
    return result;
  }
  result.warm_iterations = warm_stats.iterations;
  result.warm_nonzero = warm_stats.warm_nonzero;

  if (config.measure_cold_baseline) {
    LEAPS_SPAN("online.retrain.cold");
    ml::TrainStats cold_stats;
    try {
      (void)trainer.train(grown, &cold_stats);
      result.cold_iterations = cold_stats.iterations;
      result.measured_cold = true;
      result.iterations_saved =
          cold_stats.iterations > warm_stats.iterations
              ? cold_stats.iterations - warm_stats.iterations
              : 0;
    } catch (const std::exception&) {
      // The warm fit is the product; a failed baseline only loses the
      // measurement.
    }
  }

  auto candidate = std::make_shared<core::Detector>(
      incumbent.preprocessor(), incumbent.scaler(), std::move(model));
  candidate->set_decision_threshold(incumbent.decision_threshold());
  core::ContinualState next;
  next.benign_cfg = accumulator.graph_snapshot();
  next.train = std::move(grown);
  next.alpha = std::move(warm_stats.alpha);
  next.lambda = state->lambda;
  candidate->set_continual(std::move(next));
  result.candidate = std::move(candidate);
  return result;
}

}  // namespace leaps::online
