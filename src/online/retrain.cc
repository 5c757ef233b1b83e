#include "online/retrain.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace leaps::online {

RetrainScheduler::RetrainScheduler(
    std::shared_ptr<const core::Detector> base,
    OnlineCfgAccumulator* accumulator, RetrainConfig config)
    : config_(config),
      accumulator_(accumulator),
      base_(std::move(base)) {
  LEAPS_CHECK_MSG(base_ != nullptr, "retrain needs a base detector");
  LEAPS_CHECK_MSG(accumulator_ != nullptr, "retrain needs an accumulator");
}

bool RetrainScheduler::can_retrain() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return base_->continual() != nullptr;
}

bool RetrainScheduler::due() const {
  return can_retrain() &&
         accumulator_->events_since_drain() >= config_.min_new_events;
}

RetrainResult RetrainScheduler::retrain() {
  return retrain(accumulator_->drain_windows());
}

RetrainResult RetrainScheduler::retrain(std::vector<PendingWindow> windows) {
  LEAPS_SPAN("online.retrain");
  RetrainResult result;
  std::shared_ptr<const core::Detector> base;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    base = base_;
  }
  const core::ContinualState* state = base->continual();
  if (state == nullptr) {
    result.error =
        "base detector has no continual state (pre-v2 model file); "
        "retrain offline with leaps-train";
    return result;
  }

  if (windows.empty()) {
    result.error = "no admitted benign windows since the last cycle";
    return result;
  }
  if (windows.size() > config_.max_new_samples) {
    // Newest windows describe current behavior best; drop the oldest.
    windows.erase(windows.begin(),
                  windows.end() - static_cast<std::ptrdiff_t>(
                                      config_.max_new_samples));
  }

  // Grow the dataset: incumbent rows first (so the exported α lines up as
  // the warm seed), then the new benign windows, featurized exactly like
  // the serving path (Detector::Stream) and scaled with the incumbent's
  // scaler — the grown problem must live in the same feature space.
  const core::Preprocessor& pre = base->preprocessor();
  const std::size_t window = pre.window();
  ml::Dataset grown = state->train;
  for (const PendingWindow& w : windows) {
    if (w.events.size() != window) continue;  // tap guarantees this; belt
    grown.add(base->scaler().transform(pre.window_features(w.events)), +1,
              std::clamp(w.benignity, 0.0, 1.0));
    ++result.new_samples;
  }
  if (result.new_samples == 0) {
    result.error = "no admitted window matched the detector's window size";
    return result;
  }
  result.train_size = grown.size();

  // The warm seed: the incumbent's full dual solution over the prefix of
  // the grown dataset; new rows implicitly start at α = 0.
  ml::SvmParams params = config_.svm;
  params.kernel = base->model().kernel();
  const ml::SvmTrainer trainer(params);

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

  if (config_.measure_cold_baseline) {
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
      base->preprocessor(), base->scaler(), std::move(model));
  candidate->set_decision_threshold(base->decision_threshold());
  core::ContinualState next;
  next.benign_cfg = accumulator_->graph_snapshot();
  next.train = std::move(grown);
  next.alpha = std::move(warm_stats.alpha);
  candidate->set_continual(std::move(next));
  result.candidate = std::move(candidate);

  const std::lock_guard<std::mutex> lock(mu_);
  ++cycles_;
  return result;
}

void RetrainScheduler::adopt(
    std::shared_ptr<const core::Detector> promoted) {
  LEAPS_CHECK_MSG(promoted != nullptr, "cannot adopt a null detector");
  const std::lock_guard<std::mutex> lock(mu_);
  base_ = std::move(promoted);
}

std::uint64_t RetrainScheduler::cycles() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cycles_;
}

}  // namespace leaps::online
