#include "core/pipeline.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace leaps::core {

TrainingData LeapsPipeline::prepare(
    const trace::PartitionedLog& benign_log,
    const trace::PartitionedLog& mixed_log) const {
  LEAPS_SPAN("pipeline.prepare");
  TrainingData out;

  // --- Data Preprocessing Module ----------------------------------------
  {
    LEAPS_SPAN("pipeline.preprocess");
    out.preprocessor = Preprocessor(options_.preprocess);
    out.preprocessor.fit({&benign_log, &mixed_log});
    out.benign_windows = out.preprocessor.make_windows(benign_log);
    out.mixed_windows = out.preprocessor.make_windows(mixed_log);
  }

  // --- Control Flow Graph Inference Module ------------------------------
  const cfg::CfgInference inference(options_.inference);
  {
    LEAPS_SPAN("pipeline.cfg_infer");
    out.benign_cfg = inference.infer(benign_log);
    out.mixed_cfg = inference.infer(mixed_log);
  }

  for (const ml::FeatureVector& x : out.benign_windows.X) {
    out.benign.add(x, /*label=*/1, /*weight=*/1.0);
  }
  MixedSamples mixed =
      assess_mixed_windows(benign_log, mixed_log, out.benign_cfg,
                           out.mixed_cfg, out.mixed_windows, options_);
  out.mixed = std::move(mixed.samples);
  out.event_benignity = std::move(mixed.event_benignity);
  out.alignment = std::move(mixed.alignment);
  return out;
}

MixedSamples assess_mixed_windows(const trace::PartitionedLog& benign_log,
                                  const trace::PartitionedLog& mixed_log,
                                  const cfg::InferredCfg& benign_cfg,
                                  const cfg::InferredCfg& mixed_cfg,
                                  const WindowedData& mixed_windows,
                                  const PipelineOptions& options) {
  MixedSamples out;

  // --- CFG Alignment (Section VI-A extension, optional) -----------------
  const cfg::CfgAligner aligner(options.alignment);
  const cfg::InferredCfg* assessed_mixed = &mixed_cfg;
  cfg::InferredCfg translated;
  if (options.align_cfgs) {
    LEAPS_SPAN("pipeline.align");
    const cfg::NodeFingerprints benign_fp = cfg::node_fingerprints(benign_log);
    const cfg::NodeFingerprints mixed_fp = cfg::node_fingerprints(mixed_log);
    out.alignment = aligner.align(benign_cfg.graph, mixed_cfg.graph,
                                  &benign_fp, &mixed_fp);
    translated = aligner.translate_cfg(out.alignment, mixed_cfg);
    assessed_mixed = &translated;
  }

  // --- Weight Assessment -------------------------------------------------
  const cfg::WeightAssessor assessor(benign_cfg.graph);
  {
    LEAPS_SPAN("pipeline.weight_assess");
    out.event_benignity = assessor.assess(*assessed_mixed);
    // Events no inferred path maps to (one-frame walks produce no edges)
    // are scored by their frame addresses against the same density array;
    // only events with *no* application frames at all fall back to the
    // default.
    for (const trace::PartitionedEvent& e : mixed_log.events) {
      if (out.event_benignity.count(e.seq) > 0) continue;
      if (e.app_stack.empty()) {
        out.event_benignity[e.seq] = options.default_benignity;
        continue;
      }
      double sum = 0.0;
      for (std::uint64_t addr : e.app_stack) {
        if (options.align_cfgs) {
          const auto t = aligner.translate(out.alignment, addr);
          // Untranslatable = inserted or unknown code: benignity 0.
          if (!t.has_value()) continue;
          addr = *t;
        }
        sum += assessor.node_benignity(addr);
      }
      out.event_benignity[e.seq] =
          sum / static_cast<double>(e.app_stack.size());
    }
  }

  // --- per-window cᵢ -------------------------------------------------------
  LEAPS_SPAN("pipeline.assemble");
  for (std::size_t w = 0; w < mixed_windows.X.size(); ++w) {
    double malice_sum = 0.0;
    const auto& indices = mixed_windows.event_indices[w];
    for (const std::size_t idx : indices) {
      const std::uint64_t seq = mixed_log.events[idx].seq;
      const auto it = out.event_benignity.find(seq);
      const double benignity = it == out.event_benignity.end()
                                   ? options.default_benignity
                                   : it->second;
      malice_sum += 1.0 - std::clamp(benignity, 0.0, 1.0);
    }
    const double weight =
        indices.empty() ? 0.0
                        : malice_sum / static_cast<double>(indices.size());
    out.samples.add(mixed_windows.X[w], /*label=*/-1, weight);
  }
  return out;
}

Detector fit_model(Preprocessor preprocessor, ml::Dataset& train,
                   const FitOptions& options, ml::TrainStats* stats,
                   std::optional<ml::GridSearchResult>* grid) {
  if (!options.weighted) {
    std::fill(train.weight.begin(), train.weight.end(), 1.0);
  }
  ml::MinMaxScaler scaler;
  scaler.fit(train.X);
  scaler.transform_in_place(train);
  ml::SvmParams params = options.svm;
  if (options.tune.has_value()) {
    ml::CrossValidationOptions cv = *options.tune;
    cv.weighted_validation = options.weighted;
    util::Rng rng(7);
    ml::GridSearchResult result = ml::tune_svm(train, options.svm, cv, rng);
    params = result.best;
    if (grid != nullptr) *grid = std::move(result);
  }
  ml::SvmModel model = ml::SvmTrainer(params).train(train, stats);
  return Detector(std::move(preprocessor), std::move(scaler),
                  std::move(model));
}

FitResult fit_detector(const trace::PartitionedLog& benign_log,
                       const trace::PartitionedLog& mixed_log,
                       const FitOptions& options) {
  TrainingData data =
      LeapsPipeline(options.pipeline).prepare(benign_log, mixed_log);
  ml::Dataset train = data.benign;
  train.append(data.mixed);
  ml::TrainStats stats;
  std::optional<ml::GridSearchResult> grid;
  Detector detector =
      fit_model(data.preprocessor, train, options, &stats, &grid);
  const double lambda =
      grid.has_value() ? grid->best.lambda : options.svm.lambda;
  detector.set_continual(
      {data.benign_cfg.graph, std::move(train), stats.alpha, lambda});
  return {std::move(data), std::move(detector), std::move(stats),
          std::move(grid)};
}

Detector::Detector(Preprocessor preprocessor, ml::MinMaxScaler scaler,
                   ml::SvmModel model)
    : preprocessor_(std::move(preprocessor)),
      scaler_(std::move(scaler)),
      model_(std::move(model)) {
  LEAPS_CHECK_MSG(preprocessor_.fitted(), "Detector needs a fitted pipeline");
  LEAPS_CHECK_MSG(scaler_.fitted(), "Detector needs a fitted scaler");
}

double Detector::WindowCounts::malicious_fraction() const {
  const std::size_t total = benign_windows + malicious_windows;
  return total == 0
             ? 0.0
             : static_cast<double>(malicious_windows) /
                   static_cast<double>(total);
}

Detector::ScanResult Detector::scan(const trace::PartitionedLog& log) const {
  ScanResult result;
  const WindowedData windows = preprocessor_.make_windows(log);
  result.window_labels.reserve(windows.X.size());
  for (const ml::FeatureVector& x : windows.X) {
    const int label = predict(x);
    result.window_labels.push_back(label);
    result.add(label);
  }
  return result;
}

int Detector::predict(const ml::FeatureVector& raw_features) const {
  const double f = decision_value(raw_features);
  return f >= decision_threshold_ ? 1 : -1;
}

double Detector::decision_value(const ml::FeatureVector& raw_features) const {
  return model_.decision_value(scaler_.transform(raw_features));
}

double Detector::calibrate(const trace::PartitionedLog& clean_log,
                           double max_false_alarm_rate) {
  LEAPS_CHECK_MSG(max_false_alarm_rate >= 0.0 && max_false_alarm_rate <= 1.0,
                  "false-alarm rate must be in [0,1]");
  const WindowedData windows = preprocessor_.make_windows(clean_log);
  LEAPS_CHECK_MSG(!windows.X.empty(), "calibrate needs at least one window");
  std::vector<double> scores;
  scores.reserve(windows.X.size());
  for (const ml::FeatureVector& x : windows.X) {
    scores.push_back(model_.decision_value(scaler_.transform(x)));
  }
  std::sort(scores.begin(), scores.end());
  // Allow at most floor(rate * n) clean windows below the threshold.
  const auto allowed = static_cast<std::size_t>(
      max_false_alarm_rate * static_cast<double>(scores.size()));
  if (allowed == 0) {
    // Strictly below the lowest clean score.
    decision_threshold_ = scores.front() - 1e-9;
  } else {
    // Threshold between the allowed-th and the next clean score.
    decision_threshold_ = allowed >= scores.size()
                              ? scores.back() + 1e-9
                              : (scores[allowed - 1] + scores[allowed]) / 2.0;
  }
  std::size_t flagged = 0;
  for (const double s : scores) flagged += s < decision_threshold_ ? 1 : 0;
  return static_cast<double>(flagged) / static_cast<double>(scores.size());
}

Detector::Stream::Stream(const Detector& detector) : detector_(&detector) {
  pending_.reserve(kFeaturesPerEvent * detector.preprocessor().window());
}

std::optional<int> Detector::Stream::push(
    const trace::PartitionedEvent& event) {
  return push_tuple(detector_->preprocessor().tuple(event));
}

std::optional<int> Detector::Stream::push(const trace::CompactEvent& event,
                                          const trace::TokenTable& table) {
  return push_tuple(
      detector_->codec().tuple(detector_->preprocessor(), table, event));
}

std::optional<int> Detector::Stream::push_tuple(const EventTuple& t) {
  append_features(t, pending_);
  ++events_seen_;
  if (pending_.size() <
      kFeaturesPerEvent * detector_->preprocessor().window()) {
    return std::nullopt;
  }
  const double f = detector_->decision_value(pending_);
  const int label = f >= detector_->decision_threshold() ? 1 : -1;
  last_decision_value_ = f;
  pending_.clear();
  tally_.add(label);
  return label;
}

}  // namespace leaps::core
