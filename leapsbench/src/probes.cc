// Per-layer probes of traced runs: each times one public call of one
// layer on the workload's own inputs, after the measured phase, so the
// end-to-end numbers of the run are untouched.
#include <algorithm>

#include "bench.h"
#include "cfg/inference.h"
#include "cfg/weight.h"
#include "core/preprocess.h"
#include "ml/kernel.h"
#include "ml/svm.h"
#include "trace/intern.h"

namespace bench {

namespace {

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

}  // namespace

void probe_training_layers(const leaps::trace::PartitionedLog& benign,
                           const leaps::trace::PartitionedLog& mixed,
                           double lambda, double sigma2, Report& report) {
  Span span("probe.training_layers");
  std::uint64_t t0 = now_ns();
  const leaps::core::TrainingData td =
      leaps::core::LeapsPipeline().prepare(benign, mixed);
  report.layer("core.prepare_ms", ms_since(t0), "ms");

  t0 = now_ns();
  leaps::core::Preprocessor preprocessor;
  preprocessor.fit({&benign, &mixed});
  report.layer("core.preprocess_fit_ms", ms_since(t0), "ms");

  t0 = now_ns();
  const leaps::cfg::CfgInference inference;
  const leaps::cfg::InferredCfg benign_cfg = inference.infer(benign);
  const leaps::cfg::InferredCfg mixed_cfg = inference.infer(mixed);
  report.layer("cfg.infer_ms", ms_since(t0), "ms");

  t0 = now_ns();
  const auto benignity =
      leaps::cfg::WeightAssessor(benign_cfg.graph).assess(mixed_cfg);
  report.layer("cfg.assess_ms", ms_since(t0), "ms");

  // One fold-sized Gram matrix: the training rows minus a tenth, the size
  // every cross-validation fit builds.
  leaps::ml::Dataset train = td.benign;
  train.append(td.mixed);
  leaps::ml::MinMaxScaler scaler;
  scaler.fit(train.X);
  scaler.transform_in_place(train);
  std::vector<leaps::ml::FeatureVector> rows(
      train.X.begin(),
      train.X.begin() + static_cast<std::ptrdiff_t>(train.size() * 9 / 10));
  leaps::ml::KernelParams kernel;
  kernel.sigma2 = sigma2;
  t0 = now_ns();
  const leaps::ml::GramMatrix gram(rows, kernel);
  report.layer("ml.gram_ms", ms_since(t0), "ms");

  leaps::ml::SvmParams params;
  params.lambda = lambda;
  params.kernel = kernel;
  leaps::ml::TrainStats stats;
  t0 = now_ns();
  leaps::ml::SvmTrainer(params).train(train, &stats);
  report.layer("ml.final_fit_ms", ms_since(t0), "ms");
  report.layer("ml.smo_iterations", static_cast<double>(stats.iterations),
               "count");
  report.layer("ml.support_vectors",
               static_cast<double>(stats.support_vectors), "count");
  report.note("gram probe: " + std::to_string(gram.size()) + " rows, " +
              std::to_string(benignity.size()) + " mixed events assessed");
}

void probe_serving_layers(
    const leaps::core::Detector& detector,
    const leaps::trace::PartitionedLog& log,
    const std::vector<const leaps::trace::PartitionedEvent*>& warm,
    const std::vector<const leaps::trace::PartitionedEvent*>& measured,
    Report& report) {
  Span span("probe.serving_layers");
  // Interning, with the run's hit/miss mix: a private table primed with
  // the warm-up events, then the measured events in schedule order.
  {
    leaps::trace::TokenTable table;
    for (const auto* e : warm) table.compact(*e);
    const std::uint64_t t0 = now_ns();
    for (const auto* e : measured) table.compact(*e);
    report.layer("trace.intern_ns_per_event",
                 static_cast<double>(now_ns() - t0) /
                     static_cast<double>(std::max<std::size_t>(
                         measured.size(), 1)),
                 "ns");
  }
  leaps::trace::TokenTable& global = leaps::trace::TokenTable::global();
  report.layer("trace.token_bytes_retained",
               static_cast<double>(global.stats().bytes_retained), "bytes");

  // Stream::push on interned events (the worker's per-event step); the
  // detector's feature cache is keyed by the global table's ids.
  std::vector<leaps::trace::CompactEvent> compact;
  compact.reserve(log.events.size());
  for (const auto& e : log.events) compact.push_back(global.compact(e));
  std::vector<double> push_ns;
  for (int rep = 0; rep < 3; ++rep) {
    leaps::core::Detector::Stream stream = detector.stream();
    const std::uint64_t t0 = now_ns();
    for (const auto& c : compact) stream.push(c, global);
    push_ns.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(compact.size()));
  }
  report.layer("core.stream_push_ns_per_event", median(push_ns), "ns");

  const leaps::core::WindowedData windows =
      detector.preprocessor().make_windows(log);
  double sink = 0.0;
  std::uint64_t t0 = now_ns();
  for (const auto& x : windows.X) sink += detector.decision_value(x);
  report.layer("core.decision_value_us_per_window",
               static_cast<double>(now_ns() - t0) / 1e3 /
                   static_cast<double>(std::max<std::size_t>(
                       windows.X.size(), 1)),
               "us");

  std::vector<double> scan_ns;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = now_ns();
    const auto result = detector.scan(log);
    sink += static_cast<double>(result.malicious_windows);
    scan_ns.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(log.events.size()));
  }
  report.layer("core.scan_ns_per_event", median(scan_ns), "ns");
  report.note("serving probe: " + std::to_string(windows.X.size()) +
              " windows, decision checksum " + std::to_string(sink));
}

void probe_trace_overhead(double cpu_ns_per_event, Report& report) {
  // What tracing adds per submitted event: one more clock read, one
  // stored sample, and a span every 64 events.
  constexpr std::size_t kEvents = 200'000;
  SpanRecorder recorder;
  recorder.set_enabled(true);
  std::vector<double> samples;
  samples.reserve(kEvents);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kEvents; ++i) {
    const std::uint64_t a = now_ns();
    samples.push_back(static_cast<double>(now_ns() - a));
    if (i % 64 == 0) recorder.add("probe.span", a, a + 1, -1, i);
  }
  const double per_event =
      static_cast<double>(now_ns() - t0) / static_cast<double>(kEvents);
  report.layer("trace.overhead_ns_per_event", per_event, "ns");
  report.layer("trace.overhead_share",
               cpu_ns_per_event > 0.0 ? per_event / cpu_ns_per_event : 0.0,
               "ratio");
}

}  // namespace bench
