// The train_putty20k workload: the leaps-train path on a putty log of 20k
// benign and 15k mixed events, with the paper's full 3 λ × 3 σ² × 10-fold
// tune, on a compute pool fixed at 4 threads. The Gram builds and SMO
// solves of its 91 fits are nearly all of the time. The trained detector
// then serves held-out logs of a second seed, open-loop, so the run also
// yields detection rates and the serving numbers of a freshly tuned model.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "core/persist.h"
#include "ml/cross_validation.h"
#include "obs/trace.h"
#include "replay.h"
#include "trace/intern.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bench {

namespace {

using leaps::trace::PartitionedLog;

constexpr std::size_t kFolds = 10;  // leaps-train's default
constexpr int kSetupReps = 5;
// Held-out serving: the fleet's shape at a rate a 2-worker server meets
// with a wide margin.
constexpr std::size_t kServeSlots = 32;
constexpr double kServeRate = 20'000.0;
constexpr double kServeWarmSeconds = 0.5;
constexpr double kServeSeconds = 3.0;
constexpr std::size_t kHeldOut = 16;  // instances scored and replayed
// The recorded tune, relative to the repository root.
constexpr char kExpectedTunePath[] = "leapsbench/expected_tune.txt";

std::string format_tune(std::uint64_t sim_seed,
                        const leaps::ml::GridSearchResult& grid) {
  std::ostringstream os;
  char buf[64];
  os << sim_seed;
  std::snprintf(buf, sizeof buf, " %.17g %.17g", grid.best.lambda,
                grid.best.kernel.sigma2);
  os << buf;
  for (const leaps::ml::GridPoint& t : grid.trials) {
    std::snprintf(buf, sizeof buf, " %.17g", t.accuracy);
    os << buf;
  }
  return os.str();
}

/// The recorded line for `sim_seed`, or "" when the file has none.
std::string expected_tune(const std::string& path, std::uint64_t sim_seed) {
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t s = 0;
    if (ls >> s && s == sim_seed) return line;
  }
  return "";
}

}  // namespace

Report run_train(const Args& args) {
  Report report;
  struct Inputs {
    EncodedLogs train;  // read back inside train_s, as leaps-train does
    HeldOut held;
  };
  std::unique_ptr<Inputs> in;
  const double setup_s = timed_setups(kSetupReps, [&] {
    in.reset();
    auto next = std::make_unique<Inputs>();
    next->train =
        simulate("putty_reverse_tcp", 20000, 15000, 1000, kTrainingSeed);
    next->held = simulate_held_out("putty_reverse_tcp", args.seed,
                                   kHeldOut, 1000, 500);
    leaps::trace::TokenTable& table = leaps::trace::TokenTable::global();
    for (const auto* e : events_of(next->held)) table.compact(*e);
    in = std::move(next);
  });
  report.e2e("setup_s", setup_s, "s");

  // --- leaps-train: read → prepare → scale → tune → final fit → save.
  leaps::util::Parallel::set_threads(kTrainThreads);
  std::filesystem::create_directories(kOutDir);
  const std::string model_path = std::string(kOutDir) + "/train-" +
                                 std::to_string(args.seed) + ".detector";
  if (args.trace) {
    leaps::obs::Tracer::instance().clear();
    leaps::obs::Tracer::set_enabled(true);
  }
  const CpuTimes cpu0 = process_cpu_times();
  const std::uint64_t t0 = now_ns();
  std::uint64_t tune_ns = 0;
  leaps::ml::GridSearchResult grid;
  leaps::ml::TrainStats stats;
  std::shared_ptr<leaps::core::Detector> detector;
  std::size_t train_events = 0;
  {
    Span span("train.leaps_train");
    const PartitionedLog benign = read_log(in->train.benign);
    const PartitionedLog mixed = read_log(in->train.mixed);
    train_events = benign.events.size() + mixed.events.size();
    leaps::core::TrainingData td;
    {
      Span prepare_span("core.prepare");
      td = leaps::core::LeapsPipeline().prepare(benign, mixed);
    }
    leaps::ml::Dataset train = td.benign;
    train.append(td.mixed);
    leaps::ml::MinMaxScaler scaler;
    scaler.fit(train.X);
    scaler.transform_in_place(train);
    leaps::ml::CrossValidationOptions cv;
    cv.folds = kFolds;
    cv.weighted_validation = true;
    leaps::util::Rng rng(7);
    const std::uint64_t tune0 = now_ns();
    {
      Span tune_span("ml.tune");
      grid = leaps::ml::tune_svm(train, {}, cv, rng);
    }
    tune_ns = now_ns() - tune0;
    leaps::ml::SvmModel model;
    {
      Span fit_span("ml.final_fit");
      model = leaps::ml::SvmTrainer(grid.best).train(train, &stats);
    }
    detector = std::make_shared<leaps::core::Detector>(td.preprocessor,
                                                       scaler, model);
    leaps::core::ContinualState continual;
    continual.benign_cfg = td.benign_cfg.graph;
    continual.train = train;
    continual.alpha = stats.alpha;
    detector->set_continual(std::move(continual));
    Span save_span("core.save_detector");
    leaps::core::save_detector_file(*detector, model_path);
  }
  const double train_s = static_cast<double>(now_ns() - t0) / 1e9;
  const std::uint64_t train_cpu = (process_cpu_times() - cpu0).total();
  leaps::obs::Tracer::set_enabled(false);
  report.e2e("train_s", train_s, "s");
  char line[256];
  std::snprintf(line, sizeof line,
                "leaps-train: %zu events, %zu threads, %.3f s wall, %.3f "
                "core-s CPU; tuned lambda=%g sigma2=%g (CV acc %.4f); %zu "
                "support vectors, %zu SMO iterations",
                train_events, kTrainThreads, train_s,
                static_cast<double>(train_cpu) / 1e9, grid.best.lambda,
                grid.best.kernel.sigma2, grid.best_accuracy,
                stats.support_vectors, stats.iterations);
  report.note(line);
  const std::size_t fits = grid.trials.size() * kFolds + 1;
  report.attempted += fits;

  // Gate: the tune picks the recorded (λ, σ²) with the recorded per-trial
  // CV accuracies, bit for bit.
  const std::string got = format_tune(kTrainingSeed, grid);
  if (args.record_tune) {
    std::printf("TUNE %s\n", got.c_str());
  } else {
    const std::string want = expected_tune(kExpectedTunePath, kTrainingSeed);
    report.note("tune: " + got);
    if (want != got) {
      report.gate_failed(want.empty()
                             ? std::string("no recorded tune in ") +
                                   kExpectedTunePath
                             : "tune differs from the record: " + want,
                         fits);
    }
  }
  // Gate: the saved detector reads back and gives the same verdicts.
  {
    const leaps::core::Detector loaded =
        leaps::core::load_detector_file(model_path);
    const auto a = detector->scan(in->held.benign[0]);
    const auto b = loaded.scan(in->held.benign[0]);
    report.attempted += a.window_labels.size();
    if (a.window_labels != b.window_labels) {
      report.gate_failed("reloaded detector gives other verdicts",
                         a.window_labels.size());
    }
    std::filesystem::remove(model_path);
  }

  // --- Held-out detection and serving with the trained detector.
  Detection detection;
  detection.scan(*detector, in->held);
  detection.report(report);
  warm_serving(*detector, in->held);
  ReplayPlan plan;
  plan.slots = kServeSlots;
  plan.rate = kServeRate;
  plan.window = detector->preprocessor().window();
  plan.size_phases(kServeWarmSeconds, kServeSeconds);
  plan.source = held_out_sessions(in->held, "putty");
  ServeConfig config;
  config.workers = kServeWorkers;
  config.coalesce = 1;
  config.profiles["putty"] = detector;
  const ReplayResult r = replay_open_loop(plan, config, args.trace);
  summarize_replay(plan, r, replay_reference(plan, config),
                   stream_reference(plan, config), kServeWorkers, args.trace,
                   report);

  if (args.trace) {
    report.layer("ml.tune_ms", static_cast<double>(tune_ns) / 1e6, "ms");
    // The program's own svm.train spans: 90 fold fits, then the final fit.
    std::vector<double> fold_ms;
    for (const leaps::obs::SpanRecord& s :
         leaps::obs::Tracer::instance().snapshot()) {
      if (std::string(s.name) == "svm.train") {
        fold_ms.push_back(static_cast<double>(s.dur_ns) / 1e6);
      }
    }
    if (!fold_ms.empty()) fold_ms.pop_back();
    report.layer("ml.fold_fit_ms_p50", median(fold_ms), "ms");
    import_program_spans();
    const PartitionedLog benign = read_log(in->train.benign);
    const PartitionedLog mixed = read_log(in->train.mixed);
    probe_training_layers(benign, mixed, grid.best.lambda,
                          grid.best.kernel.sigma2, report);
    probe_serving_layers(
        *detector, in->held.benign[0], events_of(in->held),
        schedule_events(plan, plan.warm_events,
                        plan.warm_events + plan.measured_events),
        report);
  }
  return report;
}

}  // namespace bench
