// leaps_bench — runs one workload of the LEAPS benchmark and prints its
// metrics, ending with one JSON result line.
//
//   leaps_bench --workload <train_putty20k|serve_fleet|serve_churn>
//               --seed N --seconds S --trace 0|1 [--record-tune]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around the calls into each layer, runs the per-layer
// probes and reports the per-layer metrics. Exit status: 0 when every
// correctness gate passed, 1 when one failed or the run broke, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using bench::Metric;
using bench::Report;

// Every run reports every metric of its kind, in this order (the names
// and units of BENCHMARK.json). A layer a workload leaves idle reads 0.
const Metric kEndToEnd[] = {
    {"setup_s", 0, "s"},        {"train_s", 0, "s"},
    {"peak_rss_mb", 0, "MB"},   {"detect_tpr", 0, "ratio"},
    {"detect_tnr", 0, "ratio"}, {"cpu_ns_per_event", 0, "ns"},
};

const Metric kPerLayer[] = {
    {"trace.parse_ns_per_event", 0, "ns"},
    {"trace.intern_ns_per_event", 0, "ns"},
    {"trace.intern_hit_ratio", 0, "ratio"},
    {"trace.token_bytes_retained", 0, "bytes"},
    {"core.prepare_ms", 0, "ms"},
    {"core.preprocess_fit_ms", 0, "ms"},
    {"cfg.infer_ms", 0, "ms"},
    {"cfg.assess_ms", 0, "ms"},
    {"ml.tune_ms", 0, "ms"},
    {"ml.gram_ms", 0, "ms"},
    {"ml.fold_fit_ms_p50", 0, "ms"},
    {"ml.final_fit_ms", 0, "ms"},
    {"ml.smo_iterations", 0, "count"},
    {"ml.support_vectors", 0, "count"},
    {"core.stream_push_ns_per_event", 0, "ns"},
    {"core.decision_value_us_per_window", 0, "us"},
    {"core.scan_ns_per_event", 0, "ns"},
    {"serve.verdict_p50_ms", 0, "ms"},
    {"serve.verdict_p99_ms", 0, "ms"},
    {"serve.verdict_samples", 0, "count"},
    {"serve.failed_ratio", 0, "ratio"},
    {"serve.submit_ns_p50", 0, "ns"},
    {"serve.submit_ns_p99", 0, "ns"},
    {"serve.queue_wait_us_p50", 0, "us"},
    {"serve.queue_wait_us_p99", 0, "us"},
    {"serve.queue_high_water", 0, "events"},
    {"serve.events_per_run", 0, "events"},
    {"serve.classify_us_per_run", 0, "us"},
    {"serve.worker_busy_share", 0, "ratio"},
    {"serve.session_open_us", 0, "us"},
    {"serve.session_close_us", 0, "us"},
    {"serve.slab_overflow", 0, "count"},
    {"attrib.snapshot_ms", 0, "ms"},
    {"gen.late_ms_mean", 0, "ms"},
    {"gen.late_ms_max", 0, "ms"},
    {"calib.ns_per_op", 0, "ns"},
    {"calib.ns_per_byte", 0, "ns"},
    {"calib.parallelism", 0, "ratio"},
    {"raw.setup_s", 0, "s"},
    {"raw.train_s", 0, "s"},
    {"raw.cpu_ns_per_event", 0, "ns"},
    {"trace.overhead_ns_per_event", 0, "ns"},
    {"trace.overhead_share", 0, "ratio"},
    {"trace.spans", 0, "count"},
    {"traced.setup_s", 0, "s"},
    {"traced.train_s", 0, "s"},
    {"traced.cpu_ns_per_event", 0, "ns"},
};

/// `got` reordered to `canon`, with absent entries at 0.
template <std::size_t N>
std::vector<Metric> canonical(const Metric (&canon)[N],
                              const std::vector<Metric>& got) {
  std::vector<Metric> out;
  for (const Metric& c : canon) {
    Metric m = c;
    for (const Metric& g : got) {
      if (g.name == c.name) m.value = g.value;
    }
    out.push_back(m);
  }
  return out;
}

double value_of(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "leaps_bench: %s\n"
               "usage: leaps_bench --workload "
               "<train_putty20k|serve_fleet|serve_churn> --seed N "
               "--seconds S --trace 0|1 [--record-tune]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-tune") {
      args.record_tune = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else usage("unknown option " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  using Workload = Report (*)(const bench::Args&);
  Workload run = nullptr;
  std::size_t threads = bench::kServeWorkers;
  if (args.workload == "train_putty20k") {
    run = bench::run_train;
    threads = bench::kTrainThreads;
  } else if (args.workload == "serve_fleet") {
    run = bench::run_fleet;
  } else if (args.workload == "serve_churn") {
    run = bench::run_churn;
  } else {
    usage("unknown workload '" + args.workload + "'");
  }
  bench::spans().set_enabled(args.trace);

  Report report;
  bench::Calibration calibration;
  try {
    bench::Span root("bench.run");
    const bench::Calibration before = bench::calibrate(threads);
    report = run(args);
    // Before the second calibration, whose buffer would count otherwise.
    report.e2e("peak_rss_mb", bench::peak_rss_mb(), "MB");
    calibration = bench::Calibration::mean(before, bench::calibrate(threads));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leaps_bench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  calibration.report(report);
  report.end_to_end = canonical(kEndToEnd, report.end_to_end);
  // Timings go out on the reference host (see Calibration); the raw
  // readings stay as per-layer metrics.
  for (Metric& m : report.end_to_end) {
    if (m.unit == "s" || m.unit == "ns") {
      report.layer("raw." + m.name, m.value, m.unit);
      m.value *= calibration.scale();
    }
  }

  if (args.trace) {
    const bench::ParseTotals parse = bench::parse_totals();
    report.layer("trace.parse_ns_per_event",
                 parse.events == 0 ? 0.0
                                   : static_cast<double>(parse.ns) /
                                         static_cast<double>(parse.events),
                 "ns");
    probe_trace_overhead(value_of(report.per_layer, "raw.cpu_ns_per_event"),
                         report);
    // The traced run's own end-to-end readings: against the untraced
    // runs' they give the tracing overhead.
    for (const char* name : {"setup_s", "train_s", "cpu_ns_per_event"}) {
      report.layer(std::string("traced.") + name,
                   value_of(report.end_to_end, name), "");
    }
    report.layer("trace.spans", static_cast<double>(bench::spans().size()),
                 "count");
    for (const std::string& line : bench::spans().self_time_table()) {
      report.note("span " + line);
    }
    std::filesystem::create_directories(bench::kOutDir);
    const std::string path = std::string(bench::kOutDir) + "/spans-" +
                             args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (bench::spans().write(path)) report.note("spans written to " + path);
    report.per_layer = canonical(kPerLayer, report.per_layer);
  }
  bench::emit(args, report);
  return report.correct ? 0 : 1;
}
