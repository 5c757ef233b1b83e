#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "ml/svm.h"
#include "sim/scenario.h"
#include "trace/binary_log.h"
#include "trace/intern.h"
#include "trace/parser.h"
#include "util/parallel.h"

namespace bench {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

CpuTimes process_cpu_times() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000;
  };
  return {ns(u.ru_utime), ns(u.ru_stime)};
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

void Report::gate_failed(const std::string& what, std::uint64_t count) {
  correct = false;
  failed += count;
  note("GATE FAILED: " + what);
}

EncodedLogs simulate(const std::string& scenario, std::size_t benign,
                     std::size_t mixed, std::size_t malicious,
                     std::uint64_t seed) {
  Span span("sim.generate", seed);
  leaps::sim::SimConfig config;
  config.benign_events = benign;
  config.mixed_events = mixed;
  config.malicious_events = malicious;
  config.seed = seed;
  const leaps::sim::ScenarioLogs logs = leaps::sim::generate_scenario(
      leaps::sim::find_scenario(scenario), config);
  EncodedLogs out;
  auto encode = [](const leaps::trace::RawLog& raw) {
    std::ostringstream os;
    leaps::trace::write_raw_log_binary(raw, os);
    return os.str();
  };
  out.benign = encode(logs.benign);
  out.mixed = encode(logs.mixed);
  out.malicious = encode(logs.malicious);
  return out;
}

namespace {
ParseTotals g_parse;  // read_log runs on the main thread only
}  // namespace

ParseTotals parse_totals() { return g_parse; }

leaps::trace::PartitionedLog read_log(const std::string& bytes) {
  Span span("trace.read_log");
  const std::uint64_t t0 = now_ns();
  std::istringstream is(bytes);
  leaps::util::StatusOr<leaps::trace::RawLog> raw =
      leaps::trace::read_raw_log_any(is);
  if (!raw.ok()) {
    throw std::runtime_error("log decode failed: " +
                             raw.status().to_string());
  }
  const leaps::trace::ParsedTrace t =
      leaps::trace::RawLogParser().parse_raw(*raw);
  leaps::trace::PartitionedLog log =
      leaps::trace::StackPartitioner(t.log.process_name).partition(t.log);
  g_parse.ns += now_ns() - t0;
  g_parse.events += log.events.size();
  return log;
}

HeldOut simulate_held_out(const std::string& scenario, std::uint64_t seed,
                          std::size_t instances, std::size_t benign_events,
                          std::size_t malicious_events) {
  HeldOut out;
  for (std::size_t k = 0; k < instances; ++k) {
    // Distinct from kTrainingSeed for every --seed.
    const EncodedLogs logs = simulate(scenario, benign_events, 60,
                                      malicious_events,
                                      seed * 1000 + 17 + k);
    out.benign.push_back(read_log(logs.benign));
    out.malicious.push_back(read_log(logs.malicious));
  }
  return out;
}

std::vector<const leaps::trace::PartitionedEvent*> events_of(
    const HeldOut& held) {
  std::vector<const leaps::trace::PartitionedEvent*> out;
  for (const auto* logs : {&held.benign, &held.malicious}) {
    for (const leaps::trace::PartitionedLog& log : *logs) {
      for (const leaps::trace::PartitionedEvent& e : log.events) {
        out.push_back(&e);
      }
    }
  }
  return out;
}

void warm_serving(const leaps::core::Detector& detector,
                  const HeldOut& held) {
  Span span("setup.warm");
  leaps::trace::TokenTable& table = leaps::trace::TokenTable::global();
  leaps::core::Detector::Stream stream = detector.stream();
  for (const leaps::trace::PartitionedEvent* e : events_of(held)) {
    stream.push(table.compact(*e), table);
  }
}

void Detection::count(bool malicious, int label) {
  if (malicious) {
    (label == -1 ? tp : fn) += 1;
  } else {
    (label == 1 ? tn : fp) += 1;
  }
}

void Detection::scan(const leaps::core::Detector& detector,
                     const HeldOut& held) {
  Span span("core.scan_held_out");
  for (const auto& log : held.benign) {
    const auto r = detector.scan(log);
    tn += r.benign_windows;
    fp += r.malicious_windows;
  }
  for (const auto& log : held.malicious) {
    const auto r = detector.scan(log);
    tp += r.malicious_windows;
    fn += r.benign_windows;
  }
}

void Detection::report(Report& report) const {
  report.e2e("detect_tpr",
             tp + fn == 0 ? 0.0
                          : static_cast<double>(tp) /
                                static_cast<double>(tp + fn),
             "ratio");
  report.e2e("detect_tnr",
             tn + fp == 0 ? 0.0
                          : static_cast<double>(tn) /
                                static_cast<double>(tn + fp),
             "ratio");
  report.note("detection over windows: tp " + std::to_string(tp) +
              " fn " + std::to_string(fn) + " tn " + std::to_string(tn) +
              " fp " + std::to_string(fp));
}

FitResult fit_detector(const leaps::trace::PartitionedLog& benign,
                       const leaps::trace::PartitionedLog& mixed,
                       double lambda, double sigma2) {
  Span span("ml.fit_detector");
  const std::uint64_t t0 = now_ns();
  const leaps::core::TrainingData td =
      leaps::core::LeapsPipeline().prepare(benign, mixed);
  leaps::ml::Dataset train = td.benign;
  train.append(td.mixed);
  leaps::ml::MinMaxScaler scaler;
  scaler.fit(train.X);
  scaler.transform_in_place(train);
  leaps::ml::SvmParams params;
  params.lambda = lambda;
  params.kernel.sigma2 = sigma2;
  leaps::ml::TrainStats stats;
  leaps::ml::SvmModel model =
      leaps::ml::SvmTrainer(params).train(train, &stats);
  FitResult out;
  out.detector = std::make_shared<const leaps::core::Detector>(
      td.preprocessor, scaler, std::move(model));
  out.fit_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.support_vectors = stats.support_vectors;
  return out;
}

namespace {

// A dependent multiply-add chain: one "op" per iteration, no memory
// traffic, so its rate follows the core's speed and nothing else.
double spin(std::size_t ops, double seed) {
  double x = seed;
  for (std::size_t i = 0; i < ops; ++i) x = x * 0.9999999 + 1e-7;
  return x;
}

// A sequential sum over a buffer far larger than any cache: its rate
// follows the memory system, as the SMO sweeps over a Gram matrix do.
std::uint64_t stream(const std::vector<std::uint64_t>& buffer) {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : buffer) sum += v;
  return sum;
}

}  // namespace

Calibration calibrate(std::size_t threads) {
  Span span("calib.run");
  // Many short repetitions, so that the median ignores a preempted one.
  constexpr std::size_t kOps = 10'000'000;
  constexpr int kReps = 11;
  volatile double sink = 0.0;
  std::vector<double> single;
  std::vector<double> parallel;
  leaps::util::Parallel::set_threads(threads);
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t t0 = now_ns();
    sink = sink + spin(kOps, 1.0 + r);
    single.push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    std::vector<double> parts(threads, 0.0);
    leaps::util::parallel_for(0, threads, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) parts[i] = spin(kOps, 2.0 + i);
    });
    for (const double p : parts) sink = sink + p;
    parallel.push_back(static_cast<double>(now_ns() - t0));
  }
  constexpr std::size_t kWords = std::size_t{8} << 20;  // 64 MiB
  constexpr int kPasses = 5;
  std::vector<std::uint64_t> buffer(kWords, 1);
  std::vector<double> memory;
  for (int r = 0; r < kPasses; ++r) {
    const std::uint64_t t0 = now_ns();
    sink = sink + static_cast<double>(stream(buffer));
    memory.push_back(static_cast<double>(now_ns() - t0));
  }
  const double t1 = median(single);
  const double tn = median(parallel);
  Calibration c;
  c.threads = threads;
  c.ns_per_op = t1 / static_cast<double>(kOps);
  c.ns_per_byte = median(memory) / static_cast<double>(kWords * 8);
  c.parallelism = tn > 0.0 ? static_cast<double>(threads) * t1 / tn : 0.0;
  return c;
}

Calibration Calibration::mean(const Calibration& a, const Calibration& b) {
  Calibration c = a;
  c.ns_per_op = (a.ns_per_op + b.ns_per_op) / 2;
  c.ns_per_byte = (a.ns_per_byte + b.ns_per_byte) / 2;
  c.parallelism = (a.parallelism + b.parallelism) / 2;
  return c;
}

double Calibration::scale() const {
  return std::sqrt(kReferenceNsPerOp / ns_per_op *
                   (kReferenceNsPerByte / ns_per_byte));
}

void Calibration::report(Report& report) const {
  char line[192];
  std::snprintf(line, sizeof line,
                "calibration: %.4f ns/op and %.4f ns/byte single thread, "
                "parallelism %.3f at %zu threads; timings scaled by %.4f",
                ns_per_op, ns_per_byte, parallelism, threads, scale());
  report.note(line);
  report.layer("calib.ns_per_op", ns_per_op, "ns");
  report.layer("calib.ns_per_byte", ns_per_byte, "ns");
  report.layer("calib.parallelism", parallelism, "ratio");
}

void emit(const Args& args, const Report& report) {
  std::printf("== %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& n : report.notes) std::printf("   %s\n", n.c_str());
  for (const Metric& m : report.end_to_end) {
    std::printf("e2e    %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : report.per_layer) {
    std::printf("layer  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const std::vector<Metric>& out =
      args.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", out[i].value);
    json += (i == 0 ? "\"" : ", \"") + out[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace bench
