// Shared pieces of the LEAPS benchmark program: run arguments, the report
// every workload fills, the in-memory span recorder, and the helpers the
// workloads share (log simulation and read-back, detector fitting,
// detection counts, calibration, per-layer probes). The open-loop replay
// is in replay.h.
//
// Everything here calls the repository's public headers only; the
// benchmark measures the program from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "trace/partition.h"

namespace bench {

/// Nanoseconds on the steady clock (CLOCK_MONOTONIC).
std::uint64_t now_ns();
/// Process CPU time of all threads, as user and system time.
struct CpuTimes {
  std::uint64_t user_ns = 0;
  std::uint64_t sys_ns = 0;
  std::uint64_t total() const { return user_ns + sys_ns; }
  CpuTimes operator-(const CpuTimes& o) const {
    return {user_ns - o.user_ns, sys_ns - o.sys_ns};
  }
};
CpuTimes process_cpu_times();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// q-quantile (0..1) of `v` by nearest rank; sorts `v`. 0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Print the tune result as a record line instead of checking it.
  bool record_tune = false;
};

/// Where runs write their files (spans, the saved detector), relative to
/// the repository root the benchmark runs from.
inline constexpr char kOutDir[] = ".bench_out";

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces. Every run prints all of it; the result
/// line carries `end_to_end`, or `per_layer` in a traced run. `notes` are
/// human-readable lines (lateness, counts, gate outcomes).
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed correctness gate: the run is incorrect and the
  /// `count` operations it covers are failed.
  void gate_failed(const std::string& what, std::uint64_t count);
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into the program.
// They stay in memory and are written out when the run ends.

struct SpanRecord {
  const char* name = nullptr;  // string literal: "<layer>.<what>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the recorder, -1 for a root
  std::uint64_t id = 0;      // session or window the span serves, or 0
  std::uint32_t thread = 0;  // program thread of an imported span, else 0
};

class SpanRecorder {
 public:
  /// Spans are recorded only while enabled (traced runs).
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span whose parent is the calling thread's innermost open
  /// span; returns its index (or -1 when disabled).
  std::int64_t open(const char* name, std::uint64_t id = 0);
  void close(std::int64_t index);
  /// Adds a completed span after the fact (e.g. a verdict's due → arrival
  /// interval reconstructed from the run's arrays).
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::int64_t parent, std::uint64_t id);
  /// Adds a completed span of program thread `thread` under the shortest
  /// recorded span that encloses it: a benchmark span or an earlier span of
  /// the same program thread.
  void adopt(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
             std::uint32_t thread);

  /// Per-name totals and self time (duration minus the union of its
  /// children's intervals), as printable lines.
  std::vector<std::string> self_time_table() const;
  /// Writes every span as JSON lines to `path`; false on I/O failure.
  bool write(const std::string& path) const;
  std::size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

SpanRecorder& spans();

/// Copies the program's own obs::Tracer spans (pipeline.*, svm.train, …)
/// into the recorder, on the recorder's clock, each under the benchmark
/// span that encloses it.
void import_program_spans();

/// RAII span on the global recorder.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0)
      : index_(spans().open(name, id)) {}
  ~Span() { spans().close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t index() const { return index_; }

 private:
  std::int64_t index_;
};

// ---------------------------------------------------------------------------
// Inputs.

/// Simulated logs of one scenario, written in the binary dialect (what
/// leaps-sim emits) so that reading them back exercises the decoder.
struct EncodedLogs {
  std::string benign;
  std::string mixed;
  std::string malicious;
};

EncodedLogs simulate(const std::string& scenario, std::size_t benign,
                     std::size_t mixed, std::size_t malicious,
                     std::uint64_t seed);

/// read_raw_log_any → RawLogParser → StackPartitioner, as leaps-train and
/// leaps-serve load a log. Throws on a decode error (the inputs are ours,
/// so that is a program fault).
leaps::trace::PartitionedLog read_log(const std::string& bytes);

/// Wall time and events of every read_log call so far.
struct ParseTotals {
  std::uint64_t ns = 0;
  std::uint64_t events = 0;
};
ParseTotals parse_totals();

/// Every workload trains on one fixed simulated instance, the dataset the
/// workload is named after; --seed varies the held-out and replayed logs.
/// (The amount of SMO work depends on the program layout a simulation
/// seed draws, so a seed-varied training set would make train_s swing far
/// beyond any bound; see README.md.)
inline constexpr std::uint64_t kTrainingSeed = 1;

/// Held-out logs: `instances` independently seeded runs of a scenario,
/// each a benign log and a pure-malicious log, all derived from `seed`.
struct HeldOut {
  std::vector<leaps::trace::PartitionedLog> benign;
  std::vector<leaps::trace::PartitionedLog> malicious;
};
HeldOut simulate_held_out(const std::string& scenario, std::uint64_t seed,
                          std::size_t instances, std::size_t benign_events,
                          std::size_t malicious_events);

/// Every event of every held-out log, benign logs first.
std::vector<const leaps::trace::PartitionedEvent*> events_of(
    const HeldOut& held);

/// Interns every held-out event and primes `detector`'s feature cache, as
/// the first minutes of a long-running server would.
void warm_serving(const leaps::core::Detector& detector, const HeldOut& held);

/// Window-level detection counts: every window of a benign log is truly
/// benign, every window of a malicious log truly malicious (the simulator's
/// per-event truth for those logs).
struct Detection {
  std::uint64_t tp = 0, fn = 0, tn = 0, fp = 0;
  /// Counts one window: its truth and its label (+1 benign, -1 malicious).
  void count(bool malicious, int label);
  /// Counts every window Detector::scan classifies in the held-out logs.
  void scan(const leaps::core::Detector& detector, const HeldOut& held);
  /// detect_tpr and detect_tnr, plus a note with the counts.
  void report(Report& report) const;
};

/// A detector fitted at fixed hyper-parameters, without the CV grid.
struct FitResult {
  std::shared_ptr<const leaps::core::Detector> detector;
  double fit_s = 0.0;  // prepare + scale + SMO wall time
  std::size_t support_vectors = 0;
};
FitResult fit_detector(const leaps::trace::PartitionedLog& benign,
                       const leaps::trace::PartitionedLog& mixed,
                       double lambda, double sigma2);

/// Thread counts are fixed and recorded, never hardware_concurrency.
inline constexpr std::size_t kTrainThreads = 4;  // train_putty20k's pool
inline constexpr std::size_t kServeWorkers = 2;  // serve workers, fit pool

/// The calibration row of every run, taken before and after the workload
/// and averaged: calib.ns_per_op, a fixed dependent multiply-add loop on
/// one thread; calib.ns_per_byte, a sequential sum over 64 MiB on one
/// thread; and calib.parallelism, the multiply-add loop once per thread
/// through util::parallel_for at the workload's thread count, as a
/// speed-up over one thread.
///
/// The host's speed drifts in phases of minutes, longer than a run, and
/// moves every timing with it: the core's speed and the memory system's,
/// not always together. The timing metrics are therefore reported on a
/// reference host where the loops take kReferenceNsPerOp and
/// kReferenceNsPerByte: raw reading × scale(), the geometric mean of the
/// two speed ratios. The raw readings are reported too (raw.*).
inline constexpr double kReferenceNsPerOp = 3.0;
inline constexpr double kReferenceNsPerByte = 0.2;
struct Calibration {
  std::size_t threads = 1;
  double ns_per_op = 0.0;
  double ns_per_byte = 0.0;
  double parallelism = 0.0;
  double scale() const;
  /// The calib.* per-layer metrics and a note.
  void report(Report& report) const;
  static Calibration mean(const Calibration& a, const Calibration& b);
};
Calibration calibrate(std::size_t threads);

// ---------------------------------------------------------------------------
// Per-layer probes of traced runs (probes.cc).

/// core.prepare_ms, core.preprocess_fit_ms, cfg.infer_ms, cfg.assess_ms,
/// ml.gram_ms (one fold-sized matrix) and the final fit's ml.final_fit_ms,
/// ml.smo_iterations and ml.support_vectors on one training pair.
void probe_training_layers(const leaps::trace::PartitionedLog& benign,
                           const leaps::trace::PartitionedLog& mixed,
                           double lambda, double sigma2, Report& report);
/// trace.intern_ns_per_event (over `measured`, after priming a private
/// table with `warm`), trace.token_bytes_retained,
/// core.stream_push_ns_per_event, core.decision_value_us_per_window and
/// core.scan_ns_per_event (over `log`).
void probe_serving_layers(
    const leaps::core::Detector& detector,
    const leaps::trace::PartitionedLog& log,
    const std::vector<const leaps::trace::PartitionedEvent*>& warm,
    const std::vector<const leaps::trace::PartitionedEvent*>& measured,
    Report& report);
/// trace.overhead_ns_per_event and trace.overhead_share.
void probe_trace_overhead(double cpu_ns_per_event, Report& report);

// ---------------------------------------------------------------------------
// Workloads (train.cc, serve.cc).

Report run_train(const Args& args);
Report run_fleet(const Args& args);
Report run_churn(const Args& args);

/// Runs `setup` `reps` times and returns the median duration in seconds.
template <typename F>
double timed_setups(int reps, F&& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    Span span("setup.rep", static_cast<std::uint64_t>(r));
    setup();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(seconds);
}

// ---------------------------------------------------------------------------
// Output.

/// Prints every metric and note, then the one-line JSON result (the
/// end-to-end metrics, or the per-layer ones for a traced run).
void emit(const Args& args, const Report& report);

}  // namespace bench
