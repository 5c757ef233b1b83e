// System-wide capture walkthrough: the workflow of a real deployment.
//
// A tracing engine records EVERY process on the machine into one log. This
// example simulates a machine running an infected WinSCP alongside clean
// Chrome and Vim, then:
//   1. performs application slicing on the capture (the Raw Log Parser's
//      front-end role in Section II-B),
//   2. trains a detector for the target application from a clean reference
//      trace plus its (noisy) slice,
//   3. scans every process slice on the machine — only the infected one
//      should light up.
#include <cstdio>

#include "core/pipeline.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "trace/system_log.h"

using namespace leaps;

int main() {
  const sim::ScenarioSpec& spec = sim::find_scenario("winscp_reverse_tcp");
  sim::SimConfig cfg;

  std::printf("Recording a machine-wide capture (infected %s + clean "
              "chrome, vim)...\n",
              spec.app.c_str());
  const sim::SystemCapture cap =
      sim::generate_system_capture(spec, cfg, {"chrome", "vim"});
  std::printf("capture: %zu events across %zu processes\n\n",
              cap.capture.entries.size(),
              cap.capture.process_names.size());

  // --- application slicing ------------------------------------------------
  for (const std::uint32_t pid : trace::capture_pids(cap.capture)) {
    const trace::RawLog sliced = trace::slice_process(cap.capture, pid);
    std::printf("  pid %-6u %-16s %6zu events\n", pid,
                sliced.process_name.c_str(), sliced.events.size());
  }

  // --- train on the target application ------------------------------------
  const sim::ScenarioLogs reference = sim::generate_scenario(spec, cfg);
  const trace::PartitionedLog benign = trace::partition_raw(reference.benign);
  const trace::PartitionedLog mixed =
      trace::partition_raw(trace::slice_process(cap.capture, cap.target_pid));
  core::FitOptions options;
  options.svm.kernel.sigma2 = 8.0;
  const core::Detector detector =
      core::fit_detector(benign, mixed, options).detector;
  std::printf("\ntrained WSVM detector for %s (%zu support vectors)\n\n",
              spec.app.c_str(), detector.model().support_vector_count());

  // --- scan every slice on the machine ------------------------------------
  std::printf("scanning all process slices:\n");
  for (const std::uint32_t pid : trace::capture_pids(cap.capture)) {
    const trace::RawLog sliced = trace::slice_process(cap.capture, pid);
    const auto result = detector.scan(trace::partition_raw(sliced));
    std::printf("  pid %-6u %-16s %5.1f%% windows flagged%s\n", pid,
                sliced.process_name.c_str(),
                100.0 * result.malicious_fraction(),
                pid == cap.target_pid ? "   <-- infected target" : "");
  }
  std::printf(
      "\nNote: the detector is application-wise (trained for %s); flags on\n"
      "other applications' slices only demonstrate cross-application "
      "noise.\n",
      spec.app.c_str());
  return 0;
}
