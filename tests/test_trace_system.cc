// Unit tests for system-wide captures and application slicing.
#include <gtest/gtest.h>

#include <set>

#include "core/pipeline.h"
#include "sim/scenario.h"
#include "trace/partition.h"
#include "trace/system_log.h"

namespace leaps::trace {
namespace {

SystemRawLog tiny_capture() {
  SystemRawLog cap;
  cap.shared_modules.push_back({0x7FF800000000, 0x10000, "lib.dll"});
  cap.symbols.push_back({0x7FF800001000, "LibFunc"});
  cap.process_names[10] = "a.exe";
  cap.process_names[20] = "b.exe";
  cap.process_modules[10] = {{0x140000000, 0x8000, "a.exe"}};
  cap.process_modules[20] = {{0x140000000, 0x6000, "b.exe"}};
  for (std::uint64_t i = 0; i < 6; ++i) {
    SystemRawLog::Entry e;
    e.pid = i % 2 == 0 ? 10 : 20;
    e.event.seq = i;
    e.event.tid = 1;
    e.event.type = EventType::kFileRead;
    e.event.stack = {0x7FF800001010, 0x140000100 + i * 0x10};
    cap.entries.push_back(std::move(e));
  }
  return cap;
}

TEST(SystemLog, CapturePids) {
  EXPECT_EQ(capture_pids(tiny_capture()),
            (std::vector<std::uint32_t>{10, 20}));
}

TEST(SystemLog, SliceExtractsOneProcess) {
  const SystemRawLog cap = tiny_capture();
  const RawLog a = slice_process(cap, 10);
  EXPECT_EQ(a.process_name, "a.exe");
  ASSERT_EQ(a.events.size(), 3u);
  // Capture order preserved; global sequence numbers retained.
  EXPECT_EQ(a.events[0].seq, 0u);
  EXPECT_EQ(a.events[1].seq, 2u);
  EXPECT_EQ(a.events[2].seq, 4u);
  // Modules: the process's own image plus the shared libraries.
  ASSERT_EQ(a.modules.size(), 2u);
  EXPECT_EQ(a.modules[0].name, "a.exe");
  EXPECT_EQ(a.modules[1].name, "lib.dll");
  EXPECT_EQ(a.symbols.size(), 1u);
}

TEST(SystemLog, SliceUnknownPidThrows) {
  EXPECT_THROW(slice_process(tiny_capture(), 99), std::invalid_argument);
}

TEST(SystemLog, SlicedLogParsesAndPartitions) {
  const RawLog sliced = slice_process(tiny_capture(), 20);
  const PartitionedLog part = partition_raw(sliced);
  ASSERT_EQ(part.events.size(), 3u);
  for (const PartitionedEvent& e : part.events) {
    EXPECT_EQ(e.app_stack.size(), 1u);
    EXPECT_EQ(e.system_stack.size(), 1u);
  }
}

TEST(SystemLog, GeneratedCaptureSlicesCleanly) {
  sim::SimConfig cfg;
  cfg.benign_events = 1200;
  cfg.mixed_events = 1000;
  cfg.malicious_events = 100;
  const sim::SystemCapture cap = sim::generate_system_capture(
      sim::find_scenario("putty_reverse_tcp"), cfg, {"vim", "notepad++"});
  // One target + two background processes.
  EXPECT_EQ(capture_pids(cap.capture).size(), 3u);
  const RawLog target = slice_process(cap.capture, cap.target_pid);
  EXPECT_EQ(target.process_name, "putty.exe");
  EXPECT_EQ(target.events.size(), 1000u);
  ASSERT_EQ(cap.target_truth.size(), target.events.size());
  // Background slices carry the right names and sizes.
  std::set<std::string> names;
  for (const std::uint32_t pid : capture_pids(cap.capture)) {
    names.insert(slice_process(cap.capture, pid).process_name);
  }
  EXPECT_TRUE(names.count("vim.exe"));
  EXPECT_TRUE(names.count("notepad++.exe"));
  // Global sequence numbers are strictly increasing across the capture.
  for (std::size_t i = 1; i < cap.capture.entries.size(); ++i) {
    EXPECT_EQ(cap.capture.entries[i].event.seq, i);
  }
}

TEST(SystemLog, SlicedTargetStillSeparatesTruth) {
  sim::SimConfig cfg;
  cfg.benign_events = 3000;
  cfg.mixed_events = 2500;
  cfg.malicious_events = 100;
  const sim::ScenarioSpec& spec = sim::find_scenario("vim_reverse_tcp_online");
  const sim::SystemCapture cap =
      sim::generate_system_capture(spec, cfg, {"chrome"});
  // Benign reference log for the same target app (clean run).
  const sim::ScenarioLogs ref = sim::generate_scenario(spec, cfg);

  const PartitionedLog benign = partition_raw(ref.benign);
  const PartitionedLog mixed =
      partition_raw(slice_process(cap.capture, cap.target_pid));

  const core::TrainingData td = core::LeapsPipeline().prepare(benign, mixed);
  double sum_b = 0.0, sum_m = 0.0;
  std::size_t n_b = 0, n_m = 0;
  for (std::size_t i = 0; i < mixed.events.size(); ++i) {
    const auto it = td.event_benignity.find(mixed.events[i].seq);
    const double b = it == td.event_benignity.end() ? 1.0 : it->second;
    if (cap.target_truth[i]) {
      sum_m += b;
      ++n_m;
    } else {
      sum_b += b;
      ++n_b;
    }
  }
  ASSERT_GT(n_m, 0u);
  ASSERT_GT(n_b, 0u);
  EXPECT_GT(sum_b / n_b, 0.85);
  EXPECT_LT(sum_m / n_m, 0.15);
}

}  // namespace
}  // namespace leaps::trace
