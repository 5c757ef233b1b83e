// Unit tests for the trace summary statistics.
#include <gtest/gtest.h>

#include "sim/scenario.h"
#include "trace/log_stats.h"
#include "trace/partition.h"

namespace leaps::trace {
namespace {

PartitionedLog sample_partitioned() {
  sim::SimConfig cfg;
  cfg.benign_events = 600;
  cfg.mixed_events = 400;
  cfg.malicious_events = 100;
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("putty_reverse_tcp_online"), cfg);
  return partition_raw(logs.mixed);
}

TEST(LogStats, CountsAddUp) {
  const PartitionedLog log = sample_partitioned();
  const LogStats s = compute_stats(log);
  EXPECT_EQ(s.process_name, "putty.exe");
  EXPECT_EQ(s.events, 400u);
  std::size_t by_type = 0;
  for (const auto& [type, count] : s.events_by_type) by_type += count;
  EXPECT_EQ(by_type, s.events);
  std::size_t by_thread = 0;
  for (const auto& [tid, count] : s.events_by_thread) by_thread += count;
  EXPECT_EQ(by_thread, s.events);
  std::size_t by_module = 0;
  for (const auto& [name, count] : s.frames_by_module) by_module += count;
  EXPECT_EQ(by_module, s.system_frames);
}

TEST(LogStats, MixedLogShowsTwoThreads) {
  const LogStats s = compute_stats(sample_partitioned());
  EXPECT_EQ(s.events_by_thread.size(), 2u);  // app + injected backdoor
  EXPECT_TRUE(s.events_by_thread.count(1));
  EXPECT_TRUE(s.events_by_thread.count(2));
}

TEST(LogStats, DepthAndAddressRangesAreSane) {
  const LogStats s = compute_stats(sample_partitioned());
  EXPECT_GT(s.mean_stack_depth, 3.0);
  EXPECT_GE(static_cast<double>(s.max_stack_depth), s.mean_stack_depth);
  EXPECT_GT(s.distinct_app_addresses, 10u);
  EXPECT_LT(s.app_address_min, s.app_address_max);
  // The injected payload sits far above the app image.
  EXPECT_GT(s.app_address_max, 0x0000020000000000ULL);
}

TEST(LogStats, EmptyLogIsZeroes) {
  const LogStats s = compute_stats(PartitionedLog{});
  EXPECT_EQ(s.events, 0u);
  EXPECT_EQ(s.mean_stack_depth, 0.0);
  EXPECT_EQ(s.distinct_app_addresses, 0u);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(LogStats, ReportMentionsTheEssentials) {
  const std::string report = compute_stats(sample_partitioned()).to_string();
  EXPECT_NE(report.find("putty.exe"), std::string::npos);
  EXPECT_NE(report.find("tid 1"), std::string::npos);
  EXPECT_NE(report.find("ntdll.dll"), std::string::npos);
  EXPECT_NE(report.find("event types"), std::string::npos);
}

}  // namespace
}  // namespace leaps::trace
