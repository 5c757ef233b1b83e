// The ingest boundary shared by the three log dialects (text, binary,
// auditd): every dialect rejects bad module/symbol records and empty input
// the same way, round-trips simulator logs exactly, and counts each decode
// once.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "sim/campaign.h"
#include "sim/scenario.h"
#include "trace/auditd_log.h"
#include "trace/binary_log.h"
#include "trace/partition.h"
#include "trace/raw_log.h"
#include "util/status.h"

namespace leaps::trace {
namespace {

std::uint64_t counter(const char* name) {
  return obs::MetricRegistry::global().counter(name).value();
}

struct Dialect {
  using Read = std::function<util::StatusOr<RawLog>(std::istream&)>;
  const char* name;
  std::function<void(const RawLog&, std::ostream&)> write;
  Read read;
  const char* position;  // what every error message of this dialect carries
};

const std::vector<Dialect>& dialects() {
  static const std::vector<Dialect> all = {
      {"text", write_raw_log, read_raw_log_text, "line "},
      {"binary", write_raw_log_binary, read_raw_log_binary, "at byte "},
      {"auditd", write_raw_log_auditd, read_raw_log_auditd, "(byte "},
  };
  return all;
}

std::string encode(const Dialect& d, const RawLog& log) {
  std::ostringstream os(std::ios::binary);
  d.write(log, os);
  return os.str();
}

// ------------------------------------------------ module/symbol checks ----

struct BadRecords {
  const char* name;
  RawLog log;
};

std::vector<BadRecords> bad_record_cases() {
  RawLog base;
  base.process_name = "app.exe";
  base.modules.push_back({0x140000000, 0x10000, "app.exe"});
  RawEvent e;
  e.type = EventType::kFileRead;
  e.stack = {0x140000100};
  base.events.push_back(e);

  std::vector<BadRecords> out;
  RawLog zero = base;
  zero.modules.push_back({0x7FF800000000, 0, "zero.dll"});
  out.push_back({"zero_size", zero});
  RawLog overflow = base;
  overflow.modules.push_back({0xFFFFFFFFFFFFF000, 0x2000, "wrap.dll"});
  out.push_back({"overflow", overflow});
  RawLog overlap = base;
  overlap.modules.push_back({0x140008000, 0x10000, "overlap.dll"});
  out.push_back({"overlap", overlap});
  RawLog stray = base;
  stray.symbols.push_back({0x99999999, "Ghost"});
  out.push_back({"stray_symbol", stray});
  return out;
}

struct BadRow {
  BadRecords bad;
  Dialect dialect;
};

void PrintTo(const BadRow& row, std::ostream* os) {
  *os << row.dialect.name << ' ' << row.bad.name;
}

class IngestModuleRecords : public ::testing::TestWithParam<BadRow> {};

TEST_P(IngestModuleRecords, RejectedAsCorruptAndCountedOnce) {
  const BadRow& row = GetParam();
  std::istringstream is(encode(row.dialect, row.bad.log));
  const std::uint64_t corrupt = counter("leaps_ingest_corrupt_total");
  const std::uint64_t events = counter("leaps_ingest_events_total");
  const util::StatusOr<RawLog> got = read_raw_log_any(is);
  ASSERT_FALSE(got.ok()) << "decoded a log that parse_raw would reject";
  EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput);
  EXPECT_NE(got.status().message().find(row.dialect.position),
            std::string::npos)
      << got.status().message();
  EXPECT_EQ(counter("leaps_ingest_corrupt_total") - corrupt, 1u);
  EXPECT_EQ(counter("leaps_ingest_events_total"), events);
}

std::vector<BadRow> bad_rows() {
  std::vector<BadRow> out;
  for (const BadRecords& bad : bad_record_cases()) {
    for (const Dialect& d : dialects()) out.push_back({bad, d});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IngestModuleRecords, ::testing::ValuesIn(bad_rows()),
    [](const ::testing::TestParamInfo<BadRow>& info) {
      return std::string(info.param.dialect.name) + "_" + info.param.bad.name;
    });

// ------------------------------------------------------- empty input ----

// Zero bytes is a capture truncated to nothing: every reader, and the
// sniffing one, refuses it as corrupt and counts it once.
TEST(IngestEmptyInput, RejectedAsCorruptByEveryReader) {
  std::vector<std::pair<const char*, Dialect::Read>> readers;
  for (const Dialect& d : dialects()) readers.emplace_back(d.name, d.read);
  readers.emplace_back("any", read_raw_log_any);
  for (const auto& [name, read] : readers) {
    SCOPED_TRACE(name);
    std::istringstream is("");
    const std::uint64_t corrupt = counter("leaps_ingest_corrupt_total");
    const std::uint64_t events = counter("leaps_ingest_events_total");
    const util::StatusOr<RawLog> got = read(is);
    ASSERT_FALSE(got.ok()) << "decoded zero bytes as a log";
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput);
    EXPECT_NE(got.status().message().find("empty input"), std::string::npos)
        << got.status().message();
    EXPECT_EQ(counter("leaps_ingest_corrupt_total") - corrupt, 1u);
    EXPECT_EQ(counter("leaps_ingest_events_total"), events);
  }
  // One byte is input: a blank line is an empty text log.
  std::istringstream blank("\n");
  const util::StatusOr<RawLog> got = read_raw_log_any(blank);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_TRUE(got->events.empty());
}

// ------------------------------------------- round trip + single count ----

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.benign_events = 300;
  cfg.mixed_events = 240;
  cfg.malicious_events = 120;
  cfg.seed = 5;
  return cfg;
}

// One Table-I app, one source-level trojan, one multi-stage campaign.
constexpr const char* kScenarios[] = {
    "putty_reverse_tcp", "winscp_reverse_tcp_srctrojan", "campaign_vim_apt"};

RawLog mixed_log(std::string_view scenario) {
  const sim::SimConfig cfg = small_config();
  if (scenario == "winscp_reverse_tcp_srctrojan") {
    return sim::generate_source_trojan_scenario("winscp", "reverse_tcp", cfg)
        .mixed;
  }
  if (scenario == "campaign_vim_apt") {
    return sim::generate_campaign(sim::find_campaign(scenario), cfg).mixed;
  }
  return sim::generate_scenario(sim::find_scenario(scenario), cfg).mixed;
}

struct RoundTripRow {
  const char* scenario;
  Dialect dialect;
};

void PrintTo(const RoundTripRow& row, std::ostream* os) {
  *os << row.dialect.name << ' ' << row.scenario;
}

class IngestRoundTrip : public ::testing::TestWithParam<RoundTripRow> {};

TEST_P(IngestRoundTrip, ExactAndCountedOnce) {
  const RawLog raw = mixed_log(GetParam().scenario);
  const Dialect& d = GetParam().dialect;
  const std::string bytes = encode(d, raw);

  const std::uint64_t before_any = counter("leaps_ingest_events_total");
  std::istringstream any_is(bytes);
  const util::StatusOr<RawLog> back = read_raw_log_any(any_is);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(counter("leaps_ingest_events_total") - before_any,
            raw.events.size());
  EXPECT_EQ(*back, raw);

  const std::uint64_t before_own = counter("leaps_ingest_events_total");
  std::istringstream own_is(bytes);
  ASSERT_TRUE(d.read(own_is).ok());
  EXPECT_EQ(counter("leaps_ingest_events_total") - before_own,
            raw.events.size());

  const PartitionedLog expected = partition_raw(raw);
  const PartitionedLog decoded = partition_raw(*back);
  EXPECT_EQ(decoded.process_name, expected.process_name);
  ASSERT_EQ(decoded.events.size(), expected.events.size());
  for (std::size_t i = 0; i < expected.events.size(); ++i) {
    EXPECT_EQ(decoded.events[i], expected.events[i]) << "event " << i;
  }
}

std::vector<RoundTripRow> round_trip_rows() {
  std::vector<RoundTripRow> out;
  for (const char* scenario : kScenarios) {
    for (const Dialect& d : dialects()) out.push_back({scenario, d});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Dialects, IngestRoundTrip, ::testing::ValuesIn(round_trip_rows()),
    [](const ::testing::TestParamInfo<RoundTripRow>& info) {
      return std::string(info.param.dialect.name) + "_" +
             info.param.scenario;
    });

}  // namespace
}  // namespace leaps::trace
