// Campaign-engine tests: catalog integrity, generation invariants (dwell
// windows, per-event stage truth), byte-exact determinism under a fixed
// seed, the living-off-the-land host-profile restriction, and the auditd
// dialect (syscall-table invertibility, round-trip through the
// read_raw_log_any sniffing boundary, corrupt-input rejection).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/campaign.h"
#include "sim/profiles.h"
#include "sim/scenario.h"
#include "trace/auditd_log.h"
#include "trace/binary_log.h"
#include "trace/intern.h"
#include "trace/partition.h"
#include "trace/raw_log.h"
#include "util/status.h"

namespace leaps::sim {
namespace {

SimConfig small_config(std::uint64_t seed = 7) {
  SimConfig cfg;
  cfg.benign_events = 1200;
  cfg.mixed_events = 900;
  cfg.malicious_events = 600;
  cfg.seed = seed;
  return cfg;
}

// ------------------------------------------------------------ catalog ----

TEST(CampaignCatalog, IsWellFormedAndLookupRoundTrips) {
  const auto& catalog = campaign_catalog();
  ASSERT_FALSE(catalog.empty());
  std::set<std::string> names;
  for (const CampaignSpec& spec : catalog) {
    EXPECT_EQ(spec.name.rfind("campaign_", 0), 0u) << spec.name;
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
    ASSERT_FALSE(spec.stages.empty()) << spec.name;
    for (const CampaignStageSpec& stage : spec.stages) {
      EXPECT_GT(stage.dwell_fraction, 0.0);
      EXPECT_GT(stage.intensity, 0.0);
      EXPECT_FALSE(stage.mix.empty());
    }
    EXPECT_EQ(find_campaign(spec.name).name, spec.name);
  }
  EXPECT_THROW(find_campaign("campaign_no_such"), std::invalid_argument);
}

TEST(CampaignCatalog, KillChainCoversEveryStageInOrder) {
  const std::vector<CampaignStageSpec> chain = default_kill_chain();
  ASSERT_EQ(chain.size(), kCampaignStageCount);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(chain[i].stage), i);
    EXPECT_FALSE(campaign_stage_name(chain[i].stage).empty());
  }
}

// --------------------------------------------------------- generation ----

TEST(GenerateCampaign, TruthStagesAndDwellWindowsAreConsistent) {
  const CampaignSpec& spec = find_campaign("campaign_putty_apt");
  const CampaignLogs logs = generate_campaign(spec, small_config());

  ASSERT_EQ(logs.mixed_truth.size(), logs.mixed.events.size());
  ASSERT_EQ(logs.mixed_stage.size(), logs.mixed.events.size());
  ASSERT_EQ(logs.dwell.size(), spec.stages.size());

  // Per-event stage index agrees with the boolean truth, and every
  // attack event falls inside its stage's dwell window.
  std::size_t attack_events = 0;
  for (std::size_t i = 0; i < logs.mixed_stage.size(); ++i) {
    const int stage = logs.mixed_stage[i];
    EXPECT_EQ(logs.mixed_truth[i], stage >= 0) << "event " << i;
    if (stage < 0) continue;
    ++attack_events;
    ASSERT_LT(static_cast<std::size_t>(stage), spec.stages.size());
    EXPECT_GE(i, logs.dwell[stage].first) << "event " << i;
    EXPECT_LT(i, logs.dwell[stage].second) << "event " << i;
  }
  EXPECT_GT(attack_events, 0u);

  // Dwell windows are ordered, disjoint, and in range: stage s+1 begins
  // at or after stage s ends (the adversary is silent in between).
  for (std::size_t s = 0; s < logs.dwell.size(); ++s) {
    EXPECT_LT(logs.dwell[s].first, logs.dwell[s].second);
    EXPECT_LE(logs.dwell[s].second, logs.mixed.events.size());
    if (s > 0) {
      EXPECT_LE(logs.dwell[s - 1].second, logs.dwell[s].first);
    }
  }

  // Every stage emits at least one event.
  std::set<int> stages_seen;
  for (const int s : logs.mixed_stage) {
    if (s >= 0) stages_seen.insert(s);
  }
  EXPECT_EQ(stages_seen.size(), spec.stages.size());
}

TEST(GenerateCampaign, SameSeedIsByteIdenticalAcrossDialects) {
  const CampaignSpec& spec = find_campaign("campaign_winscp_lotl");
  const CampaignLogs a = generate_campaign(spec, small_config(11));
  const CampaignLogs b = generate_campaign(spec, small_config(11));

  EXPECT_EQ(trace::raw_log_to_string(a.benign),
            trace::raw_log_to_string(b.benign));
  EXPECT_EQ(trace::raw_log_to_string(a.mixed),
            trace::raw_log_to_string(b.mixed));
  EXPECT_EQ(trace::raw_log_to_auditd_string(a.mixed),
            trace::raw_log_to_auditd_string(b.mixed));
  EXPECT_EQ(trace::raw_log_to_auditd_string(a.malicious),
            trace::raw_log_to_auditd_string(b.malicious));
  EXPECT_EQ(a.mixed_stage, b.mixed_stage);
  EXPECT_EQ(a.dwell, b.dwell);
}

TEST(GenerateCampaign, DifferentSeedsDiverge) {
  const CampaignSpec& spec = find_campaign("campaign_putty_apt");
  const CampaignLogs a = generate_campaign(spec, small_config(1));
  const CampaignLogs b = generate_campaign(spec, small_config(2));
  EXPECT_NE(trace::raw_log_to_string(a.mixed),
            trace::raw_log_to_string(b.mixed));
}

TEST(GenerateCampaign, LotlPayloadsDrawOnlyFromTheHostMix) {
  for (const CampaignSpec& spec : campaign_catalog()) {
    if (!spec.lotl) continue;
    const ProgramSpec host = app_spec(spec.app);
    for (const CampaignStageSpec& stage : spec.stages) {
      const ProgramSpec payload = campaign_stage_payload_spec(spec, stage);
      EXPECT_EQ(payload.chain_style, ChainStyle::kFramework) << spec.name;
      for (const auto& [kind, weight] : payload.mix) {
        EXPECT_TRUE(host.mix.count(kind) > 0)
            << spec.name << ": payload uses an ActionKind ("
            << static_cast<int>(kind) << ") the host never performs";
      }
    }
  }
}

TEST(GenerateCampaign, AptPayloadsUseDirectChains) {
  const CampaignSpec& spec = find_campaign("campaign_putty_apt");
  ASSERT_FALSE(spec.lotl);
  for (const CampaignStageSpec& stage : spec.stages) {
    EXPECT_EQ(campaign_stage_payload_spec(spec, stage).chain_style,
              ChainStyle::kDirect);
  }
}

}  // namespace
}  // namespace leaps::sim

namespace leaps::trace {
namespace {

// ------------------------------------------------------ auditd dialect ----

TEST(AuditdLog, SyscallTableIsInvertible) {
  std::set<int> numbers;
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const EventType t = static_cast<EventType>(i);
    const int sys = auditd_syscall_for(t);
    EXPECT_TRUE(numbers.insert(sys).second)
        << "syscall " << sys << " maps two event types";
    ASSERT_TRUE(auditd_event_type(sys).has_value());
    EXPECT_EQ(*auditd_event_type(sys), t);
  }
  EXPECT_FALSE(auditd_event_type(99999).has_value());
}

TEST(AuditdLog, CampaignMixedLogRoundTripsThroughAny) {
  const sim::CampaignLogs logs = sim::generate_campaign(
      sim::find_campaign("campaign_vim_apt"), [] {
        sim::SimConfig cfg;
        cfg.benign_events = 600;
        cfg.mixed_events = 450;
        cfg.malicious_events = 300;
        cfg.seed = 3;
        return cfg;
      }());
  std::stringstream ss;
  write_raw_log_auditd(logs.mixed, ss);
  ASSERT_EQ(ss.str().rfind("type=", 0), 0u) << "auditd logs start 'type='";
  const util::StatusOr<RawLog> back = read_raw_log_any(ss);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(*back, logs.mixed);
}

TEST(AuditdLog, CorruptInputIsRejectedWithLineContext) {
  const struct {
    const char* doc;
    const char* why;
  } cases[] = {
      {"type=SYSCALL msg=audit(1.000:1): seq=x tid=1 syscall=0\n",
       "non-numeric field"},
      {"type=BOGUS msg=audit(1.000:1): a=b\n", "unknown record kind"},
      {"type=SYSCALL msg=nonsense seq=0\n", "malformed msg token"},
      {"type=MMAP msg=audit(1.000:1): addr=0x1000 len=0x0 name=\"x\"\n",
       "zero-length module"},
      {"type=SYSCALL msg=audit(1.000:1): key=\"unterminated\n",
       "unterminated quote"},
  };
  for (const auto& c : cases) {
    std::istringstream is(c.doc);
    const util::StatusOr<RawLog> got = read_raw_log_auditd(is);
    ASSERT_FALSE(got.ok()) << c.why;
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput) << c.why;
    EXPECT_NE(got.status().message().find("line"), std::string::npos)
        << c.why << ": diagnostics must carry the line number";
  }
}

TEST(AuditdLog, TruncationsNeverParse) {
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("vim_reverse_tcp_online"), [] {
        sim::SimConfig cfg;
        cfg.benign_events = 300;
        cfg.mixed_events = 225;
        cfg.malicious_events = 150;
        return cfg;
      }());
  const std::string bytes = raw_log_to_auditd_string(logs.benign);
  // Auditd is a line format, so a cut can land at a record boundary and
  // leave a structurally complete shorter document; what a cut must
  // never do is crash, escape an exception, or keep every event while
  // claiming success — except for the degenerate cut that only strips
  // the final newline.
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{17}, bytes.size() / 4,
        bytes.size() / 2}) {
    std::istringstream is(bytes.substr(0, cut));
    const util::StatusOr<RawLog> got = read_raw_log_any(is);
    if (got.ok()) {
      // The first half of the document cannot carry the full event
      // stream (each event is at least one line).
      EXPECT_LT(got->events.size(), logs.benign.events.size())
          << "cut at " << cut;
    } else {
      EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput)
          << "cut at " << cut;
    }
  }
}

// ------------------------------------------- token-table gauges (obs) ----

TEST(TokenTableGauges, RegistryExportsInternAndRetentionGauges) {
  // Interning anything guarantees non-zero retention accounting.
  const sim::ScenarioLogs logs = sim::generate_scenario(
      sim::find_scenario("vim_reverse_tcp_online"), [] {
        sim::SimConfig cfg;
        cfg.benign_events = 200;
        cfg.mixed_events = 150;
        cfg.malicious_events = 100;
        return cfg;
      }());
  const PartitionedLog plog = partition_raw(logs.benign);
  for (const PartitionedEvent& e : plog.events) {
    TokenTable::global().compact(e);
  }

  const TokenTable::Stats stats = TokenTable::global().stats();
  EXPECT_GT(stats.interned, 0u);
  EXPECT_GT(stats.bytes_retained, 0u);

  std::map<std::string, obs::MetricSample> samples;
  for (obs::MetricSample& s : obs::MetricRegistry::global().collect()) {
    samples[s.name] = std::move(s);
  }
  for (const char* name : {"leaps_trace_token_table_system_stacks",
                           "leaps_trace_token_table_app_stacks",
                           "leaps_trace_token_table_lib_sets",
                           "leaps_trace_token_table_func_sets",
                           "leaps_trace_token_table_bytes_retained"}) {
    ASSERT_TRUE(samples.count(name) > 0) << name << " not exported";
    EXPECT_EQ(samples[name].type, obs::MetricType::kGauge) << name;
  }
  for (const char* name : {"leaps_trace_token_table_hits_total",
                           "leaps_trace_token_table_interned_total"}) {
    ASSERT_TRUE(samples.count(name) > 0) << name << " not exported";
    EXPECT_EQ(samples[name].type, obs::MetricType::kCounter) << name;
  }
  // The scrape reads the same atomics stats() reads; the table only grows,
  // so the collected values are at least the earlier snapshot's.
  EXPECT_GE(samples["leaps_trace_token_table_bytes_retained"].gauge_value,
            static_cast<std::int64_t>(stats.bytes_retained));
  EXPECT_GE(samples["leaps_trace_token_table_interned_total"].counter_value,
            stats.interned);
}

}  // namespace
}  // namespace leaps::trace
