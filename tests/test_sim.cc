// Unit tests for the ETW-simulator substrate: library registry, behavior
// table, program builder, attack transforms, executor, and scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "sim/address_space.h"
#include "sim/attack.h"
#include "sim/behavior.h"
#include "sim/campaign.h"
#include "sim/executor.h"
#include "sim/library.h"
#include "sim/profiles.h"
#include "sim/program.h"
#include "sim/scenario.h"
#include "trace/binary_log.h"
#include "trace/partition.h"
#include "util/rng.h"

namespace leaps::sim {
namespace {

// ---------------------------------------------------- LibraryRegistry ----

TEST(LibraryRegistry, AddressesLiveInsideTheirModule) {
  const LibraryRegistry r = LibraryRegistry::standard();
  for (const SystemLibrary& lib : r.libraries()) {
    for (std::size_t i = 0; i < lib.functions.size(); ++i) {
      const std::uint64_t addr = lib.function_address(i);
      EXPECT_GE(addr, lib.base);
      EXPECT_LT(addr, lib.base + lib.size);
      EXPECT_EQ(r.address_of(lib.name, lib.functions[i]), addr);
    }
  }
}

TEST(LibraryRegistry, UserAndKernelSpacesAreDisjoint) {
  const LibraryRegistry r = LibraryRegistry::standard();
  for (const SystemLibrary& lib : r.libraries()) {
    if (lib.is_kernel) {
      EXPECT_GE(lib.base, kKernelBase);
    } else {
      EXPECT_GE(lib.base, kUserLibBase);
      EXPECT_LT(lib.base, kKernelBase);
    }
  }
}

TEST(LibraryRegistry, ModuleRangesNeverOverlap) {
  const LibraryRegistry r = LibraryRegistry::standard();
  const auto& libs = r.libraries();
  for (std::size_t i = 0; i < libs.size(); ++i) {
    for (std::size_t j = i + 1; j < libs.size(); ++j) {
      const bool disjoint = libs[i].base + libs[i].size <= libs[j].base ||
                            libs[j].base + libs[j].size <= libs[i].base;
      EXPECT_TRUE(disjoint) << libs[i].name << " vs " << libs[j].name;
    }
  }
}

TEST(LibraryRegistry, UnknownFunctionThrows) {
  const LibraryRegistry r = LibraryRegistry::standard();
  EXPECT_THROW(r.address_of("ntdll.dll", "NoSuchFn"), std::logic_error);
  EXPECT_THROW(r.address_of("nosuch.dll", "ReadFile"), std::logic_error);
}

TEST(LibraryRegistry, AppendRecordsCoversEverything) {
  const LibraryRegistry r = LibraryRegistry::standard();
  trace::RawLog log;
  r.append_records(log);
  EXPECT_EQ(log.modules.size(), r.libraries().size());
  std::size_t fn_total = 0;
  for (const SystemLibrary& lib : r.libraries()) {
    fn_total += lib.functions.size();
  }
  EXPECT_EQ(log.symbols.size(), fn_total);
}

// ------------------------------------------------------ BehaviorTable ----

TEST(BehaviorTable, EveryActionHasResolvedVariants) {
  const LibraryRegistry r = LibraryRegistry::standard();
  const BehaviorTable table(r);
  for (std::size_t k = 0; k < kActionKindCount; ++k) {
    const auto& variants = table.variants(static_cast<ActionKind>(k));
    ASSERT_FALSE(variants.empty())
        << action_kind_name(static_cast<ActionKind>(k));
    for (const ResolvedVariant& v : variants) {
      EXPECT_FALSE(v.frame_addresses.empty());
      // Innermost frame of every variant is a kernel-side frame.
      EXPECT_GE(v.frame_addresses.front(), kKernelBase);
      // Outermost is user-mode.
      EXPECT_LT(v.frame_addresses.back(), kKernelBase);
    }
  }
}

TEST(BehaviorTable, VariantSpecsResolveAgainstRegistry) {
  const LibraryRegistry r = LibraryRegistry::standard();
  for (std::size_t k = 0; k < kActionKindCount; ++k) {
    for (const ActionVariant& v :
         action_variants(static_cast<ActionKind>(k))) {
      for (const SystemFrameSpec& f : v.frames) {
        EXPECT_NO_THROW(r.address_of(f.lib, f.func));
      }
    }
  }
}

TEST(ActionKind, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (std::size_t k = 0; k < kActionKindCount; ++k) {
    const auto name = action_kind_name(static_cast<ActionKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

// ------------------------------------------------------------ Program ----

TEST(Program, BuilderMakesAllFunctionsReachable) {
  util::Rng rng(1);
  const Program p = build_program(app_spec("putty"), kAppImageBase, rng);
  // BFS from the entry over callees.
  std::set<std::size_t> seen = {p.entry};
  std::vector<std::size_t> frontier = {p.entry};
  while (!frontier.empty()) {
    const std::size_t f = frontier.back();
    frontier.pop_back();
    for (const std::size_t c : p.functions[f].callees) {
      if (seen.insert(c).second) frontier.push_back(c);
    }
  }
  EXPECT_EQ(seen.size(), p.functions.size());
}

TEST(Program, AddressesAreMonotoneAndInsideImage) {
  util::Rng rng(2);
  const Program p = build_program(app_spec("vim"), kAppImageBase, rng);
  for (std::size_t i = 1; i < p.functions.size(); ++i) {
    EXPECT_LT(p.functions[i - 1].address, p.functions[i].address);
  }
  EXPECT_GE(p.min_address(), p.image_base);
  EXPECT_LT(p.max_address(), p.image_base + p.image_size);
}

TEST(Program, LeavesAlwaysHaveActions) {
  util::Rng rng(3);
  const Program p = build_program(app_spec("chrome"), kAppImageBase, rng);
  for (const ProgramFunction& f : p.functions) {
    if (f.callees.empty()) {
      EXPECT_FALSE(f.actions.empty());
    }
  }
}

TEST(Program, BuildIsDeterministicInSeed) {
  util::Rng r1(9);
  util::Rng r2(9);
  const Program a = build_program(app_spec("winscp"), kAppImageBase, r1);
  const Program b = build_program(app_spec("winscp"), kAppImageBase, r2);
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].address, b.functions[i].address);
    EXPECT_EQ(a.functions[i].callees, b.functions[i].callees);
    EXPECT_EQ(a.functions[i].actions, b.functions[i].actions);
  }
}

TEST(Program, RelocatePreservesStructure) {
  util::Rng rng(4);
  const Program p =
      build_program(payload_spec("reverse_tcp"), kAppImageBase, rng);
  const Program q = relocate(p, kInjectionBase);
  EXPECT_EQ(q.image_base, kInjectionBase);
  ASSERT_EQ(q.functions.size(), p.functions.size());
  for (std::size_t i = 0; i < p.functions.size(); ++i) {
    EXPECT_EQ(q.functions[i].address - q.image_base,
              p.functions[i].address - p.image_base);
    EXPECT_EQ(q.functions[i].callees, p.functions[i].callees);
    EXPECT_EQ(q.functions[i].actions, p.functions[i].actions);
  }
}

TEST(Profiles, KnownNamesBuildUnknownThrow) {
  for (const auto app : known_apps()) EXPECT_NO_THROW(app_spec(app));
  for (const auto pl : known_payloads()) EXPECT_NO_THROW(payload_spec(pl));
  EXPECT_THROW(app_spec("emacs"), std::invalid_argument);
  EXPECT_THROW(payload_spec("ransomware"), std::invalid_argument);
}

// ------------------------------------------------------------- Attack ----

TEST(Attack, OfflinePayloadSitsJustPastTheBenignImage) {
  util::Rng rng(5);
  const Program app = build_program(app_spec("vim"), kAppImageBase, rng);
  const Program payload =
      build_program(payload_spec("pwddlg"), kAppImageBase, rng);
  const InfectedProcess ip = make_offline_infection(app, payload, rng);
  EXPECT_EQ(ip.method, AttackMethod::kOfflineInfection);
  EXPECT_GT(ip.payload.min_address(), ip.app.max_address());
  // The grown image record covers the appended payload section.
  EXPECT_LE(ip.payload.max_address(),
            ip.app.image_base + ip.image_record_size);
  // Detour site is a real, non-entry app function.
  EXPECT_GT(ip.detour_function, 0u);
  EXPECT_LT(ip.detour_function, ip.app.functions.size());
}

TEST(Attack, OnlinePayloadIsFarAndUnmapped) {
  util::Rng rng(6);
  const Program app = build_program(app_spec("putty"), kAppImageBase, rng);
  const Program payload =
      build_program(payload_spec("reverse_https"), kAppImageBase, rng);
  const InfectedProcess ip = make_online_injection(app, payload, rng);
  EXPECT_EQ(ip.payload.image_base, kInjectionBase);
  // Image record does not cover the injected pages.
  EXPECT_GT(ip.payload.min_address(),
            ip.app.image_base + ip.image_record_size);
  EXPECT_EQ(ip.image_record_size, ip.app.image_size);
}

TEST(Attack, SourceTrojanPreservesBenignStructure) {
  util::Rng rng(7);
  const Program app = build_program(app_spec("vim"), kAppImageBase, rng);
  const Program payload =
      build_program(payload_spec("pwddlg"), kAppImageBase, rng);
  const SourceTrojan t = make_source_trojan(app, payload, rng);

  ASSERT_EQ(t.merged.functions.size(),
            app.functions.size() + payload.functions.size());
  ASSERT_EQ(t.is_payload_fn.size(), t.merged.functions.size());
  const auto payload_count = static_cast<std::size_t>(std::count(
      t.is_payload_fn.begin(), t.is_payload_fn.end(), true));
  EXPECT_EQ(payload_count, payload.functions.size());
  // Payload functions form one contiguous block.
  const auto first = std::find(t.is_payload_fn.begin(),
                               t.is_payload_fn.end(), true) -
                     t.is_payload_fn.begin();
  for (std::size_t i = 0; i < payload.functions.size(); ++i) {
    EXPECT_TRUE(t.is_payload_fn[first + i]);
  }
  EXPECT_TRUE(t.is_payload_fn[t.payload_entry]);
  EXPECT_FALSE(t.is_payload_fn[t.detour_function]);
  EXPECT_FALSE(t.is_payload_fn[t.merged.entry]);
  // Compiled with the app toolchain.
  EXPECT_EQ(t.merged.chain_style, ChainStyle::kFramework);
  // Benign call edges survive (modulo index remapping): spot-check by
  // counting — merged benign functions have the same out-degrees.
  std::size_t app_edges = 0;
  for (const auto& f : app.functions) app_edges += f.callees.size();
  std::size_t merged_benign_edges = 0;
  for (std::size_t i = 0; i < t.merged.functions.size(); ++i) {
    if (!t.is_payload_fn[i]) {
      merged_benign_edges += t.merged.functions[i].callees.size();
    }
  }
  EXPECT_EQ(merged_benign_edges, app_edges);
  // Payload callees stay inside the payload block.
  for (std::size_t i = 0; i < t.merged.functions.size(); ++i) {
    if (!t.is_payload_fn[i]) continue;
    for (const std::size_t c : t.merged.functions[i].callees) {
      EXPECT_TRUE(t.is_payload_fn[c]);
    }
  }
}

TEST(Attack, SourceTrojanRunProducesGroundTruth) {
  util::Rng rng(8);
  const Program app = build_program(app_spec("putty"), kAppImageBase, rng);
  const Program payload =
      build_program(payload_spec("reverse_tcp"), kAppImageBase, rng);
  const SourceTrojan t = make_source_trojan(app, payload, rng);
  const LibraryRegistry registry = LibraryRegistry::standard();
  const Executor ex(registry, {});
  const auto run = ex.run_source_trojan(t, 3000, util::Rng(9));
  ASSERT_EQ(run.log.events.size(), 3000u);
  ASSERT_EQ(run.is_malicious.size(), 3000u);
  const auto malicious = static_cast<std::size_t>(std::count(
      run.is_malicious.begin(), run.is_malicious.end(), true));
  EXPECT_GT(malicious, 300u);
  EXPECT_LT(malicious, 2700u);
  // Malicious events carry payload-block frames, benign ones do not.
  const std::uint64_t lo =
      t.merged.functions[t.payload_entry].address;  // block start ≈ entry
  std::uint64_t block_lo = ~0ULL, block_hi = 0;
  for (std::size_t i = 0; i < t.merged.functions.size(); ++i) {
    if (t.is_payload_fn[i]) {
      block_lo = std::min(block_lo, t.merged.functions[i].address);
      block_hi = std::max(block_hi, t.merged.functions[i].address);
    }
  }
  (void)lo;
  for (std::size_t i = 0; i < run.log.events.size(); ++i) {
    bool touches_block = false;
    for (const std::uint64_t a : run.log.events[i].stack) {
      if (a >= block_lo && a <= block_hi) touches_block = true;
    }
    EXPECT_EQ(touches_block, static_cast<bool>(run.is_malicious[i]))
        << "event " << i;
  }
}

TEST(Scenario, SourceTrojanScenarioIsDeterministicAndComplete) {
  SimConfig cfg;
  cfg.benign_events = 500;
  cfg.mixed_events = 400;
  cfg.malicious_events = 200;
  const ScenarioLogs a =
      generate_source_trojan_scenario("vim", "pwddlg", cfg);
  const ScenarioLogs b =
      generate_source_trojan_scenario("vim", "pwddlg", cfg);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.mixed, b.mixed);
  EXPECT_EQ(a.malicious, b.malicious);
  EXPECT_EQ(a.spec.name, "vim_pwddlg_srctrojan");
  EXPECT_EQ(a.benign.events.size(), 500u);
  EXPECT_EQ(a.mixed.events.size(), 400u);
  // The trojaned image is at least as large as the clean one (the payload
  // block may hide inside section-alignment padding for tiny payloads).
  EXPECT_GE(a.mixed.modules.front().size, a.benign.modules.front().size);
}

TEST(Attack, MethodNames) {
  EXPECT_EQ(attack_method_name(AttackMethod::kOfflineInfection),
            "Offline Infection");
  EXPECT_EQ(attack_method_name(AttackMethod::kOnlineInjection),
            "Online Injection");
}

// ----------------------------------------------------------- Executor ----

class ExecutorTest : public ::testing::Test {
 protected:
  LibraryRegistry registry_ = LibraryRegistry::standard();
  ExecConfig config_;
};

TEST_F(ExecutorTest, BenignRunProducesRequestedEvents) {
  const Executor ex(registry_, config_);
  util::Rng rng(10);
  const Program app = build_program(app_spec("vim"), kAppImageBase, rng);
  const trace::RawLog log = ex.run_benign(app, 500, util::Rng(1));
  ASSERT_EQ(log.events.size(), 500u);
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_EQ(log.events[i].seq, i);
    EXPECT_FALSE(log.events[i].stack.empty());
  }
}

TEST_F(ExecutorTest, StackWalksAreWellFormed) {
  const Executor ex(registry_, config_);
  util::Rng rng(11);
  const Program app = build_program(app_spec("putty"), kAppImageBase, rng);
  const trace::RawLog log = ex.run_benign(app, 300, util::Rng(2));
  const std::uint64_t app_lo = app.image_base;
  const std::uint64_t app_hi = app.image_base + app.image_size;
  for (const trace::RawEvent& e : log.events) {
    // Innermost frame is kernel-side; walking outward we must pass through
    // at least one app frame; the outermost frame is the thread bootstrap.
    EXPECT_GE(e.stack.front(), kKernelBase);
    EXPECT_LT(e.stack.back(), kKernelBase);
    bool has_app_frame = false;
    for (const std::uint64_t a : e.stack) {
      if (a >= app_lo && a < app_hi) has_app_frame = true;
    }
    EXPECT_TRUE(has_app_frame);
  }
}

TEST_F(ExecutorTest, RunsAreDeterministic) {
  const Executor ex(registry_, config_);
  util::Rng rng(12);
  const Program app = build_program(app_spec("winscp"), kAppImageBase, rng);
  const trace::RawLog a = ex.run_benign(app, 200, util::Rng(3));
  const trace::RawLog b = ex.run_benign(app, 200, util::Rng(3));
  EXPECT_EQ(a, b);
}

TEST_F(ExecutorTest, MixedRunTruthTracksPayloadRatio) {
  const Executor ex(registry_, config_);
  util::Rng rng(13);
  const Program app = build_program(app_spec("putty"), kAppImageBase, rng);
  const Program payload =
      build_program(payload_spec("reverse_tcp"), kAppImageBase, rng);
  const InfectedProcess ip = make_online_injection(app, payload, rng);
  const auto mixed = ex.run_infected_with_truth(ip, 6000, util::Rng(4));
  ASSERT_EQ(mixed.is_malicious.size(), mixed.log.events.size());
  std::size_t malicious = 0;
  for (const bool b : mixed.is_malicious) malicious += b ? 1 : 0;
  const double frac =
      static_cast<double>(malicious) / static_cast<double>(6000);
  EXPECT_NEAR(frac, config_.payload_ratio, 0.12);
}

TEST_F(ExecutorTest, MixedPayloadEventsCarryPayloadFrames) {
  const Executor ex(registry_, config_);
  util::Rng rng(14);
  const Program app = build_program(app_spec("vim"), kAppImageBase, rng);
  const Program payload =
      build_program(payload_spec("reverse_https"), kAppImageBase, rng);
  const InfectedProcess ip = make_online_injection(app, payload, rng);
  const auto mixed = ex.run_infected_with_truth(ip, 2000, util::Rng(5));
  const std::uint64_t lo = ip.payload.min_address();
  const std::uint64_t hi = ip.payload.max_address();
  for (std::size_t i = 0; i < mixed.log.events.size(); ++i) {
    bool has_payload_frame = false;
    for (const std::uint64_t a : mixed.log.events[i].stack) {
      if (a >= lo && a <= hi) has_payload_frame = true;
    }
    EXPECT_EQ(has_payload_frame, static_cast<bool>(mixed.is_malicious[i]));
  }
}

TEST_F(ExecutorTest, StandalonePayloadRunsAlone) {
  const Executor ex(registry_, config_);
  util::Rng rng(15);
  const Program payload =
      build_program(payload_spec("pwddlg"), kAppImageBase, rng);
  const trace::RawLog log = ex.run_payload_standalone(payload, 300,
                                                      util::Rng(6));
  EXPECT_EQ(log.process_name, "pwddlg.exe");
  EXPECT_EQ(log.events.size(), 300u);
}

TEST_F(ExecutorTest, RejectsBadConfig) {
  ExecConfig bad = config_;
  bad.max_stack_depth = 1;
  EXPECT_THROW(Executor(registry_, bad), std::logic_error);
  bad = config_;
  bad.payload_ratio = 0.0;
  EXPECT_THROW(Executor(registry_, bad), std::logic_error);
}

// ----------------------------------------------------------- Scenario ----

TEST(Scenario, TableHasTwentyOneEntries) {
  const auto& specs = table1_scenarios();
  EXPECT_EQ(specs.size(), 21u);
  std::size_t offline = 0;
  std::size_t online = 0;
  std::set<std::string> names;
  for (const ScenarioSpec& s : specs) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    (s.method == AttackMethod::kOfflineInfection ? offline : online) += 1;
  }
  EXPECT_EQ(offline, 13u);  // Table I upper block
  EXPECT_EQ(online, 8u);    // Table I lower block
}

TEST(Scenario, FindByNameWorks) {
  EXPECT_EQ(find_scenario("vim_codeinject").payload, "pwddlg");
  EXPECT_EQ(find_scenario("putty_reverse_https_online").method,
            AttackMethod::kOnlineInjection);
  EXPECT_THROW(find_scenario("nope"), std::invalid_argument);
}

TEST(Scenario, GenerationIsDeterministic) {
  SimConfig cfg;
  cfg.benign_events = 300;
  cfg.mixed_events = 300;
  cfg.malicious_events = 150;
  const ScenarioSpec& spec = find_scenario("vim_reverse_tcp");
  const ScenarioLogs a = generate_scenario(spec, cfg);
  const ScenarioLogs b = generate_scenario(spec, cfg);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.mixed, b.mixed);
  EXPECT_EQ(a.malicious, b.malicious);
  EXPECT_EQ(a.mixed_truth, b.mixed_truth);
}

TEST(Scenario, LogsHaveConfiguredSizes) {
  SimConfig cfg;
  cfg.benign_events = 400;
  cfg.mixed_events = 200;
  cfg.malicious_events = 100;
  const ScenarioLogs logs =
      generate_scenario(find_scenario("putty_codeinject"), cfg);
  EXPECT_EQ(logs.benign.events.size(), 400u);
  EXPECT_EQ(logs.mixed.events.size(), 200u);
  EXPECT_EQ(logs.malicious.events.size(), 100u);
  EXPECT_EQ(logs.benign.process_name, "putty.exe");
  EXPECT_EQ(logs.malicious.process_name, "pwddlg.exe");
}

TEST(Scenario, DifferentSeedsGiveDifferentLogs) {
  SimConfig a;
  a.benign_events = a.mixed_events = 200;
  a.malicious_events = 100;
  SimConfig b = a;
  b.seed = a.seed + 1;
  const ScenarioSpec& spec = find_scenario("winscp_reverse_https");
  EXPECT_NE(generate_scenario(spec, a).benign,
            generate_scenario(spec, b).benign);
}

TEST(Scenario, OfflineMixedLogHasGrownImageRecord) {
  SimConfig cfg;
  cfg.benign_events = cfg.mixed_events = 200;
  cfg.malicious_events = 100;
  const ScenarioLogs logs =
      generate_scenario(find_scenario("vim_reverse_tcp"), cfg);
  const auto find_app = [](const trace::RawLog& log) {
    for (const trace::RawModule& m : log.modules) {
      if (m.name == "vim.exe") return m.size;
    }
    return std::uint64_t{0};
  };
  EXPECT_GT(find_app(logs.mixed), find_app(logs.benign));
}

/// "<benign> <mixed> <malicious> <truth>" as 64-bit hex hashes of each
/// log's binary encoding and of the mixed truth as a 0/1 string.
std::string log_digests(const trace::RawLog& benign,
                        const trace::RawLog& mixed,
                        const trace::RawLog& malicious,
                        const std::vector<bool>& truth) {
  std::string out;
  const auto add = [&out](std::string_view bytes) {
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(util::hash_string(bytes)));
    if (!out.empty()) out += ' ';
    out += hex;
  };
  for (const trace::RawLog* log : {&benign, &mixed, &malicious}) {
    std::ostringstream os;
    trace::write_raw_log_binary(*log, os);
    add(os.str());
  }
  std::string bits;
  for (const bool b : truth) bits += b ? '1' : '0';
  add(bits);
  return out;
}

// The simulator's logs are the input of every pinned table and every
// benchmark workload, so a refactor of the executor must not move a byte:
// one offline, one online, one source-trojan and one campaign scenario,
// pinned at a small config.
TEST(Scenario, GeneratedLogsMatchPinnedDigests) {
  SimConfig cfg;
  cfg.benign_events = 900;
  cfg.mixed_events = 700;
  cfg.malicious_events = 300;
  const auto scenario = [](const ScenarioLogs& l) {
    return log_digests(l.benign, l.mixed, l.malicious, l.mixed_truth);
  };
  const CampaignLogs campaign =
      generate_campaign(find_campaign("campaign_putty_apt"), cfg);
  EXPECT_EQ(scenario(generate_scenario(find_scenario("vim_reverse_tcp"), cfg)),
            "4ec57ade432d25c1 581f60b8f2c48328 "
            "aa07d275dbe303d6 f346e8e3ceeda27c");
  EXPECT_EQ(scenario(generate_scenario(
                find_scenario("putty_reverse_https_online"), cfg)),
            "022de60168bf1a69 034d6c46ccefc7f0 "
            "8568878ab1fbdf75 59536ceb37fb5b1e");
  EXPECT_EQ(scenario(generate_source_trojan_scenario("vim", "pwddlg", cfg)),
            "03f72782715f7ac8 44bad531395a09a7 "
            "e8de5b569fbfb250 f0fcc176cea9fc1c");
  EXPECT_EQ(log_digests(campaign.benign, campaign.mixed, campaign.malicious,
                        campaign.mixed_truth),
            "63c3e03c4c37ab82 9c1045bcd5afbe66 "
            "5611e2aa3de3a00e 077793ddfb45af42");
}

}  // namespace
}  // namespace leaps::sim
