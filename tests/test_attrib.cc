// Attribution-subsystem tests: the .sig format (round-trip + corrupt-input
// rejection), matcher/edge semantics, the acceptance property (the true
// campaign signature ranks strictly above its permuted decoys), the audit
// JSONL evidence reader, window evidence against its per-event recipe, and
// FleetAttributor's worker-count invariance on a live DetectionServer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "attrib/matcher.h"
#include "attrib/signature.h"
#include "detector_fixture.h"
#include "obs/registry.h"
#include "online/status.h"
#include "serve/audit.h"
#include "serve/server.h"
#include "sim/campaign.h"
#include "trace/intern.h"
#include "trace/partition.h"
#include "util/status.h"

namespace leaps::attrib {
namespace {

using trace::partition_raw;
using leaps::testing::TrainedDetector;
using leaps::testing::train_small_detector;

CampaignSignature two_stage_sig() {
  CampaignSignature sig;
  sig.name = "toy";
  sig.nodes.push_back({0,
                       "recon",
                       {trace::EventType::kRegistryRead},
                       {"advapi32.dll"},
                       {"advapi32.dll!RegQueryValueExW"}});
  sig.nodes.push_back({1,
                       "exfil",
                       {trace::EventType::kNetworkSend},
                       {"ws2_32.dll"},
                       {"ws2_32.dll!send"}});
  sig.edges.push_back({0, 1, 0});
  return sig;
}

WindowEvidence evidence(std::size_t index, trace::EventType type,
                        const std::string& lib, const std::string& func) {
  WindowEvidence w;
  w.window_index = index;
  w.decision_value = -1.0;
  w.event_types = {type};
  w.libs = {lib};
  w.funcs = {func};
  return w;
}

// ------------------------------------------------------------ .sig IO ----

TEST(SignatureFormat, RoundTripsEveryCatalogSignature) {
  for (const sim::CampaignSpec& spec : sim::campaign_catalog()) {
    const CampaignSignature sig = signature_from_campaign(spec);
    EXPECT_EQ(sig.name, spec.name);
    ASSERT_EQ(sig.nodes.size(), spec.stages.size());
    ASSERT_EQ(sig.edges.size(), spec.stages.size() - 1);

    std::istringstream is(signature_to_string(sig));
    const util::StatusOr<CampaignSignature> back = read_signature(is);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(back->name, sig.name);
    ASSERT_EQ(back->nodes.size(), sig.nodes.size());
    for (std::size_t i = 0; i < sig.nodes.size(); ++i) {
      EXPECT_EQ(back->nodes[i].id, sig.nodes[i].id);
      EXPECT_EQ(back->nodes[i].name, sig.nodes[i].name);
      EXPECT_EQ(back->nodes[i].event_types, sig.nodes[i].event_types);
      EXPECT_EQ(back->nodes[i].libs, sig.nodes[i].libs);
      EXPECT_EQ(back->nodes[i].funcs, sig.nodes[i].funcs);
    }
    ASSERT_EQ(back->edges.size(), sig.edges.size());
    for (std::size_t i = 0; i < sig.edges.size(); ++i) {
      EXPECT_EQ(back->edges[i].from, sig.edges[i].from);
      EXPECT_EQ(back->edges[i].to, sig.edges[i].to);
      EXPECT_EQ(back->edges[i].max_gap_windows, sig.edges[i].max_gap_windows);
    }
  }
}

TEST(SignatureFormat, CorruptDocumentsRejectWithLineNumbers) {
  const struct {
    const char* doc;
    const char* why;
  } cases[] = {
      {"", "empty document"},
      {"NODE 0 n TYPES FileRead LIBS - FUNCS -\n", "node before SIGNATURE"},
      {"SIGNATURE s\n", "no nodes"},
      {"SIGNATURE s\nNODE 0 n TYPES NotAType LIBS - FUNCS -\n",
       "unknown event type"},
      {"SIGNATURE s\nNODE 0 n TYPES FileRead LIBS - FUNCS bare\n",
       "func without lib!func shape"},
      {"SIGNATURE s\nNODE 0 n TYPES FileRead LIBS - FUNCS -\n"
       "NODE 0 m TYPES FileRead LIBS - FUNCS -\n",
       "duplicate node id"},
      {"SIGNATURE s\nNODE 0 n TYPES FileRead LIBS - FUNCS -\nEDGE 0 7 GAP 0\n",
       "edge to a missing node"},
      {"SIGNATURE s\nNODE 0 n TYPES FileRead LIBS - FUNCS -\nEDGE 0 0 GAP 0\n",
       "self edge"},
      {"SIGNATURE s\nNODE 0 n TYPES FileRead LIBS - FUNCS - extra\n",
       "trailing tokens"},
      {"SIGNATURE s\nNODE 0 n TYPES FileRead LIBS a,,b FUNCS -\n",
       "empty LIBS entry"},
      {"SIGNATURE s\nNODE 0 n TYPES FileRead, LIBS - FUNCS -\n",
       "empty TYPES entry"},
      {"SIGNATURE s\nNODE 0 n TYPES FileRead LIBS - FUNCS ,a!f\n",
       "empty FUNCS entry"},
  };
  for (const auto& c : cases) {
    std::istringstream is(c.doc);
    const util::StatusOr<CampaignSignature> got = read_signature(is);
    ASSERT_FALSE(got.ok()) << c.why;
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput) << c.why;
  }
}

TEST(SignatureLibrary, LoadDirSortsAndRejectsMissing) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "leaps_attrib_sig_test";
  fs::remove_all(dir);

  SignatureLibrary missing;
  EXPECT_EQ(missing.load_dir(dir.string()).code(),
            util::StatusCode::kNotFound);

  fs::create_directories(dir);
  const CampaignSignature sig =
      signature_from_campaign(sim::find_campaign("campaign_putty_apt"));
  for (const CampaignSignature& s : decoy_signatures(sig)) {
    std::ofstream os(dir / (s.name + ".sig"));
    write_signature(s, os);
  }
  {
    std::ofstream os(dir / (sig.name + ".sig"));
    write_signature(sig, os);
  }
  SignatureLibrary lib;
  ASSERT_TRUE(lib.load_dir(dir.string()).ok());
  ASSERT_EQ(lib.size(), 3u);
  EXPECT_EQ(lib.signatures()[0].name, "campaign_putty_apt");
  EXPECT_EQ(lib.signatures()[1].name, "campaign_putty_apt__reversed");
  EXPECT_EQ(lib.signatures()[2].name, "campaign_putty_apt__rotated");
  fs::remove_all(dir);
}

// ---------------------------------------------------- matcher semantics ----

TEST(Matcher, OrderedEvidenceSatisfiesEdgesReversedDoesNot) {
  const CampaignSignature sig = two_stage_sig();
  const std::vector<WindowEvidence> ordered = {
      evidence(3, trace::EventType::kRegistryRead, "advapi32.dll",
               "advapi32.dll!RegQueryValueExW"),
      evidence(9, trace::EventType::kNetworkSend, "ws2_32.dll",
               "ws2_32.dll!send"),
  };
  const AttributionVerdict hit = match_signature(sig, ordered);
  EXPECT_EQ(hit.nodes_matched, 2u);
  EXPECT_EQ(hit.edges_satisfied, 1u);
  EXPECT_DOUBLE_EQ(hit.score, 1.0);
  EXPECT_EQ(hit.first_window, 3u);
  EXPECT_EQ(hit.last_window, 9u);

  const std::vector<WindowEvidence> reversed = {ordered[1], ordered[0]};
  const AttributionVerdict miss = match_signature(sig, reversed);
  EXPECT_EQ(miss.edges_satisfied, 0u);
  EXPECT_LT(miss.score, hit.score);
}

TEST(Matcher, GapBoundRejectsDistantStages) {
  CampaignSignature sig = two_stage_sig();
  sig.edges[0].max_gap_windows = 2;
  // Positions are counted in flagged windows, not raw window indices: the
  // exfil window is the 4th flagged window after recon — past the bound.
  std::vector<WindowEvidence> far = {
      evidence(0, trace::EventType::kRegistryRead, "advapi32.dll",
               "advapi32.dll!RegQueryValueExW")};
  for (std::size_t i = 1; i <= 3; ++i) {
    far.push_back(evidence(i, trace::EventType::kFileRead, "kernel32.dll",
                           "kernel32.dll!ReadFile"));
  }
  far.push_back(evidence(4, trace::EventType::kNetworkSend, "ws2_32.dll",
                         "ws2_32.dll!send"));
  EXPECT_EQ(match_signature(sig, far).edges_satisfied, 0u);

  sig.edges[0].max_gap_windows = 4;
  EXPECT_EQ(match_signature(sig, far).edges_satisfied, 1u);
}

TEST(Matcher, EmptyEvidenceMatchesNothing) {
  const AttributionVerdict v = match_signature(two_stage_sig(), {});
  EXPECT_EQ(v.nodes_matched, 0u);
  EXPECT_EQ(v.edges_satisfied, 0u);
  EXPECT_DOUBLE_EQ(v.score, 0.0);
}

// ----------------------------------------------- acceptance: rank order ----

// The acceptance property, detector-free: treat every window of the
// campaign's pure-attack log as flagged and rank the true signature
// against its permuted decoys. Stage order in the trace follows the kill
// chain, so the reversed decoy loses the ordering term and the rotated
// decoy mis-covers every stage's predicates.
TEST(Attribution, TrueSignatureOutranksDecoysOnEveryAptCampaign) {
  for (const sim::CampaignSpec& spec : sim::campaign_catalog()) {
    if (spec.lotl) continue;  // LotL shares host predicates by design
    sim::SimConfig cfg;
    cfg.benign_events = 1200;
    cfg.mixed_events = 900;
    cfg.malicious_events = 600;
    cfg.seed = 7;
    const sim::CampaignLogs logs = sim::generate_campaign(spec, cfg);
    const trace::PartitionedLog mal = partition_raw(logs.malicious);

    std::vector<WindowEvidence> flagged;
    constexpr std::size_t kWindow = 10;
    for (std::size_t i = 0; i + kWindow <= mal.events.size(); i += kWindow) {
      flagged.push_back(evidence_from_events(flagged.size(), -1.0,
                                             mal.events.data() + i, kWindow));
    }
    ASSERT_GT(flagged.size(), 4u) << spec.name;

    SignatureLibrary lib;
    const CampaignSignature sig = signature_from_campaign(spec);
    lib.add(sig);
    for (CampaignSignature& d : decoy_signatures(sig)) lib.add(std::move(d));

    const std::vector<AttributionVerdict> ranked = attribute(lib, flagged);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].signature, spec.name) << "true signature not rank 1";
    EXPECT_GT(ranked[0].score, ranked[1].score)
        << spec.name << ": decoy " << ranked[1].signature << " tied";
    EXPECT_GT(ranked[0].score, ranked[2].score);
  }
}

// ------------------------------------------------- window evidence ----

/// The per-event recipe evidence_from_events replaces: each event's
/// derive_lib_set/derive_func_set, concatenated, sorted and made unique.
WindowEvidence reference_evidence(const trace::PartitionedEvent* events,
                                  std::size_t count) {
  WindowEvidence out;
  out.window_index = 5;
  out.decision_value = -0.5;
  for (std::size_t i = 0; i < count; ++i) {
    out.event_types.push_back(events[i].type);
    for (std::string& lib : trace::derive_lib_set(events[i].system_stack)) {
      out.libs.push_back(std::move(lib));
    }
    for (std::string& f : trace::derive_func_set(events[i].system_stack)) {
      out.funcs.push_back(std::move(f));
    }
  }
  std::sort(out.event_types.begin(), out.event_types.end());
  out.event_types.erase(
      std::unique(out.event_types.begin(), out.event_types.end()),
      out.event_types.end());
  std::sort(out.libs.begin(), out.libs.end());
  out.libs.erase(std::unique(out.libs.begin(), out.libs.end()),
                 out.libs.end());
  std::sort(out.funcs.begin(), out.funcs.end());
  out.funcs.erase(std::unique(out.funcs.begin(), out.funcs.end()),
                  out.funcs.end());
  return out;
}

void expect_reference_evidence(const std::vector<trace::PartitionedEvent>& w,
                               const std::string& what) {
  const WindowEvidence got = evidence_from_events(5, -0.5, w.data(), w.size());
  const WindowEvidence want = reference_evidence(w.data(), w.size());
  EXPECT_EQ(got.window_index, 5u) << what;
  EXPECT_EQ(got.decision_value, -0.5) << what;
  EXPECT_EQ(got.event_types, want.event_types) << what;
  EXPECT_EQ(got.libs, want.libs) << what;
  EXPECT_EQ(got.funcs, want.funcs) << what;
}

trace::PartitionedEvent event_with(
    trace::EventType type, std::vector<trace::StackFrame> frames) {
  trace::PartitionedEvent e;
  e.type = type;
  e.system_stack = std::move(frames);
  return e;
}

TEST(Evidence, FromEventsEqualsThePerEventRecipe) {
  // Every campaign's windows, as the tap would hand them over.
  for (const sim::CampaignSpec& spec : sim::campaign_catalog()) {
    sim::SimConfig cfg;
    cfg.benign_events = 300;
    cfg.mixed_events = 300;
    cfg.malicious_events = 300;
    cfg.seed = 3;
    const trace::PartitionedLog mal =
        partition_raw(sim::generate_campaign(spec, cfg).malicious);
    constexpr std::size_t kWindow = 10;
    for (std::size_t i = 0; i + kWindow <= mal.events.size(); i += kWindow) {
      expect_reference_evidence(
          {mal.events.begin() + static_cast<std::ptrdiff_t>(i),
           mal.events.begin() + static_cast<std::ptrdiff_t>(i + kWindow)},
          spec.name + " window at " + std::to_string(i));
    }
  }

  using trace::EventType;
  // Module names that prefix each other, around the '!' and ' ' bytes
  // that order before and after the separator.
  expect_reference_evidence(
      {event_with(EventType::kFileRead, {{1, "kernel32.dll", "ReadFile"},
                                         {2, "kernel32", "ReadFile"},
                                         {3, "kernel3", "ReadFile"},
                                         {4, "kernel32 x", "ReadFile"},
                                         {5, "kernel32#", "ReadFile"}}),
       event_with(EventType::kFileWrite, {{6, "kernel32", "Read"},
                                          {7, "kernel32", "ReadFileEx"}})},
      "prefix modules");
  // '!' inside a name: two frames that spell one Func name, and one that
  // sorts differently as a pair than as a name.
  expect_reference_evidence(
      {event_with(EventType::kNetworkSend, {{1, "a!b", "c"},
                                            {2, "a", "b!c"},
                                            {3, "a", "b c"},
                                            {4, "a!", "!"}}),
       event_with(EventType::kNetworkSend, {{5, "a!b!c", ""}})},
      "bang in names");
  // Empty module or function (unmapped region, no symbol).
  expect_reference_evidence(
      {event_with(EventType::kMemProtect, {{1, "", ""},
                                           {2, "", "f"},
                                           {3, "m", ""},
                                           {4, "m", "f"}}),
       event_with(EventType::kMemProtect, {})},
      "empty names");
  // Frames repeated within and across events.
  const std::vector<trace::StackFrame> stack = {
      {1, "ntdll.dll", "NtReadFile"},
      {2, "kernelbase.dll", "ReadFile"},
      {3, "kernelbase.dll", "ReadFile"},
      {4, "ntdll.dll", "NtReadFile"}};
  expect_reference_evidence({event_with(EventType::kFileRead, stack),
                             event_with(EventType::kFileRead, stack),
                             event_with(EventType::kRegistryRead, stack)},
                            "repeated frames");
  expect_reference_evidence({}, "empty window");
}

// ------------------------------------------------------- audit JSONL ----

TEST(Evidence, AuditJsonlReaderSkipsBenignAndRejectsCorruption) {
  const std::string good =
      R"({"type":"window_audit","host":"h","window":4,"label":-1,)"
      R"("decision_value":-1.25,"cfg_terms":[],)"
      R"("evidence":{"event_types":["FileRead"],"libs":["kernel32.dll"],)"
      R"("funcs":["kernel32.dll!ReadFile"]}})"
      "\n"
      R"({"type":"window_audit","host":"h","window":9,"label":1,)"
      R"("decision_value":0.5,"cfg_terms":[],)"
      R"("evidence":{"event_types":["UiMessage"],"libs":[],"funcs":[]}})"
      "\n";
  std::istringstream is(good);
  const util::StatusOr<std::vector<WindowEvidence>> got =
      evidence_from_audit_jsonl(is);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_EQ(got->size(), 1u);  // the benign record is skipped
  EXPECT_EQ((*got)[0].window_index, 4u);
  EXPECT_DOUBLE_EQ((*got)[0].decision_value, -1.25);
  EXPECT_EQ((*got)[0].event_types,
            std::vector<trace::EventType>{trace::EventType::kFileRead});
  EXPECT_EQ((*got)[0].funcs,
            std::vector<std::string>{"kernel32.dll!ReadFile"});

  for (const char* bad : {
           "{\"label\":-1}\n",                 // no window index
           "{\"window\":1,\"label\":-1}\n",    // no decision value/evidence
           "{\"window\":1,\"label\":-1,\"decision_value\":0,"
           "\"evidence\":{\"event_types\":[\"NoSuchType\"],\"libs\":[],"
           "\"funcs\":[]}}\n",                 // unknown event type
           "not json at all\n",
           // Numbers the record's integers cannot hold.
           "{\"window\":-1,\"label\":-1,\"decision_value\":0,"
           "\"evidence\":{\"event_types\":[\"FileRead\"],\"libs\":[],"
           "\"funcs\":[]}}\n",
           "{\"window\":1e30,\"label\":-1,\"decision_value\":0,"
           "\"evidence\":{\"event_types\":[\"FileRead\"],\"libs\":[],"
           "\"funcs\":[]}}\n",
           "{\"window\":1,\"label\":1e300,\"decision_value\":0,"
           "\"evidence\":{\"event_types\":[\"FileRead\"],\"libs\":[],"
           "\"funcs\":[]}}\n",
       }) {
    std::istringstream bin(bad);
    const auto r = evidence_from_audit_jsonl(bin);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), util::StatusCode::kCorruptInput) << bad;
    EXPECT_NE(r.status().message().find("line 1"), std::string::npos)
        << r.status().message();
  }
}

// -------------------------------------------- FleetAttributor (online) ----

std::string render(const std::vector<FleetAttributor::SessionAttribution>& s) {
  std::ostringstream os;
  os << std::setprecision(17);  // scores compared to the last bit
  for (const auto& a : s) {
    os << a.key.to_string() << " flagged=" << a.flagged_windows << "\n";
    for (const AttributionVerdict& v : a.verdicts) {
      os << "  " << v.signature << " score=" << v.score
         << " nodes=" << v.nodes_matched << "/" << v.nodes_total
         << " edges=" << v.edges_satisfied << "/" << v.edges_total
         << " windows=[" << v.first_window << "," << v.last_window << "]\n";
    }
  }
  return os.str();
}

// --status-json writes both names through obs::json_string: the .sig
// parser takes any whitespace-free token as a signature name, quote and
// backslash included, and the session host is the client's.
TEST(FleetAttributor, StatusJsonEscapesSessionAndSignatureNames) {
  CampaignSignature sig = two_stage_sig();
  sig.name = "evil\"sig\\";
  std::istringstream sig_text(signature_to_string(sig));
  const util::StatusOr<CampaignSignature> parsed = read_signature(sig_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->name, sig.name);
  SignatureLibrary lib;
  lib.add(*parsed);

  FleetAttributor attributor(&lib, /*min_score=*/0.0);
  trace::PartitionedEvent event;
  event.type = trace::EventType::kRegistryRead;
  attributor.observe(serve::SessionKey{"host\"1", 7}, 0, -1, -0.5, &event,
                     1);
  const serve::DetectionServer server;
  const std::string status =
      online::render_status_json({&server, nullptr, nullptr, &attributor});
  EXPECT_NE(
      status.find(R"("session":"host\"1:7","signature":"evil\"sig\\")"),
      std::string::npos)
      << status;
}

const TrainedDetector& fixture_for_attrib() {
  static const TrainedDetector* f =
      new TrainedDetector(train_small_detector());
  return *f;
}

// The binary dialect accepts symbol names with any bytes; the audit record
// must stay one line and hand them back to the reader unchanged.
TEST(Evidence, AuditRecordKeepsControlBytesInSymbolNames) {
  const TrainedDetector& f = fixture_for_attrib();
  const std::size_t win = f.detector->preprocessor().window();
  ASSERT_GE(f.malicious.events.size(), win);
  std::vector<trace::PartitionedEvent> events(
      f.malicious.events.begin(),
      f.malicious.events.begin() + static_cast<std::ptrdiff_t>(win));
  const std::string function = "ev\nil\t\x01 \"quoted\" back\\slash";
  events[0].system_stack.push_back({0x7f00dead0000, "evil.so", function});
  const std::string line = serve::AuditLog::format_record(
      serve::SessionKey{"host\n2", 7}, "default", 3, -1, -0.5, events,
      *f.detector, /*top_k=*/2);
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;

  std::istringstream is(line + "\n");
  const util::StatusOr<std::vector<WindowEvidence>> got =
      evidence_from_audit_jsonl(is);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_EQ(got->size(), 1u);
  const std::vector<std::string>& funcs = (*got)[0].funcs;
  EXPECT_NE(std::find(funcs.begin(), funcs.end(), "evil.so!" + function),
            funcs.end())
      << line;
}

// The audit record's "evidence" block and the attribution tap's evidence
// are one recipe: on every catalog campaign window the block reads back as
// evidence_from_events, and its bytes are that evidence with the event
// types spelled by name, in name order.
TEST(Evidence, AuditRecordEqualsFromEventsOnEveryCampaignWindow) {
  const TrainedDetector& f = fixture_for_attrib();
  const std::size_t win = f.detector->preprocessor().window();
  const auto json_array = [](const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += obs::json_string(v[i]);
    }
    return out + "]";
  };
  for (const sim::CampaignSpec& spec : sim::campaign_catalog()) {
    sim::SimConfig cfg;
    cfg.benign_events = 300;
    cfg.mixed_events = 300;
    cfg.malicious_events = 300;
    cfg.seed = 3;
    const trace::PartitionedLog mal =
        partition_raw(sim::generate_campaign(spec, cfg).malicious);
    for (std::size_t i = 0; i + win <= mal.events.size(); i += win) {
      const std::string what = spec.name + " window at " + std::to_string(i);
      const std::vector<trace::PartitionedEvent> events(
          mal.events.begin() + static_cast<std::ptrdiff_t>(i),
          mal.events.begin() + static_cast<std::ptrdiff_t>(i + win));
      const WindowEvidence want =
          evidence_from_events(i / win, -0.5, events.data(), events.size());
      const std::string line = serve::AuditLog::format_record(
          serve::SessionKey{"h", 1}, "default", want.window_index, -1, -0.5,
          events, *f.detector, /*top_k=*/2);

      std::istringstream is(line + "\n");
      const util::StatusOr<std::vector<WindowEvidence>> got =
          evidence_from_audit_jsonl(is);
      ASSERT_TRUE(got.ok()) << got.status().message();
      ASSERT_EQ(got->size(), 1u) << what;
      EXPECT_EQ((*got)[0].event_types, want.event_types) << what;
      EXPECT_EQ((*got)[0].libs, want.libs) << what;
      EXPECT_EQ((*got)[0].funcs, want.funcs) << what;

      std::vector<std::string> types;
      for (const trace::EventType t : want.event_types) {
        types.emplace_back(trace::event_type_name(t));
      }
      std::sort(types.begin(), types.end());
      const std::string block =
          "\"evidence\":{\"event_types\":" + json_array(types) +
          ",\"libs\":" + json_array(want.libs) +
          ",\"funcs\":" + json_array(want.funcs) + "}}";
      EXPECT_TRUE(line.ends_with(block)) << what << "\n" << line;
    }
  }
}

// The load-bearing serving property: attribution output is a pure
// function of each session's per-window verdict stream, so it cannot
// depend on how many workers raced to produce it.
TEST(FleetAttributor, SnapshotIsIdenticalAcrossWorkerCounts) {
  const TrainedDetector& f = fixture_for_attrib();

  SignatureLibrary lib;
  const CampaignSignature sig =
      signature_from_campaign(sim::find_campaign("campaign_putty_apt"));
  lib.add(sig);
  for (CampaignSignature& d : decoy_signatures(sig)) lib.add(std::move(d));

  std::string snapshots[2];
  const std::size_t workers[2] = {1, 8};
  for (int run = 0; run < 2; ++run) {
    serve::ServerOptions options;
    options.workers = workers[run];
    serve::DetectionServer server(options);
    server.registry().add("app", f.detector);
    FleetAttributor attributor(&lib);
    server.add_window_tap(
        [&attributor](const serve::SessionKey& key, std::size_t window_index,
                      int label, double decision_value,
                      const trace::PartitionedEvent* events,
                      std::size_t count) {
          attributor.observe(key, window_index, label, decision_value, events,
                             count);
        });
    server.start();
    for (std::uint32_t s = 0; s < 3; ++s) {
      const auto session = server.open_session({"host", s + 1}, "app");
      ASSERT_NE(session, nullptr);
      for (const trace::PartitionedEvent& e : f.mixed.events) {
        ASSERT_TRUE(server.submit(session, e));
      }
    }
    server.drain();
    server.stop();
    EXPECT_GT(attributor.flagged_total(), 0u);
    EXPECT_EQ(attributor.sessions(), 3u);
    snapshots[run] = render(attributor.snapshot());
  }
  EXPECT_EQ(snapshots[0], snapshots[1])
      << "attribution diverged between 1 and 8 workers";
}

}  // namespace
}  // namespace leaps::attrib
