// Codec tests: golden bytes for every encoding the process writes to disk,
// and the hostile-length table that holds every decoder of untrusted bytes
// to a typed error and an allocation bounded by its input.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "attrib/matcher.h"
#include "attrib/signature.h"
#include "core/persist.h"
#include "durable/store.h"
#include "durable/wal.h"
#include "obs/sketch.h"
#include "online/drift.h"
#include "serve/audit.h"
#include "trace/auditd_log.h"
#include "trace/binary_log.h"
#include "trace/partition.h"
#include "util/bytes.h"
#include "util/rng.h"

// Counting global operator new: records the largest single allocation made
// while `g_counting` is set. The array and nothrow forms are replaced too,
// so that under a sanitizer, whose runtime supplies its own, every form
// is counted and pairs with the free() below; the aligned forms keep their
// own pair.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_largest{0};
}  // namespace

// GCC flags free() on memory from a replaced operator new it can see.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace leaps {
namespace {

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  ::unlink((dir + "/snapshot.leaps").c_str());
  ::unlink((dir + "/journal.wal").c_str());
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

std::string repeat(std::string_view unit, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += unit;
  return out;
}

void spill(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Fixed values ---------------------------------------------------------

/// A one-dimensional-window detector built from state, so its v3 bytes
/// depend on nothing but the values written here.
core::Detector tiny_detector() {
  core::PreprocessOptions popt;
  popt.window = 1;
  const auto clusterer = [](const ml::ClusterOptions& options,
                            const std::string& member) {
    ml::ClusterResult r;
    r.assignment = {0};
    r.cluster_count = 1;
    r.leaf_order = {0};
    r.positions = {0.5};
    return core::SetClusterer::from_state(options, {ml::StringSet{member}},
                                          std::move(r));
  };
  core::Preprocessor pre = core::Preprocessor::from_state(
      popt, clusterer(popt.lib_clustering, "libc.so.6"),
      clusterer(popt.func_clustering, "read"));
  ml::MinMaxScaler scaler =
      ml::MinMaxScaler::from_state({0.0, 0.0, 0.0}, {1.0, 2.0, 4.0});
  ml::KernelParams kernel;
  kernel.sigma2 = 2.0;
  ml::SvmModel model({{0.25, 0.5, 0.75}}, {1.5}, -0.125, kernel);
  core::Detector detector(std::move(pre), std::move(scaler),
                          std::move(model));
  detector.set_decision_threshold(0.0625);
  return detector;
}

std::vector<trace::PartitionedEvent> fixed_window() {
  trace::PartitionedEvent a;
  a.seq = 7;
  a.tid = 42;
  a.type = trace::EventType::kSysCallEnter;
  a.app_stack = {0x400100, 0x400200};
  a.system_stack = {{0x7f0000001000, "libc.so.6", "read"},
                    {0xffffffff81000000, "[kernel]", ""}};
  trace::PartitionedEvent b;
  b.seq = 8;
  b.tid = 42;
  b.type = static_cast<trace::EventType>(trace::kEventTypeCount - 1);
  return {a, b};
}

obs::QuantileSketch fixed_sketch() {
  obs::QuantileSketch s(8);
  for (int i = 0; i < 21; ++i) s.insert(0.5 * ((i * 7) % 13) - 1.0);
  return s;
}

obs::ReservoirWindow fixed_reservoir() {
  obs::ReservoirWindow w(4);
  for (int i = 0; i < 6; ++i) w.insert(1.25 * i);
  return w;
}

online::DriftOptions drift_options() {
  online::DriftOptions o;
  o.enabled = true;
  o.reference_target = 4;
  o.live_window = 3;
  o.min_live = 2;
  return o;
}

std::string fixed_drift_state() {
  online::DriftMonitor m(drift_options());
  for (int i = 0; i < 7; ++i) m.observe(0.125 * i, i % 3 == 0 ? -1 : 1);
  m.evaluate();
  return m.serialize();
}

std::string detector_bytes(const core::Detector& detector) {
  std::ostringstream os;
  core::save_detector(detector, os);
  return os.str();
}

/// One frame of every WalRecordType, in enum order, LSNs 1..6. No store
/// writes kQuarantine any more: its frame (an older writer's rolled-back
/// candidate) goes in through a bare WalWriter between two stores.
std::string fixed_journal(const std::string& dir) {
  const auto window = fixed_window();
  const core::Detector detector = tiny_detector();
  {
    durable::DurableStore store(durable::DurableOptions{dir, 0});
    EXPECT_TRUE(store.open().ok());
    EXPECT_TRUE(store.journal_window(window.data(), window.size()).ok());
    EXPECT_TRUE(store.journal_retrain(1, true, 3, "ok").ok());
    EXPECT_TRUE(store.journal_promotion(detector).ok());
  }
  {
    durable::WalWriter wal;
    EXPECT_TRUE(wal.open(dir + "/journal.wal", 4).ok());
    EXPECT_TRUE(wal.append(durable::WalRecordType::kQuarantine,
                           detector_bytes(detector))
                    .ok());
  }
  durable::DurableStore store(durable::DurableOptions{dir, 0});
  EXPECT_TRUE(store.open().ok());  // seeds the next LSN past the journal
  const durable::DriftSample samples[] = {{0.5, 1}, {-2.25, -1}};
  EXPECT_TRUE(store.journal_drift_batch(samples, 2).ok());
  EXPECT_TRUE(store.journal_drift_trigger(2, 0.001).ok());
  return slurp(store.journal_path());
}

std::string fixed_snapshot(const std::string& dir) {
  durable::DurableStore store(durable::DurableOptions{dir, 0});
  EXPECT_TRUE(store.open().ok());
  durable::CheckpointState state;
  state.detector = std::make_shared<const core::Detector>(tiny_detector());
  state.pending_windows.push_back(durable::DurableWindow{fixed_window()});
  state.accounting = {.ingested = 5, .processed = 3, .dropped = 1,
                      .quarantined = 1};
  EXPECT_TRUE(store.checkpoint(state).ok());
  return slurp(store.snapshot_path());
}

/// `snapshot` (which says `QUARANTINED 0`) as an older writer that kept
/// rolled-back candidates wrote it with `n` of them: the count line, then
/// one framed CAND blob of tiny_detector()'s bytes per candidate.
std::string with_candidates(const std::string& snapshot, std::size_t n) {
  constexpr std::string_view kNone = "\nQUARANTINED 0\n";
  const std::size_t at = snapshot.find(kNone);
  EXPECT_NE(at, std::string::npos);
  const std::string candidate = detector_bytes(tiny_detector());
  std::ostringstream os;
  os << snapshot.substr(0, at) << "\nQUARANTINED " << n << '\n';
  for (std::size_t i = 0; i < n; ++i) {
    util::write_framed(os, "CAND", candidate);
    os << '\n';
  }
  os << snapshot.substr(at + kNone.size());
  return os.str();
}

// --- Golden bytes ---------------------------------------------------------
//
// Captured from the writers before they moved onto util/bytes.h. A round
// trip passes even when writer and reader change together; these do not.

constexpr std::string_view kSketchHex =
    "4c50515331080015000000000000000000000000004340000000000000f0bf00"
    "0000000000144003000000000500000000000000000008400000000000000000"
    "0000000000000c40000000000000e03f00000000000010400100000000000400"
    "0000000000000000f0bf00000000000000000000000000000440000000000000"
    "0c40";
constexpr std::string_view kReservoirHex =
    "4c50525731040000000000000006000000000000000400000000000000000004"
    "400000000000000e4000000000000014400000000000001940";
constexpr std::string_view kDriftHex =
    "4c50444d310000000007000000000000000100000000000000f03fbf8270ebfe"
    "fe943f0100000000000000000000000000000004000000000000000000000000"
    "0000000000c03f000000000000d03f000000000000d83f310000004c50525731"
    "0300000000000000030000000000000003000000000000000000e03f00000000"
    "0000e43f000000000000e83f680000004c505153318000070000000000000000"
    "000000000005400000000000000000000000000000e83f010000000007000000"
    "0000000000000000000000000000c03f000000000000d03f000000000000d83f"
    "000000000000e03f000000000000e43f000000000000e83f0100000004000000"
    "000000000300000000000000";
constexpr std::string_view kWindowHex =
    "0200000007000000000000002a00000000020000000001400000000000000240"
    "00000000000200000000100000007f0000090000006c6962632e736f2e360400"
    "00007265616400000081ffffffff080000005b6b65726e656c5d000000000800"
    "0000000000002a0000000f0000000000000000";
constexpr std::string_view kDetectorHex =
    "4c454150532d4445544543544f522076330a424c4f434b204f5054494f4e5320"
    "35362061613264653631340a4f5054494f4e53203120302e3239393939393939"
    "39393939393939393920313020302e3334393939393939393939393939393938"
    "2031300a424c4f434b204c49422034362061393966313233310a434c55535445"
    "524552204c4942203120310a504f53203020302e350a53455420302031206c69"
    "62632e736f2e360a424c4f434b2046554e432034322062383438333439300a43"
    "4c555354455245522046554e43203120310a504f53203020302e350a53455420"
    "30203120726561640a424c4f434b205343414c45522033312036656532656262"
    "340a5343414c455220330a4d494e2030203020300a52414e4745203120322034"
    "0a424c4f434b2053564d2036382065373561396536660a53564d206761757373"
    "69616e203220332031202d302e313235203120330a535620312e3520302e3235"
    "20302e3520302e37350a5448524553484f4c4420302e303632350a454e440a";
// The journal's promotion and quarantine frames and the snapshot's
// DETECTOR blob carry kDetectorHex; the pieces around it are pinned here.
constexpr std::string_view kJournalHead =
    "4c4541505357414c310a7c00000049d6ebc70101000000000000000200000007"
    "000000000000002a000000000200000000014000000000000002400000000000"
    "0200000000100000007f0000090000006c6962632e736f2e3604000000726561"
    "6400000081ffffffff080000005b6b65726e656c5d0000000008000000000000"
    "002a0000000f000000000000000020000000b413e0aa02020000000000000001"
    "00000000000000010300000000000000020000006f6b880100007c8200600303"
    "00000000000000";
constexpr std::string_view kJournalMid =
    "8801000095b943a7040400000000000000";
constexpr std::string_view kJournalTail =
    "1f00000093d8bc6805050000000000000002000000000000000000e03f010000"
    "0000000002c0ff150000007b72983906060000000000000002000000fca9f1d2"
    "4d62503f";
constexpr std::string_view kSnapshotHead =
    "4c454150532d534e415053484f542076310a4c534e20300a4143434f554e5449"
    "4e4720352033203120310a4445544543544f5220333833203932656461663737"
    "0a";
constexpr std::string_view kSnapshotTail =
    "0a51554152414e54494e454420300a50454e44494e4720310a57494e444f5720"
    "3131352037343537343637630a0200000007000000000000002a000000000200"
    "0000000140000000000000024000000000000200000000100000007f00000900"
    "00006c6962632e736f2e36040000007265616400000081ffffffff080000005b"
    "6b65726e656c5d0000000008000000000000002a0000000f0000000000000000"
    "0a454e440a";

std::string journal_hex() {
  return std::string(kJournalHead) + std::string(kDetectorHex) +
         std::string(kJournalMid) + std::string(kDetectorHex) +
         std::string(kJournalTail);
}

std::string snapshot_hex() {
  return std::string(kSnapshotHead) + std::string(kDetectorHex) +
         std::string(kSnapshotTail);
}

TEST(GoldenBytes, EveryEncoderWritesThePinnedBytes) {
  EXPECT_EQ(to_hex(fixed_sketch().serialize()), kSketchHex);
  EXPECT_EQ(to_hex(fixed_reservoir().serialize()), kReservoirHex);
  EXPECT_EQ(to_hex(fixed_drift_state()), kDriftHex);
  const auto window = fixed_window();
  EXPECT_EQ(to_hex(durable::encode_window(window.data(), window.size())),
            kWindowHex);
  EXPECT_EQ(to_hex(detector_bytes(tiny_detector())), kDetectorHex);
  EXPECT_EQ(to_hex(fixed_journal(fresh_dir("golden_journal"))), journal_hex());
  EXPECT_EQ(to_hex(fixed_snapshot(fresh_dir("golden_snapshot"))),
            snapshot_hex());
}

TEST(GoldenBytes, PinnedBytesDecodeToTheFixedValues) {
  const auto sketch = obs::QuantileSketch::deserialize(from_hex(kSketchHex));
  ASSERT_TRUE(sketch.ok()) << sketch.status().to_string();
  EXPECT_TRUE(*sketch == fixed_sketch());

  const auto reservoir =
      obs::ReservoirWindow::deserialize(from_hex(kReservoirHex));
  ASSERT_TRUE(reservoir.ok()) << reservoir.status().to_string();
  // Decoding yields the oldest-first normal form, so compare contents.
  EXPECT_EQ(reservoir->capacity(), fixed_reservoir().capacity());
  EXPECT_EQ(reservoir->total(), fixed_reservoir().total());
  EXPECT_EQ(reservoir->values(), fixed_reservoir().values());

  online::DriftMonitor drift(drift_options());
  ASSERT_TRUE(drift.deserialize(from_hex(kDriftHex)).ok());
  online::DriftMonitor expected(drift_options());
  ASSERT_TRUE(expected.deserialize(fixed_drift_state()).ok());
  EXPECT_TRUE(drift == expected);

  const auto window = durable::decode_window(from_hex(kWindowHex));
  ASSERT_TRUE(window.ok()) << window.status().to_string();
  EXPECT_EQ(*window, fixed_window());

  std::istringstream v3(from_hex(kDetectorHex));
  std::ostringstream resaved;
  core::save_detector(core::load_detector(v3), resaved);
  EXPECT_EQ(to_hex(resaved.str()), kDetectorHex);

  const std::string dir = fresh_dir("golden_recover");
  spill(dir + "/snapshot.leaps", from_hex(snapshot_hex()));
  durable::DurableStore store(durable::DurableOptions{dir, 0});
  const auto snapshot = store.recover();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().to_string();
  ASSERT_EQ(snapshot->pending_windows.size(), 1u);
  EXPECT_EQ(snapshot->pending_windows[0].events, fixed_window());

  // The snapshot folds nothing (LSN 0), so all six journal records replay
  // on top of it.
  spill(dir + "/journal.wal", from_hex(journal_hex()));
  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(recovered->snapshot_found);
  EXPECT_FALSE(recovered->torn_tail);
  EXPECT_EQ(recovered->replayed, 6u);
  EXPECT_EQ(recovered->last_lsn, 6u);
  EXPECT_EQ(recovered->accounting.ingested, 5u);
  EXPECT_EQ(recovered->accounting.quarantined, 1u);
  // The retrain record (boundary LSN 1) consumed the snapshot window and
  // the journaled one.
  EXPECT_TRUE(recovered->pending_windows.empty());
  // The quarantine record (LSN 4) replays as a no-op, counted above.
  ASSERT_NE(recovered->detector, nullptr);
  EXPECT_EQ(to_hex(detector_bytes(*recovered->detector)), kDetectorHex);
  ASSERT_EQ(recovered->drift_ops.size(), 4u);
  EXPECT_EQ(recovered->drift_ops[0].kind,
            durable::DriftReplayOp::Kind::kRetrain);
  EXPECT_EQ(recovered->drift_ops[1].value, 0.5);
  EXPECT_EQ(recovered->drift_ops[2].value, -2.25);
  EXPECT_EQ(recovered->drift_ops[2].label, -1);
  EXPECT_EQ(recovered->drift_ops[3].kind,
            durable::DriftReplayOp::Kind::kTrigger);
}

// An older writer kept every rolled-back candidate in the snapshot, and
// its reader refused more than 4096 of them. Recovery now checks each CAND
// blob's framing and drops it: the count needs no cap, and the rest of the
// snapshot recovers as written.
TEST(GoldenBytes, OlderSnapshotWithManyCandidatesRecovers) {
  const std::string dir = fresh_dir("golden_candidates");
  spill(dir + "/snapshot.leaps",
        with_candidates(from_hex(snapshot_hex()), 4097));
  durable::DurableStore store(durable::DurableOptions{dir, 0});
  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(recovered->snapshot_found);
  EXPECT_EQ(recovered->replayed, 0u);
  EXPECT_EQ(recovered->accounting.ingested, 5u);
  EXPECT_EQ(recovered->accounting.processed, 3u);
  EXPECT_EQ(recovered->accounting.dropped, 1u);
  EXPECT_EQ(recovered->accounting.quarantined, 1u);
  ASSERT_EQ(recovered->pending_windows.size(), 1u);
  EXPECT_EQ(recovered->pending_windows[0].events, fixed_window());
  ASSERT_NE(recovered->detector, nullptr);
  EXPECT_EQ(to_hex(detector_bytes(*recovered->detector)), kDetectorHex);

  // A candidate blob whose bytes fail their CRC is still a typed error.
  std::string bad = with_candidates(from_hex(snapshot_hex()), 2);
  bad[bad.find('\n', bad.find("\nCAND ") + 1) + 1] ^= 1;
  spill(dir + "/snapshot.leaps", bad);
  EXPECT_EQ(store.recover().status().code(), util::StatusCode::kCorruptInput);
}

// --- Codec -----------------------------------------------------------------

TEST(ByteReader, FailureIsStickyAndCountChecksBeforeAnyRead) {
  std::string bytes;
  util::put_u32(bytes, 3);
  util::put_u64(bytes, 0x0102030405060708);
  util::ByteReader r(bytes);
  EXPECT_EQ(r.u32(), 3u);
  EXPECT_TRUE(r.count(1, 8));
  EXPECT_FALSE(r.count(2, 8));  // only 8 bytes remain
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u) << "a failed reader reads nothing more";

  util::ByteReader huge(bytes);
  EXPECT_FALSE(huge.count(std::numeric_limits<std::uint64_t>::max(), 1));
  util::ByteReader exact(bytes);
  EXPECT_EQ(exact.u32(), 3u);
  EXPECT_EQ(exact.u64(), 0x0102030405060708u);
  EXPECT_TRUE(exact.done());
  EXPECT_EQ(exact.u8(), 0u);
  EXPECT_FALSE(exact.ok());
}

// --- Hostile lengths ------------------------------------------------------
//
// One row per decoder of untrusted bytes: the persisted formats, the three
// log dialects (through read_raw_log_any, sniffing included), .sig
// signatures and audit JSONL. Every row faces one deterministic corpus:
// each hostile input (a minimal header claiming the largest length the
// grammar admits, or a line of as many items as its bytes can name), every
// proper prefix of a valid encoding, seeded 1-3-bit flips of it, and
// splices of it (a prefix joined to its own suffix at another offset).
// Each input must decode or come back as a typed error (a Status; a
// PersistError for load_detector), throw nothing else, and allocate no
// single block larger than the row's multiple of the input plus one read
// chunk.

struct HostileRow {
  std::string name;
  std::string valid;
  std::vector<std::string> hostile;
  /// Proper prefix lengths that are themselves complete encodings; they
  /// must decode OK and no other proper prefix may (unless line_grammar).
  std::vector<std::size_t> complete_prefixes;
  std::function<util::Status(const std::string&)> decode;
  /// Bound on the largest single allocation, per input byte.
  std::size_t multiple = 2;
  /// Called, outside the counted window, on every input that decodes
  /// (`prefix`: a proper prefix of `valid`); false fails the row.
  std::function<bool(const std::string& input, bool prefix)> decoded = nullptr;
  /// A line grammar: a cut at a record boundary leaves a shorter document,
  /// so any proper prefix may decode (`decoded` then checks it) and
  /// complete_prefixes pins nothing.
  bool line_grammar = false;
};

/// A small log: an application image, a library and the kernel, a symbol
/// in each of the latter, and events whose stacks mix application,
/// library, kernel and unmapped frames.
trace::RawLog fixed_log() {
  trace::RawLog log;
  log.process_name = "vim";
  log.modules = {{0x400000, 0x10000, "vim"},
                 {0x7f0000000000, 0x10000, "libc.so.6"},
                 {0xffffffff81000000, 0x100000, "[kernel]"}};
  log.symbols = {{0x7f0000001000, "read"},
                 {0x7f0000002000, "write"},
                 {0xffffffff81000100, "sys_read"}};
  constexpr trace::EventType kTypes[] = {
      trace::EventType::kFileRead, trace::EventType::kFileWrite,
      trace::EventType::kNetworkSend, trace::EventType::kMemProtect};
  for (std::uint64_t i = 0; i < 8; ++i) {
    trace::RawEvent e;
    e.seq = 100 + i;
    e.tid = static_cast<std::uint32_t>(1 + i % 2);
    e.type = kTypes[i % 4];
    e.stack = {0xffffffff81000100, 0x7f0000001000 + 0x1000 * (i % 2),
               0x400100 + 0x10 * i};
    if (i % 3 == 0) e.stack.push_back(0x900000 + i);  // unmapped
    log.events.push_back(std::move(e));
  }
  return log;
}

attrib::CampaignSignature fixed_signature() {
  attrib::CampaignSignature sig;
  sig.name = "fixed_campaign";
  sig.nodes = {{0, "recon", {trace::EventType::kFileRead}, {"libc.so.6"},
                {"libc.so.6!read"}},
               {1, "exfil",
                {trace::EventType::kNetworkSend,
                 trace::EventType::kMemProtect},
                {},
                {}}};
  sig.edges = {{0, 1, 4}};
  return sig;
}

/// Three audit records, as the audit writer renders them: windows 0 and 2
/// flagged, window 1 benign.
std::string fixed_audit_jsonl() {
  const core::Detector detector = tiny_detector();
  const std::vector<trace::PartitionedEvent> window = {fixed_window()[0]};
  constexpr int kLabels[] = {-1, 1, -1};
  std::string out;
  for (std::size_t i = 0; i < std::size(kLabels); ++i) {
    out += serve::AuditLog::format_record({"host", 7}, "default", i,
                                          kLabels[i], -0.5 * kLabels[i],
                                          window, detector, 2);
    out += '\n';
  }
  return out;
}

util::Status decode_log(const std::string& bytes) {
  std::istringstream is(bytes);
  return trace::read_raw_log_any(is).status();
}

/// The checks a decoded log must pass: it partitions without throwing and,
/// when a proper prefix, carries no more events than the whole.
std::function<bool(const std::string&, bool)> log_check(std::size_t events) {
  return [events](const std::string& input, bool prefix) {
    std::istringstream is(input);
    const trace::RawLog log = *trace::read_raw_log_any(is);
    (void)trace::partition_raw(log);
    return !prefix || log.events.size() <= events;
  };
}

std::vector<HostileRow> hostile_rows() {
  std::vector<HostileRow> rows;
  const auto window = fixed_window();
  std::string claim;

  util::put_u32(claim, 1u << 20);
  rows.push_back({"decode_window",
                  durable::encode_window(window.data(), window.size()),
                  {claim},
                  {},
                  [](const std::string& b) {
                    return durable::decode_window(b).status();
                  }});

  const std::string wal_dir = fresh_dir("hostile_wal");
  const std::string journal = fixed_journal(fresh_dir("hostile_wal_src"));
  // The journal's first frame alone: magic, header, and the window body.
  util::ByteReader frame(
      std::string_view(journal).substr(durable::kWalMagic.size()));
  const std::string one_frame =
      journal.substr(0, durable::kWalMagic.size() + 8 + frame.u32());
  claim = std::string(durable::kWalMagic);
  util::put_u32(claim, 64u << 20);
  util::put_u32(claim, 0);
  rows.push_back({"scan_wal",
                  one_frame,
                  {claim},
                  {durable::kWalMagic.size()},  // a journal with no records
                  [wal_dir](const std::string& b) {
                    const std::string path = wal_dir + "/journal.wal";
                    spill(path, b);
                    const auto scan = durable::scan_wal(path);
                    if (!scan.ok()) return scan.status();
                    return scan->torn ? util::corrupt_input(scan->torn_reason)
                                      : util::ok_status();
                  }});

  claim = "LPDM1";
  util::put_u32(claim, 0);   // generation
  util::put_u64(claim, 0);   // observed
  util::put_u8(claim, 0);    // frozen
  util::put_u8(claim, 0);    // pending
  util::put_f64(claim, 0);   // last KS
  util::put_f64(claim, 1);   // last p
  util::put_u64(claim, 0);   // evaluations
  util::put_u64(claim, 0);   // triggers
  util::put_u32(claim, online::DriftOptions::kMaxWindow);
  rows.push_back({"DriftMonitor::deserialize",
                  fixed_drift_state(),
                  {claim},
                  {},
                  [](const std::string& b) {
                    online::DriftMonitor m(drift_options());
                    return m.deserialize(b);
                  }});

  std::ostringstream v3;
  core::save_detector(tiny_detector(), v3);
  // A set count of 2^62 behind a valid CRC, and in a v1 file.
  const std::string options = "OPTIONS 1 0.3 10 0.35 10\n";
  const std::string sets =
      "CLUSTERER LIB 4611686018427387904 1\nPOS 0 0.5\n";
  std::ostringstream crafted;
  crafted << "LEAPS-DETECTOR v3\n";
  util::write_framed(crafted, "BLOCK OPTIONS", options);
  util::write_framed(crafted, "BLOCK LIB", sets);
  crafted << "END\n";
  rows.push_back({"load_detector",
                  v3.str(),
                  {"LEAPS-DETECTOR v3\nBLOCK OPTIONS 268435456 00000000\n",
                   crafted.str(), "LEAPS-DETECTOR v1\n" + options + sets},
                  {v3.str().size() - 1},  // the final newline is optional
                  [](const std::string& b) {
                    std::istringstream is(b);
                    try {
                      core::load_detector(is);
                    } catch (const core::PersistError& e) {
                      return util::corrupt_input(e.what());
                    }
                    return util::ok_status();
                  }});

  // One CAND blob, so the mutations also reach the candidate skip path.
  const std::string snapshot =
      with_candidates(fixed_snapshot(fresh_dir("hostile_snap_src")), 1);
  const std::string snap_dir = fresh_dir("hostile_snap");
  rows.push_back({"DurableStore::recover",
                  snapshot,
                  {"LEAPS-SNAPSHOT v1\nLSN 0\nACCOUNTING 0 0 0 0\n"
                   "DETECTOR 268435456 00000000\n"},
                  {snapshot.size() - 1},  // the final newline is optional
                  [snap_dir](const std::string& b) {
                    spill(snap_dir + "/snapshot.leaps", b);
                    durable::DurableStore store(
                        durable::DurableOptions{snap_dir, 0});
                    return store.recover().status();
                  }});

  std::vector<std::string> reservoirs;
  for (const std::uint64_t capacity :
       {std::uint64_t{1} << 27, std::uint64_t{1} << 62}) {
    claim = "LPRW1";
    util::put_u64(claim, capacity);
    util::put_u64(claim, capacity);
    util::put_u32(claim, 0);
    reservoirs.push_back(claim);
  }
  rows.push_back({"ReservoirWindow::deserialize",
                  fixed_reservoir().serialize(),
                  reservoirs,
                  {},
                  [](const std::string& b) {
                    return obs::ReservoirWindow::deserialize(b).status();
                  }});

  claim = "LPQS1";
  util::put_u16(claim, std::numeric_limits<std::uint16_t>::max());
  util::put_u64(claim, 0);
  util::put_f64(claim, 0);
  util::put_f64(claim, 0);
  util::put_f64(claim, 0);
  util::put_u32(claim, 1);
  util::put_u8(claim, 0);
  util::put_u32(claim, 4u * std::numeric_limits<std::uint16_t>::max());
  rows.push_back({"QuantileSketch::deserialize",
                  fixed_sketch().serialize(),
                  {claim},
                  {},
                  [](const std::string& b) {
                    return obs::QuantileSketch::deserialize(b).status();
                  }});

  const trace::RawLog log = fixed_log();
  const std::size_t events = log.events.size();
  std::ostringstream text;
  trace::write_raw_log(log, text);
  rows.push_back({"text log",
                  text.str(),
                  {"PROCESS" + repeat(" x", 40000) + "\n"},
                  {},
                  decode_log,
                  // 1: the line itself; the reader keeps at most 5 token views.
                  1,
                  log_check(events),
                  /*line_grammar=*/true});

  // A header claiming 4096 modules, symbols or events, and nothing more;
  // then 4096 symbols claimed and 3000 present, past the reserve.
  std::vector<std::string> counts;
  for (std::size_t empty_counts = 0; empty_counts < 3; ++empty_counts) {
    claim.assign(trace::kBinaryLogMagic, sizeof(trace::kBinaryLogMagic));
    claim += "\x01x";                  // process name
    claim.append(empty_counts, '\0');  // counts before it
    claim += "\x80\x20";               // varint 4096
    counts.push_back(claim);
  }
  claim.assign(trace::kBinaryLogMagic, sizeof(trace::kBinaryLogMagic));
  claim += std::string("\x01x\x01\x00\x7f\x00", 6);  // module [0, 127)
  claim += "\x80\x20" + repeat(std::string("\x05\x00", 2), 3000);
  counts.push_back(claim);
  std::ostringstream binary;
  trace::write_raw_log_binary(log, binary);
  rows.push_back({"binary log",
                  binary.str(),
                  counts,
                  // A binary log declares its counts, so no proper prefix
                  // decodes (the empty one sniffs as text, which refuses
                  // zero bytes).
                  {},
                  decode_log,
                  // 40: a 40-byte RawSymbol per 2 encoded bytes, x2.
                  40,
                  log_check(events)});

  std::ostringstream auditd;
  trace::write_raw_log_auditd(log, auditd);
  rows.push_back({"auditd log",
                  auditd.str(),
                  {"type=SYSCALL msg=audit(0:1): seq=0 tid=0 syscall=0\n"
                   "type=BACKTRACE msg=audit(0:2): frames=\"" +
                       repeat(",", 40000) + "\"\n",
                   "type=SYSCALL msg=audit(0:1): seq=0 tid=0 syscall=0\n"
                   "type=BACKTRACE msg=audit(0:2): frames=\"" +
                       repeat("1,", 20000) + "x\"\n",
                   "type=SYSCALL msg=audit(0:1):" + repeat(" a=1", 20000) +
                       "\n"},
                  {},
                  decode_log,
                  // 5: the frames stack grows to 2^15 8-byte addresses for
                  // the 20k 2-byte frames ("1,"); empty frames reject at once,
                  // and k=v fields are looked up, never listed.
                  5,
                  log_check(events),
                  /*line_grammar=*/true});

  const std::size_t nodes = fixed_signature().nodes.size();
  rows.push_back(
      {"read_signature",
       attrib::signature_to_string(fixed_signature()),
       {"SIGNATURE s\nNODE 0 n TYPES FileRead LIBS " + repeat(",", 40000) +
            " FUNCS -\nEDGE 0 9 GAP 0\n",
        "SIGNATURE s\nNODE 0 n TYPES FileRead LIBS " + repeat("a,", 20000) +
            "a FUNCS -\nEDGE 0 9 GAP 0\n"},
       {},
       [](const std::string& b) {
         std::istringstream is(b);
         return attrib::read_signature(is).status();
       },
       // 25: 2^15 32-byte std::string slots for the 20k 2-byte LIBS
       // entries ("a,"); an empty entry rejects at once.
       25,
       [nodes](const std::string& input, bool prefix) {
         std::istringstream is(input);
         return !prefix || attrib::read_signature(is)->nodes.size() <= nodes;
       },
       /*line_grammar=*/true});

  rows.push_back(
      {"evidence_from_audit_jsonl",
       fixed_audit_jsonl(),
       {"{\"window\":0,\"label\":-1,\"decision_value\":0,\"evidence\":"
        "{\"event_types\":[],\"libs\":[" +
        repeat("\"\",", 20000) + "],\"funcs\":["},
       {},
       [](const std::string& b) {
         std::istringstream is(b);
         return attrib::evidence_from_audit_jsonl(is).status();
       },
       // 22: a 32-byte std::string per 3-byte array element ("",), x2.
       22,
       [](const std::string& input, bool prefix) {
         std::istringstream is(input);
         constexpr std::size_t kFlagged = 2;
         return !prefix ||
                attrib::evidence_from_audit_jsonl(is)->size() <= kFlagged;
       },
       /*line_grammar=*/true});
  return rows;
}

/// Decodes `input`, returning the status and the largest single allocation.
std::pair<util::Status, std::size_t> decode_counted(const HostileRow& row,
                                                    const std::string& input) {
  util::Status status = util::ok_status();
  g_largest.store(0);
  g_counting.store(true);
  try {
    status = row.decode(input);
  } catch (const std::exception& e) {
    g_counting.store(false);
    ADD_FAILURE() << typeid(e).name() << " escaped: " << e.what();
    return {util::internal_error("exception"), 0};
  } catch (...) {
    g_counting.store(false);
    ADD_FAILURE() << "a non-standard exception escaped";
    return {util::internal_error("exception"), 0};
  }
  g_counting.store(false);
  return {status, g_largest.load()};
}

/// One input of the corpus, and the outcome the row pins for it, if any.
struct HostileInput {
  std::string bytes;
  const char* kind;
  bool prefix = false;
  std::optional<bool> decodes = std::nullopt;
};

std::vector<HostileInput> hostile_corpus(const HostileRow& row) {
  constexpr std::size_t kFlips = 256;
  constexpr std::size_t kSplices = 128;
  std::vector<HostileInput> inputs;
  for (const std::string& claim : row.hostile) {
    inputs.push_back({claim, "hostile", false, false});
  }
  const std::string& valid = row.valid;
  for (std::size_t n = 0; n < valid.size(); ++n) {
    std::optional<bool> decodes;
    if (!row.line_grammar) {
      decodes = std::count(row.complete_prefixes.begin(),
                           row.complete_prefixes.end(), n) > 0;
    }
    inputs.push_back({valid.substr(0, n), "prefix", true, decodes});
  }
  util::Rng rng(2015);
  for (std::size_t i = 0; i < kFlips; ++i) {
    std::string flipped = valid;
    for (std::size_t f = 1 + rng.next_below(3); f > 0; --f) {
      flipped[rng.next_below(flipped.size())] ^=
          static_cast<char>(1u << rng.next_below(8));
    }
    inputs.push_back({std::move(flipped), "bit flip"});
  }
  for (std::size_t i = 0; i < kSplices; ++i) {
    const std::size_t cut = rng.next_below(valid.size() + 1);
    const std::size_t from =
        (cut + 1 + rng.next_below(valid.size())) % (valid.size() + 1);
    inputs.push_back({valid.substr(0, cut) + valid.substr(from), "splice"});
  }
  return inputs;
}

TEST(HostileLengths, EveryDecoderFailsTypedWithBoundedAllocation) {
  for (const HostileRow& row : hostile_rows()) {
    SCOPED_TRACE(row.name);
    ASSERT_TRUE(row.decode(row.valid).ok()) << "the valid encoding decodes";
    if (row.decoded) {
      ASSERT_TRUE(row.decoded(row.valid, false));
    }
    for (const HostileInput& input : hostile_corpus(row)) {
      const auto [status, largest] = decode_counted(row, input.bytes);
      const std::string where = std::to_string(input.bytes.size()) + "-byte " +
                                input.kind + ": " + status.to_string();
      if (input.decodes) {
        EXPECT_EQ(status.ok(), *input.decodes) << where;
      }
      if (!status.ok()) {
        EXPECT_TRUE(status.code() == util::StatusCode::kCorruptInput ||
                    status.code() == util::StatusCode::kResourceExhausted)
            << where;
      } else if (row.decoded) {
        EXPECT_TRUE(row.decoded(input.bytes, input.prefix)) << where;
      }
      EXPECT_LE(largest,
                row.multiple * input.bytes.size() + util::kFrameChunkBytes)
          << where;
    }
  }
}

}  // namespace
}  // namespace leaps
