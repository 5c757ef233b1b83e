// Persisted-bytes codec tests: golden bytes for every encoding the process
// writes to disk, and the hostile-length table that holds every decoder of
// those bytes to a typed error and an allocation bounded by its input.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/persist.h"
#include "durable/store.h"
#include "durable/wal.h"
#include "obs/sketch.h"
#include "online/drift.h"
#include "util/bytes.h"

// Counting global operator new: records the largest single allocation made
// while `g_counting` is set. The standard library's array and nothrow forms
// call this one; the aligned forms keep their own pair.
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

/// One frame of every WalRecordType, in enum order, LSNs 1..6.
std::string fixed_journal(const std::string& dir) {
  durable::DurableStore store(durable::DurableOptions{dir, 0});
  EXPECT_TRUE(store.open().ok());
  const auto window = fixed_window();
  const core::Detector detector = tiny_detector();
  const durable::DriftSample samples[] = {{0.5, 1}, {-2.25, -1}};
  EXPECT_TRUE(store.journal_window(window.data(), window.size()).ok());
  EXPECT_TRUE(store.journal_retrain(1, true, 3, "ok").ok());
  EXPECT_TRUE(store.journal_promotion(detector).ok());
  EXPECT_TRUE(store.journal_quarantine(detector).ok());
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
  std::ostringstream v3;
  core::save_detector(tiny_detector(), v3);
  EXPECT_EQ(to_hex(v3.str()), kDetectorHex);
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
  ASSERT_EQ(recovered->quarantined.size(), 1u);
  ASSERT_NE(recovered->detector, nullptr);
  std::ostringstream promoted;
  core::save_detector(*recovered->detector, promoted);
  EXPECT_EQ(to_hex(promoted.str()), kDetectorHex);
  ASSERT_EQ(recovered->drift_ops.size(), 4u);
  EXPECT_EQ(recovered->drift_ops[0].kind,
            durable::DriftReplayOp::Kind::kRetrain);
  EXPECT_EQ(recovered->drift_ops[1].value, 0.5);
  EXPECT_EQ(recovered->drift_ops[2].value, -2.25);
  EXPECT_EQ(recovered->drift_ops[2].label, -1);
  EXPECT_EQ(recovered->drift_ops[3].kind,
            durable::DriftReplayOp::Kind::kTrigger);
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
// One row per decoder of persisted bytes. Every proper prefix of a valid
// encoding, and each hostile input (a minimal header claiming the largest
// length the grammar admits; for load_detector also a 2^62 count behind a
// valid CRC), must come back as a typed error (a Status; a PersistError
// for load_detector), throw nothing else, and allocate no single block
// larger than twice the input plus one read chunk.

struct HostileRow {
  std::string name;
  std::string valid;
  std::vector<std::string> hostile;
  /// Proper prefix lengths that are themselves complete encodings; they
  /// must decode OK.
  std::vector<std::size_t> complete_prefixes;
  std::function<util::Status(const std::string&)> decode;
};

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

  const std::string snapshot = fixed_snapshot(fresh_dir("hostile_snap_src"));
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
  }
  g_counting.store(false);
  return {status, g_largest.load()};
}

TEST(HostileLengths, EveryDecoderFailsTypedWithBoundedAllocation) {
  for (const HostileRow& row : hostile_rows()) {
    SCOPED_TRACE(row.name);
    ASSERT_TRUE(row.decode(row.valid).ok()) << "the valid encoding decodes";
    std::vector<std::pair<std::string, bool>> inputs;  // bytes, decodes OK
    for (const std::string& claim : row.hostile) {
      inputs.emplace_back(claim, false);
    }
    for (std::size_t n = 0; n < row.valid.size(); ++n) {
      inputs.emplace_back(row.valid.substr(0, n),
                          std::count(row.complete_prefixes.begin(),
                                     row.complete_prefixes.end(), n) > 0);
    }
    for (const auto& [input, complete] : inputs) {
      const auto [status, largest] = decode_counted(row, input);
      EXPECT_EQ(status.ok(), complete)
          << input.size() << "-byte input: " << status.to_string();
      EXPECT_LE(largest, 2 * input.size() + util::kFrameChunkBytes)
          << input.size() << "-byte input: " << status.to_string();
    }
  }
}

}  // namespace
}  // namespace leaps
