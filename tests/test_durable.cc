// Durability-layer tests: CRC32C, atomic file replacement, WAL framing
// and torn-tail handling, window codec, and checkpoint/recover round
// trips including the crash-between-rename-and-truncate LSN guard.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/persist.h"
#include "detector_fixture.h"
#include "durable/store.h"
#include "durable/wal.h"
#include "util/atomic_file.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace leaps::durable {
namespace {

using leaps::testing::TrainedDetector;

const TrainedDetector& fixture() {
  static const TrainedDetector* f = new TrainedDetector(
      leaps::testing::train_small_detector("vim_reverse_tcp_online", 1200, 7));
  return *f;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  // Start clean across repeated runs.
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

// --- CRC32C ---------------------------------------------------------------

TEST(Crc32c, MatchesKnownVectors) {
  // The iSCSI/RFC 3720 check value for "123456789".
  EXPECT_EQ(util::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(util::crc32c(""), 0x00000000u);
  // Seeded continuation equals one-shot over the concatenation. (The
  // string_view is spelled out: a bare literal with a seed argument would
  // resolve to the (void*, size_t) overload with the seed as the size.)
  const std::uint32_t part = util::crc32c(std::string_view("12345"));
  EXPECT_EQ(util::crc32c(std::string_view("6789"), part),
            util::crc32c(std::string_view("123456789")));
}

// --- atomic_write_file ----------------------------------------------------

TEST(AtomicFile, ReplacesWholeFileOrNothing) {
  const std::string dir = fresh_dir("atomic_file");
  const std::string path = dir + "/target.txt";
  ASSERT_TRUE(
      util::atomic_write_file(path, [](std::ostream& os) { os << "one"; })
          .ok());
  EXPECT_EQ(slurp(path), "one");
  ASSERT_TRUE(
      util::atomic_write_file(path, [](std::ostream& os) { os << "two"; })
          .ok());
  EXPECT_EQ(slurp(path), "two");

  // A throwing fill must leave the previous generation untouched and no
  // temp file behind.
  EXPECT_THROW(util::atomic_write_file(path,
                                       [](std::ostream& os) {
                                         os << "half";
                                         throw std::runtime_error("boom");
                                       }),
               std::runtime_error);
  EXPECT_EQ(slurp(path), "two");

  // A fault at the pre-rename point (the worst crash instant) likewise.
  {
    util::ScopedFault fault("durable.snapshot.pre_rename",
                            {.action = util::FaultAction::kThrow});
    EXPECT_THROW(util::atomic_write_file(
                     path, [](std::ostream& os) { os << "three"; }),
                 util::FaultInjectedError);
  }
  EXPECT_EQ(slurp(path), "two");
}

// --- WAL ------------------------------------------------------------------

TEST(Wal, AppendScanRoundTrip) {
  const std::string dir = fresh_dir("wal_roundtrip");
  const std::string path = dir + "/journal.wal";
  WalWriter writer;
  ASSERT_TRUE(writer.open(path, 1).ok());
  std::uint64_t lsn = 0;
  ASSERT_TRUE(writer.append(WalRecordType::kWindow, "alpha", &lsn).ok());
  EXPECT_EQ(lsn, 1u);
  ASSERT_TRUE(writer.append(WalRecordType::kRetrain, "", &lsn).ok());
  EXPECT_EQ(lsn, 2u);
  ASSERT_TRUE(
      writer.append(WalRecordType::kPromotion, std::string(1000, 'x')).ok());
  writer.close();

  const auto scan = scan_wal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].type, WalRecordType::kWindow);
  EXPECT_EQ(scan->records[0].payload, "alpha");
  EXPECT_EQ(scan->records[1].lsn, 2u);
  EXPECT_EQ(scan->records[2].payload.size(), 1000u);

  // Reopen continues the LSN sequence.
  WalWriter again;
  ASSERT_TRUE(again.open(path, scan->records.back().lsn + 1).ok());
  ASSERT_TRUE(again.append(WalRecordType::kWindow, "beta", &lsn).ok());
  EXPECT_EQ(lsn, 4u);
}

TEST(Wal, MissingFileIsEmptyScanAndForeignMagicIsCorrupt) {
  const std::string dir = fresh_dir("wal_magic");
  const auto missing = scan_wal(dir + "/nope.wal");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
  EXPECT_FALSE(missing->torn);

  const std::string foreign = dir + "/foreign.wal";
  std::ofstream(foreign, std::ios::binary) << "NOTOURWAL\nstuff";
  const auto scanned = scan_wal(foreign);
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().code(), util::StatusCode::kCorruptInput);
}

TEST(Wal, ValidHeaderShortBodyIsTypedAndTruncatable) {
  const std::string dir = fresh_dir("wal_torn");
  const std::string path = dir + "/journal.wal";
  WalWriter writer;
  ASSERT_TRUE(writer.open(path, 1).ok());
  ASSERT_TRUE(writer.append(WalRecordType::kWindow, "intact").ok());
  // Crash mid-append: the frame header lands, the body does not.
  {
    util::ScopedFault fault("durable.wal.append.mid",
                            {.action = util::FaultAction::kThrow});
    EXPECT_THROW(writer.append(WalRecordType::kWindow, "lost-forever"),
                 util::FaultInjectedError);
  }
  writer.close();

  // The scan names the damage offset and keeps the intact prefix.
  const auto scan = scan_wal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn);
  EXPECT_NE(scan->torn_reason.find("byte offset"), std::string::npos)
      << scan->torn_reason;
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, "intact");
}

TEST(Wal, ChecksumFlipEndsScanAtExactOffset) {
  const std::string dir = fresh_dir("wal_flip");
  const std::string path = dir + "/journal.wal";
  WalWriter writer;
  ASSERT_TRUE(writer.open(path, 1).ok());
  ASSERT_TRUE(writer.append(WalRecordType::kWindow, "first").ok());
  ASSERT_TRUE(writer.append(WalRecordType::kWindow, "second").ok());
  writer.close();

  std::string bytes = slurp(path);
  bytes[bytes.size() - 1] ^= 0x40;  // flip inside the second record's body
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  const auto scan = scan_wal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_NE(scan->torn_reason.find("checksum mismatch"), std::string::npos);
  EXPECT_NE(scan->torn_reason.find("byte offset"), std::string::npos);
}

// --- window codec ---------------------------------------------------------

TEST(WindowCodec, RoundTripsStacksAndSymbols) {
  const TrainedDetector& f = fixture();
  ASSERT_GE(f.benign.events.size(), 20u);
  const std::string payload = encode_window(f.benign.events.data(), 20);
  const auto decoded = decode_window(payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& a = f.benign.events[i];
    const auto& b = (*decoded)[i];
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.tid, b.tid);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.app_stack, b.app_stack);
    ASSERT_EQ(a.system_stack.size(), b.system_stack.size());
    for (std::size_t s = 0; s < a.system_stack.size(); ++s) {
      EXPECT_EQ(a.system_stack[s], b.system_stack[s]);
    }
  }

  // Truncation anywhere inside is a typed corrupt-input, never UB.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                payload.size() / 2, payload.size() - 1}) {
    const auto bad = decode_window(std::string_view(payload).substr(0, cut));
    EXPECT_FALSE(bad.ok()) << cut;
    EXPECT_EQ(bad.status().code(), util::StatusCode::kCorruptInput) << cut;
  }
}

// --- DurableStore ---------------------------------------------------------

DurableStore make_store(const std::string& name, std::size_t every = 1000) {
  DurableOptions options;
  options.dir = fresh_dir(name);
  options.checkpoint_every_appends = every;
  return DurableStore(options);
}

TEST(DurableStoreTest, CheckpointRecoverRoundTrip) {
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_roundtrip");
  ASSERT_TRUE(store.open().ok());

  CheckpointState state;
  state.detector = f.detector;
  state.pending_windows.push_back(
      DurableWindow{{f.benign.events.begin(), f.benign.events.begin() + 10}});
  state.pending_windows.push_back(
      DurableWindow{{f.benign.events.begin() + 10,
                     f.benign.events.begin() + 25}});
  state.accounting = {.ingested = 100, .processed = 90, .dropped = 6,
                      .quarantined = 4};
  ASSERT_TRUE(store.checkpoint(state).ok());

  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(recovered->snapshot_found);
  EXPECT_FALSE(recovered->torn_tail);
  ASSERT_NE(recovered->detector, nullptr);
  EXPECT_EQ(recovered->detector->scan(f.malicious).malicious_windows,
            f.detector->scan(f.malicious).malicious_windows);
  ASSERT_NE(recovered->detector->continual(), nullptr);
  ASSERT_EQ(recovered->pending_windows.size(), 2u);
  EXPECT_EQ(recovered->pending_windows[1].events.size(), 15u);
  EXPECT_EQ(recovered->accounting.ingested, 100u);
  EXPECT_EQ(recovered->accounting.ingested,
            recovered->accounting.processed + recovered->accounting.dropped +
                recovered->accounting.quarantined);
}

TEST(DurableStoreTest, JournalReplayAppliesWindowsRetrainsAndPromotions) {
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_replay");
  ASSERT_TRUE(store.open().ok());

  // No snapshot at all: recovery must still replay the journal.
  ASSERT_TRUE(store.journal_window(f.benign.events.data(), 8).ok());
  ASSERT_TRUE(store.journal_window(f.benign.events.data() + 8, 8).ok());
  auto r1 = store.recover();
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->snapshot_found);
  EXPECT_EQ(r1->detector, nullptr);
  EXPECT_EQ(r1->pending_windows.size(), 2u);
  EXPECT_EQ(r1->replayed, 2u);

  // A retrain record marks the drain point: windows journaled at or below
  // its boundary stop being pending. The promotion then carries the
  // candidate's full bytes.
  ASSERT_TRUE(store.journal_retrain(store.last_lsn(), true, 16, "").ok());
  ASSERT_TRUE(store.journal_promotion(*f.detector).ok());
  ASSERT_TRUE(store.journal_window(f.benign.events.data(), 5).ok());
  auto r2 = store.recover();
  ASSERT_TRUE(r2.ok());
  ASSERT_NE(r2->detector, nullptr);
  EXPECT_EQ(r2->detector->scan(f.malicious).malicious_windows,
            f.detector->scan(f.malicious).malicious_windows);
  EXPECT_EQ(r2->pending_windows.size(), 1u);
  EXPECT_EQ(r2->replayed, 5u);
}

TEST(DurableStoreTest, RetrainBoundaryKeepsWindowsJournaledDuringTraining) {
  // The drain boundary is captured when the accumulator is drained, but
  // the retrain record lands only after training. A window journaled in
  // between was NOT part of the drained set — replay must keep it pending
  // instead of sweeping it away with the drained ones.
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_drain_boundary");
  ASSERT_TRUE(store.open().ok());
  ASSERT_TRUE(store.journal_window(f.benign.events.data(), 8).ok());  // lsn 1
  const std::uint64_t boundary = store.last_lsn();  // drain happens here
  ASSERT_TRUE(store.journal_window(f.benign.events.data(), 6).ok());  // lsn 2
  ASSERT_TRUE(store.journal_retrain(boundary, true, 8, "").ok());     // lsn 3

  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  ASSERT_EQ(recovered->pending_windows.size(), 1u)
      << "the mid-training window must survive the drain marker";
  EXPECT_EQ(recovered->pending_windows[0].events.size(), 6u);
}

TEST(DurableStoreTest, LsnGuardSkipsRecordsAlreadyFolded) {
  // Crash between snapshot rename and journal truncate: the journal still
  // holds records the snapshot already folded. Replay must skip them.
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_lsn_guard");
  ASSERT_TRUE(store.open().ok());
  ASSERT_TRUE(store.journal_window(f.benign.events.data(), 8).ok());
  ASSERT_TRUE(store.journal_window(f.benign.events.data(), 8).ok());

  CheckpointState state;
  state.detector = f.detector;
  // The snapshot says: those two windows are already folded (as pending).
  state.pending_windows.push_back(
      DurableWindow{{f.benign.events.begin(), f.benign.events.begin() + 8}});
  state.pending_windows.push_back(
      DurableWindow{{f.benign.events.begin(), f.benign.events.begin() + 8}});
  {
    // Fail the checkpoint *after* the snapshot rename, *before* truncate.
    util::ScopedFault fault("durable.checkpoint.pre_truncate",
                            {.action = util::FaultAction::kError});
    EXPECT_FALSE(store.checkpoint(state).ok());
  }
  // Journal still holds both records...
  const auto journal = scan_wal(store.journal_path());
  ASSERT_TRUE(journal.ok());
  ASSERT_FALSE(journal->torn) << journal->torn_reason;
  ASSERT_EQ(journal->records.size(), 2u);
  // ...but replay skips them: exactly two pending windows, not four.
  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(recovered->snapshot_found);
  EXPECT_EQ(recovered->pending_windows.size(), 2u);
  EXPECT_EQ(recovered->replayed, 0u);
  EXPECT_EQ(recovered->skipped, 2u);
}

TEST(DurableStoreTest, TornJournalTailIsTruncatedNotFatal) {
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_torn");
  ASSERT_TRUE(store.open().ok());
  ASSERT_TRUE(store.journal_window(f.benign.events.data(), 8).ok());
  {
    util::ScopedFault fault("durable.wal.append.mid",
                            {.action = util::FaultAction::kThrow});
    EXPECT_THROW(store.journal_window(f.benign.events.data(), 8),
                 util::FaultInjectedError);
  }
  auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(recovered->torn_tail);
  EXPECT_EQ(recovered->pending_windows.size(), 1u);
  // The tail was physically dropped: a second recovery is clean.
  auto again = store.recover();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->torn_tail);
  EXPECT_EQ(again->pending_windows.size(), 1u);
}

TEST(DurableStoreTest, OpenTruncatesTornTailBeforeAppending) {
  // A crash mid-append leaves a torn tail. If the next process open()s and
  // journals before ever calling recover(), those appends must land after
  // the last good record — not behind garbage where no scan reaches them.
  const TrainedDetector& f = fixture();
  const std::string dir = fresh_dir("store_open_torn");
  {
    DurableOptions options;
    options.dir = dir;
    DurableStore store(options);
    ASSERT_TRUE(store.open().ok());
    ASSERT_TRUE(store.journal_window(f.benign.events.data(), 8).ok());
    util::ScopedFault fault("durable.wal.append.mid",
                            {.action = util::FaultAction::kThrow});
    EXPECT_THROW(store.journal_window(f.benign.events.data(), 8),
                 util::FaultInjectedError);
  }
  // "Restart": open() must truncate the torn tail, then append cleanly.
  DurableOptions options;
  options.dir = dir;
  DurableStore store(options);
  ASSERT_TRUE(store.open().ok());
  ASSERT_TRUE(store.journal_window(f.benign.events.data(), 4).ok());
  // Both the pre-crash record and the new one are reachable, and the
  // truncated tail is still reported by the recovery that follows.
  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(recovered->torn_tail);
  ASSERT_EQ(recovered->pending_windows.size(), 2u);
  EXPECT_EQ(recovered->pending_windows[1].events.size(), 4u);
  // ...but only once: the next recovery is clean.
  const auto again = store.recover();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->torn_tail);
}

TEST(Wal, FailedAppendRollsBackInsteadOfStrandingLaterRecords) {
  // A body-write failure (ENOSPC et al., injected here as an error at the
  // mid-append point) must not leave a partial record mid-file: later
  // appends would return OK but be unreachable to every scan. The writer
  // rolls the file back to the pre-append offset and stays usable.
  const std::string dir = fresh_dir("wal_failed_append");
  const std::string path = dir + "/journal.wal";
  WalWriter writer;
  ASSERT_TRUE(writer.open(path, 1).ok());
  ASSERT_TRUE(writer.append(WalRecordType::kWindow, "before").ok());
  {
    util::ScopedFault fault("durable.wal.append.mid",
                            {.action = util::FaultAction::kError});
    EXPECT_FALSE(writer.append(WalRecordType::kWindow, "doomed").ok());
  }
  // The failed record left no bytes behind; the next append is reachable.
  std::uint64_t lsn = 0;
  ASSERT_TRUE(writer.append(WalRecordType::kWindow, "after", &lsn).ok());
  EXPECT_EQ(lsn, 2u) << "the failed append must not consume an LSN";
  writer.close();
  const auto scan = scan_wal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn);
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[1].payload, "after");
}

TEST(DurableStoreTest, ConcurrentJournalersAndCheckpointsStayWellFramed) {
  // Worker taps journal from several threads while a poller
  // checkpoints: every record is two write()s and a checkpoint ends in a
  // truncate, so without the store's serialization this interleaves into
  // checksum garbage. After the storm the journal must scan clean and
  // recovery must succeed.
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_concurrent", /*every=*/1000);
  ASSERT_TRUE(store.open().ok());

#if defined(__SANITIZE_THREAD__)
  constexpr int kAppendsPerThread = 120;
#else
  constexpr int kAppendsPerThread = 60;
#endif
  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> appended{0};
  std::vector<std::thread> journalers;
  journalers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    journalers.emplace_back([&store, &appended, &f, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        const std::size_t n = 1 + static_cast<std::size_t>((t + i) % 8);
        if (store.journal_window(f.benign.events.data(), n).ok()) {
          appended.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread checkpointer([&store, &f] {
    for (int i = 0; i < 10; ++i) {
      CheckpointState state;
      state.detector = f.detector;
      EXPECT_TRUE(store.checkpoint(state).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& t : journalers) t.join();
  checkpointer.join();
  EXPECT_EQ(appended.load(), kThreads * kAppendsPerThread)
      << "no append may fail under contention";

  // Whatever interleaving happened, the surviving journal is well-framed
  // (the scan tears at any framing or checksum damage) and recovery
  // replays it without complaint.
  const auto scan = scan_wal(store.journal_path());
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn) << scan->torn_reason;
  const auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_FALSE(recovered->torn_tail);
}

TEST(DurableStoreTest, CorruptSnapshotIsTypedError) {
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_corrupt_snap");
  ASSERT_TRUE(store.open().ok());
  CheckpointState state;
  state.detector = f.detector;
  ASSERT_TRUE(store.checkpoint(state).ok());

  std::string bytes = slurp(store.snapshot_path());
  const std::size_t det = bytes.find("DETECTOR ");
  ASSERT_NE(det, std::string::npos);
  bytes[bytes.find('\n', det) + 40] ^= 0x01;  // flip inside detector blob
  std::ofstream(store.snapshot_path(), std::ios::binary | std::ios::trunc)
      << bytes;

  const auto recovered = store.recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), util::StatusCode::kCorruptInput);
  EXPECT_NE(recovered.status().message().find("byte offset"),
            std::string::npos)
      << recovered.status().message();
}

TEST(DurableStoreTest, ShouldCheckpointHonorsAppendCadence) {
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_cadence", /*every=*/3);
  ASSERT_TRUE(store.open().ok());
  EXPECT_FALSE(store.should_checkpoint());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.journal_window(f.benign.events.data(), 4).ok());
  }
  EXPECT_TRUE(store.should_checkpoint());
  CheckpointState state;
  state.detector = f.detector;
  ASSERT_TRUE(store.checkpoint(state).ok());
  EXPECT_FALSE(store.should_checkpoint());
  // The checkpoint truncated the journal back to bare magic.
  const auto scan = scan_wal(store.journal_path());
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn);
  EXPECT_TRUE(scan->records.empty());
}

// --- Drift records ---------------------------------------------------------

TEST(DurableStoreTest, DriftRecordsRoundTripThroughRecovery) {
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_drift");
  ASSERT_TRUE(store.open().ok());

  // The DRIFT blob is opaque to the store: whatever the checkpointer
  // serialized comes back verbatim from recover().
  CheckpointState state;
  state.detector = f.detector;
  state.drift = std::string("drift-monitor-state\x00with-nul", 28);
  ASSERT_TRUE(store.checkpoint(state).ok());

  // A zero-length batch is a no-op: no record, no LSN consumed.
  const std::uint64_t before = store.last_lsn();
  ASSERT_TRUE(store.journal_drift_batch(nullptr, 0).ok());
  EXPECT_EQ(store.last_lsn(), before);

  const DriftSample samples[] = {{0.5, 1}, {-0.7, -1}, {0.25, 1}};
  ASSERT_TRUE(store.journal_drift_batch(samples, 3).ok());
  std::uint64_t trigger_lsn = 0;
  ASSERT_TRUE(store.journal_drift_trigger(2, 1e-6, &trigger_lsn).ok());
  EXPECT_EQ(trigger_lsn, store.last_lsn());
  ASSERT_TRUE(store.journal_retrain(store.last_lsn(), true, 8, "").ok());

  const auto r = store.recover();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->drift, state.drift);
  // One op per sample, then the trigger, then the retrain consumption
  // marker — in journal order.
  ASSERT_EQ(r->drift_ops.size(), 5u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r->drift_ops[i].kind, DriftReplayOp::Kind::kObserve);
    EXPECT_DOUBLE_EQ(r->drift_ops[i].value, samples[i].value);
    EXPECT_EQ(r->drift_ops[i].label, samples[i].label);
  }
  EXPECT_EQ(r->drift_ops[3].kind, DriftReplayOp::Kind::kTrigger);
  EXPECT_EQ(r->drift_ops[4].kind, DriftReplayOp::Kind::kRetrain);
}

TEST(DurableStoreTest, SnapshotWithoutDriftBlobStaysLoadable) {
  // Drift-disabled deployments (and snapshots that predate drift) carry
  // no DRIFT section; recovery must come back empty-handed, not fail.
  const TrainedDetector& f = fixture();
  DurableStore store = make_store("store_no_drift");
  ASSERT_TRUE(store.open().ok());
  CheckpointState state;
  state.detector = f.detector;
  ASSERT_TRUE(store.checkpoint(state).ok());
  const auto r = store.recover();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->snapshot_found);
  ASSERT_NE(r->detector, nullptr);
  EXPECT_TRUE(r->drift.empty());
  EXPECT_TRUE(r->drift_ops.empty());
}

}  // namespace
}  // namespace leaps::durable
