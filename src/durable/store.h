// DurableStore — crash-safe persistence for a served profile.
//
// Two files in one directory own everything the deployment has learned:
//
//   snapshot.leaps   atomic v1 snapshot (temp → fsync → rename): last
//                    folded LSN, accounting baseline, the incumbent
//                    detector (embedded v3 bytes, CRC-framed), pending
//                    retrain windows, and the drift monitor's state
//   journal.wal      append-only WAL (durable/wal.h) of everything that
//                    happened since the snapshot
//
// Write path: the online subsystem journals admitted windows, retrain
// outcomes, promotions and drift observations as they happen; every
// checkpoint_every_appends appends (and on every promotion) the caller
// folds current state into a fresh snapshot and truncates the journal.
// A promotion record embeds the candidate's full serialized bytes, so a
// crash after the append but before the checkpoint still recovers the
// exact promoted detector. A rollback writes nothing: it leaves the
// incumbent as it was, and the retrain record before it already consumed
// the drained windows.
//
// Older snapshots and journals also carry rolled-back candidates (CAND
// blobs after the QUARANTINED count, kQuarantine records). Recovery
// checks their framing and drops them; the writer always writes
// `QUARANTINED 0`, so an older reader still loads a new snapshot.
//
// Recovery: load the last good snapshot (damage there is a typed
// PersistError — a corrupt snapshot is an operator problem, not something
// to silently cold-start over), scan the journal truncating a torn tail,
// drop records already folded (lsn ≤ snapshot LSN — the crash-between-
// rename-and-truncate case), and replay the rest in order. The result
// hands the caller the incumbent detector, the windows to re-observe, the
// accounting baseline, and the drift state.
//
// Thread-safety: every member serializes on one internal mutex, so
// journaling from worker threads (the server's window tap) is safe
// against the online manager's records and checkpoints — a WAL record is
// two write() calls and a checkpoint is a sync/snapshot/truncate sequence;
// neither may interleave. The mutex does NOT make a caller's state capture
// atomic with the checkpoint; OnlineManager holds its own tap fence across
// capture→checkpoint so nothing is journaled into the truncated gap.
//
// Exported metrics (all eager — zero and absent must differ):
//   leaps_durable_journal_appends_total / _bytes_total
//   leaps_durable_checkpoints_total
//   leaps_durable_recoveries_total
//   leaps_durable_torn_tail_truncations_total
//   leaps_durable_records_replayed_total
//   leaps_durable_recovery_duration_us (gauge)
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/persist.h"
#include "core/pipeline.h"
#include "durable/wal.h"
#include "obs/registry.h"
#include "trace/partition.h"
#include "util/status.h"

namespace leaps::durable {

struct DurableOptions {
  /// Directory holding snapshot.leaps + journal.wal (created on open()).
  std::string dir;
  /// Journal appends between automatic checkpoints (should_checkpoint()).
  std::size_t checkpoint_every_appends = 256;
};

/// Terminal-state accounting baseline carried across restarts. Captured at
/// checkpoint as ingested := processed + dropped + quarantined — events
/// still in flight at the crash never reach a terminal state, so counting
/// them ingested would break the accounting identity forever.
struct AccountingBaseline {
  std::uint64_t ingested = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t quarantined = 0;
};

/// One window awaiting (re-)observation by the online accumulator.
struct DurableWindow {
  std::vector<trace::PartitionedEvent> events;
};

/// One drift observation: a scored window's decision value and verdict.
struct DriftSample {
  double value = 0.0;
  int label = 0;  // +1 benign / -1 malicious
};

/// One replayed drift-relevant journal record, in journal order. The
/// caller folds these into its DriftMonitor after restoring the snapshot
/// blob: kObserve re-observes a value, kTrigger re-latches a fired
/// trigger, kRetrain marks the consumption point (a pending trigger at a
/// retrain record was consumed by that retrain pre-crash).
struct DriftReplayOp {
  enum class Kind : std::uint8_t { kObserve, kTrigger, kRetrain };
  Kind kind = Kind::kObserve;
  double value = 0.0;  // kObserve only
  int label = 0;       // kObserve only
};

/// Everything checkpoint() folds into a snapshot.
struct CheckpointState {
  std::shared_ptr<const core::Detector> detector;  // incumbent (required)
  std::vector<DurableWindow> pending_windows;
  AccountingBaseline accounting;
  /// Opaque serialized DriftMonitor state; empty = drift disabled (the
  /// snapshot then carries no DRIFT blob and stays loadable by readers
  /// that never heard of drift).
  std::string drift;
};

/// Everything recover() reconstructs.
struct RecoveredState {
  bool snapshot_found = false;
  std::shared_ptr<const core::Detector> detector;  // null → cold start
  std::vector<DurableWindow> pending_windows;      // snapshot + journal
  AccountingBaseline accounting;
  /// Serialized DriftMonitor state from the snapshot's DRIFT blob (empty
  /// when the snapshot predates drift or drift was disabled).
  std::string drift;
  /// Drift journal records after the snapshot, in journal order.
  std::vector<DriftReplayOp> drift_ops;
  std::uint64_t last_lsn = 0;        // highest LSN seen anywhere
  std::uint64_t replayed = 0;        // journal records applied
  std::uint64_t skipped = 0;         // records at/below the snapshot LSN
  bool torn_tail = false;            // journal tail was truncated
  std::string torn_reason;
};

// Window payload codec (also used by tests and the corruption corpus).
std::string encode_window(const trace::PartitionedEvent* events,
                          std::size_t count);
util::StatusOr<std::vector<trace::PartitionedEvent>> decode_window(
    std::string_view payload);

class DurableStore {
 public:
  explicit DurableStore(DurableOptions options);

  /// Creates the directory if needed and opens the journal for append,
  /// seeding the LSN counter past everything already on disk. A torn
  /// journal tail is physically truncated here (counted, and reported by
  /// the next recover()) so the writer can never append records behind
  /// garbage where no scan would reach them. recover() may be called
  /// before or after open(); journaling requires open().
  util::Status open();

  std::string snapshot_path() const { return options_.dir + "/snapshot.leaps"; }
  std::string journal_path() const { return options_.dir + "/journal.wal"; }

  // --- journaling (require open()) --------------------------------------
  util::Status journal_window(const trace::PartitionedEvent* events,
                              std::size_t count);
  /// `drain_lsn` is last_lsn() captured at the instant the retrain drained
  /// the accumulator (under the caller's tap fence, so every journaled
  /// window at or below it is provably in the drained set). Replay drops
  /// exactly the pending windows journaled at or below `drain_lsn` —
  /// windows journaled while the retrain was still training stay pending.
  util::Status journal_retrain(std::uint64_t drain_lsn, bool ok,
                               std::uint64_t new_samples,
                               const std::string& detail);
  util::Status journal_promotion(const core::Detector& candidate);
  /// Decision values the drift monitor observed since the last flush
  /// (batched — one record per manager poll, not per window).
  util::Status journal_drift_batch(const DriftSample* samples,
                                   std::size_t count);
  /// A drift trigger fired; `assigned_lsn` (when non-null) receives the
  /// record's LSN — the drift drill asserts a recovered run re-fires at
  /// the same one.
  util::Status journal_drift_trigger(std::uint32_t generation,
                                     double p_value,
                                     std::uint64_t* assigned_lsn = nullptr);

  /// Highest LSN assigned so far (0 when none yet). Requires open().
  std::uint64_t last_lsn() const;

  /// True once enough appends have accumulated since the last checkpoint.
  bool should_checkpoint() const;

  /// Folds `state` into a fresh atomic snapshot, then truncates the
  /// journal. Fault point "durable.checkpoint.pre_truncate" sits between
  /// the two — the crash window the LSN guard exists for.
  util::Status checkpoint(const CheckpointState& state);

  /// Loads snapshot + journal into a RecoveredState. Corrupt snapshots
  /// and foreign journal magic are errors; a torn journal tail is
  /// truncated, counted, and reported in the result.
  util::StatusOr<RecoveredState> recover();

  const DurableOptions& options() const { return options_; }

 private:
  struct Metrics {
    obs::Counter& journal_appends;
    obs::Counter& journal_bytes;
    obs::Counter& checkpoints;
    obs::Counter& recoveries;
    obs::Counter& torn_truncations;
    obs::Counter& records_replayed;
    obs::Gauge& recovery_duration_us;
    Metrics();
  };

  util::Status journal(WalRecordType type, std::string_view payload,
                       std::uint64_t* assigned_lsn = nullptr);
  util::Status write_snapshot(const CheckpointState& state,
                              std::uint64_t lsn);

  const DurableOptions options_;
  Metrics metrics_;
  /// Serializes journal appends (worker taps and the online manager),
  /// checkpoints, open() and recover() against each other.
  mutable std::mutex mu_;
  WalWriter wal_;                               // guarded by mu_
  std::uint64_t appends_since_checkpoint_ = 0;  // guarded by mu_
  bool open_truncated_tail_ = false;            // guarded by mu_
  std::string open_torn_reason_;                // guarded by mu_
};

}  // namespace leaps::durable
