// Write-ahead log for the online-learning subsystem.
//
// Everything the server learns between snapshots — admitted benign
// windows, retrain outcomes, promotions, drift observations — is appended
// here *as it happens*, so a kill -9 at any instant loses at most the
// record being written. Checkpoints (durable/store.h) fold the journal
// into an atomic snapshot and truncate it.
//
// On-disk layout (little-endian, append-only):
//
//   LEAPSWAL1\n                                   10-byte magic
//   [u32 body_len][u32 crc32c(body)] body         repeated
//     body = [u8 type][u64 lsn][payload]
//
// Every record carries a monotonically increasing LSN. The snapshot
// records the LSN it folded up to; replay skips records at or below it,
// which is what makes a crash *between* snapshot rename and journal
// truncate harmless — the stale records are simply skipped, never
// double-applied.
//
// Torn-tail policy: the writer lands the 8-byte frame header with its own
// write() before the body (fault point "durable.wal.append.mid" sits
// between them), so a crash mid-append leaves a record with a valid
// header and a short body. The reader detects that — and any checksum or
// framing damage — at an exact byte offset. Recovery truncates the tail
// and keeps every record before it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace leaps::durable {

inline constexpr std::string_view kWalMagic = "LEAPSWAL1\n";

enum class WalRecordType : std::uint8_t {
  kWindow = 1,      // admitted benign window (encoded PartitionedEvents)
  kRetrain = 2,     // retrain drain marker: payload leads with the u64
                    // boundary LSN (windows ≤ it were consumed), then the
                    // informational outcome
  kPromotion = 3,   // candidate promoted: payload = v3 detector bytes
  kQuarantine = 4,  // reserved: older writers journaled a rolled-back
                    // candidate's v3 bytes; replay skips it
  kDriftBatch = 5,  // decision values observed by the drift monitor since
                    // the last flush: [u32 n] n × ([f64 value][i8 label])
  kDriftTrigger = 6,  // drift retrain trigger fired: [u32 generation]
                      // [f64 p_value] (informational; replay re-latches)
};

struct WalRecord {
  WalRecordType type = WalRecordType::kWindow;
  std::uint64_t lsn = 0;
  std::string payload;
};

/// Result of scanning a journal in recovery (truncate-tail) mode.
struct WalScan {
  std::vector<WalRecord> records;  // every record before the damage
  bool torn = false;               // a damaged tail was found
  std::uint64_t torn_offset = 0;   // byte offset where the damage starts
  std::string torn_reason;         // human-readable, includes the offset
};

/// Appends records to `path`, creating it (with magic) when absent. Uses
/// raw unbuffered writes so what append() returns OK for has reached the
/// kernel — a process kill cannot un-write it.
///
/// Not internally synchronized: callers (DurableStore) must serialize
/// append()/sync()/truncate() — a record is two write() calls, and
/// concurrent appends would interleave frames into checksum garbage.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating if needed) and seeks to the end. `next_lsn` seeds the
  /// LSN counter; pass 1 + the highest LSN seen by recovery.
  util::Status open(const std::string& path, std::uint64_t next_lsn);

  /// Appends one record, assigning it the next LSN (returned through
  /// `assigned_lsn` when non-null). Fault point "durable.wal.append.mid"
  /// fires after the frame header is on disk, before the body; an injected
  /// `error` there behaves like a failed body write, `throw`/`exit`
  /// simulate a crash (the torn record stays for recovery to truncate).
  ///
  /// A failed write rolls the file back to the pre-append offset: a
  /// partial record mid-file would make every later append unreachable
  /// (scans stop at the damage) while still returning OK. If the rollback
  /// itself fails the writer is poisoned — subsequent appends refuse
  /// rather than silently land records recovery can never read. truncate()
  /// discards the damage and lifts the poisoning.
  util::Status append(WalRecordType type, std::string_view payload,
                      std::uint64_t* assigned_lsn = nullptr);

  /// fsync(2) the journal (checkpoint prologue; appends do not fsync).
  util::Status sync();

  /// Truncates the journal back to the bare magic (checkpoint epilogue).
  /// The LSN counter keeps counting — LSNs never repeat within a store.
  util::Status truncate();

  bool is_open() const { return fd_ >= 0; }
  std::uint64_t next_lsn() const { return next_lsn_; }
  std::uint64_t appends() const { return appends_; }
  const std::string& path() const { return path_; }
  void close();

 private:
  util::Status rolled_back(util::Status status, ::off_t start);

  int fd_ = -1;
  std::string path_;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t appends_ = 0;
  bool failed_ = false;  // torn record on disk that rollback couldn't remove
};

/// Scans the journal at `path` in recovery mode: a damaged tail (short
/// header, short body, checksum mismatch, non-monotonic LSN) ends the scan
/// at that point with `torn` set and the exact byte offset; records before
/// it are returned. A missing file is an empty, untorn scan. A bad magic
/// is kCorruptInput — that is not a torn tail, the file is not ours.
util::StatusOr<WalScan> scan_wal(const std::string& path);

}  // namespace leaps::durable
