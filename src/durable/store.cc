#include "durable/store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/fault.h"

namespace leaps::durable {

namespace {

constexpr const char* kSnapshotMagic = "LEAPS-SNAPSHOT v1";
// Caps an attacker-controllable count/length before the allocation it sizes.
constexpr std::size_t kMaxBlobBytes = std::size_t{256} << 20;
constexpr std::size_t kMaxWindowEvents = 1u << 20;
constexpr std::size_t kMaxStackFrames = 1u << 16;
constexpr std::size_t kMaxSymbolBytes = 1u << 16;

// The smallest encoding of a window event (no frames) and of a system
// frame (empty names): the floors ByteReader::count() checks counts against.
constexpr std::size_t kMinEventBytes = 8 + 4 + 1 + 4 + 4;
constexpr std::size_t kMinFrameBytes = 8 + 4 + 4;

using util::put_bytes;
using util::put_f64;
using util::put_u32;
using util::put_u64;
using util::put_u8;

std::string detector_bytes(const core::Detector& detector) {
  std::ostringstream os;
  core::save_detector(detector, os);
  return std::move(os).str();
}

std::shared_ptr<const core::Detector> detector_from_bytes(
    const std::string& bytes) {
  std::istringstream is(bytes);
  return std::make_shared<const core::Detector>(core::load_detector(is));
}

void write_blob(std::ostream& os, const char* kind,
                const std::string& payload) {
  util::write_framed(os, kind, payload);
  os << '\n';
}

/// Parses everything after the magic line of a snapshot. Throws
/// core::PersistError (with byte offsets for blob damage) on any defect.
struct SnapshotData {
  std::uint64_t lsn = 0;
  AccountingBaseline accounting;
  std::shared_ptr<const core::Detector> detector;
  std::vector<DurableWindow> windows;
  std::string drift;  // empty: no DRIFT blob (pre-drift snapshot)
};

/// Reads a blob whose header line has already been consumed (the caller
/// peeked it to dispatch on the kind keyword).
std::string read_blob_body(std::istream& is, const std::string& kind,
                           const std::string& line,
                           std::size_t line_offset) {
  std::istringstream header(line);
  std::string got_kind;
  unsigned long long nbytes = 0;
  std::string crc_hex;
  if (!(header >> got_kind >> nbytes >> crc_hex) || got_kind != kind) {
    throw core::PersistError("snapshot: expected " + kind +
                             " header at byte offset " +
                             std::to_string(line_offset) + ", got '" + line +
                             "'");
  }
  if (nbytes > kMaxBlobBytes) {
    throw core::PersistError("snapshot: implausible " + kind + " size at " +
                             "byte offset " + std::to_string(line_offset));
  }
  util::StatusOr<std::string> blob = util::read_framed(is, nbytes, crc_hex);
  if (!blob.ok()) {
    throw core::PersistError("snapshot: " + kind + " blob " +
                             blob.status().message());
  }
  if (is.get() != '\n') {
    throw core::PersistError("snapshot: missing newline after " + kind +
                             " blob at byte offset " +
                             std::to_string(util::stream_offset(is)));
  }
  return *std::move(blob);
}

std::string read_blob(std::istream& is, const std::string& kind) {
  const std::size_t line_offset = util::stream_offset(is);
  std::string line;
  if (!std::getline(is, line)) {
    throw core::PersistError("snapshot truncated: missing " + kind +
                             " header at byte offset " +
                             std::to_string(line_offset));
  }
  return read_blob_body(is, kind, line, line_offset);
}

SnapshotData load_snapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw core::PersistError("cannot open snapshot: " + path);
  std::string line;
  if (!std::getline(is, line) || line != kSnapshotMagic) {
    throw core::PersistError("bad snapshot magic in " + path + ": '" + line +
                             "'");
  }
  SnapshotData data;
  if (!std::getline(is, line)) {
    throw core::PersistError("snapshot truncated: missing LSN line");
  }
  {
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw >> data.lsn) || kw != "LSN") {
      throw core::PersistError("snapshot: bad LSN line '" + line + "'");
    }
  }
  if (!std::getline(is, line)) {
    throw core::PersistError("snapshot truncated: missing ACCOUNTING line");
  }
  {
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw >> data.accounting.ingested >> data.accounting.processed >>
          data.accounting.dropped >> data.accounting.quarantined) ||
        kw != "ACCOUNTING") {
      throw core::PersistError("snapshot: bad ACCOUNTING line '" + line +
                               "'");
    }
  }
  data.detector = detector_from_bytes(read_blob(is, "DETECTOR"));

  if (!std::getline(is, line)) {
    throw core::PersistError("snapshot truncated: missing QUARANTINED line");
  }
  unsigned long long candidates = 0;
  {
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw >> candidates) || kw != "QUARANTINED") {
      throw core::PersistError("snapshot: bad QUARANTINED line '" + line +
                               "'");
    }
  }
  // Rolled-back candidates of older snapshots: framing-checked, then
  // dropped unparsed. Each blob costs input bytes, so the count needs no
  // cap of its own.
  for (unsigned long long i = 0; i < candidates; ++i) {
    (void)read_blob(is, "CAND");
  }

  if (!std::getline(is, line)) {
    throw core::PersistError("snapshot truncated: missing PENDING line");
  }
  unsigned long long pending = 0;
  {
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw >> pending) || kw != "PENDING" || pending > (1u << 22)) {
      throw core::PersistError("snapshot: bad PENDING line '" + line + "'");
    }
  }
  for (unsigned long long i = 0; i < pending; ++i) {
    const std::string payload = read_blob(is, "WINDOW");
    auto events = decode_window(payload);
    if (!events.ok()) {
      throw core::PersistError("snapshot: undecodable WINDOW blob " +
                               std::to_string(i) + ": " +
                               events.status().message());
    }
    data.windows.push_back(DurableWindow{*std::move(events)});
  }
  // The DRIFT blob is optional (absent when drift is disabled, and from
  // snapshots written before drift existed): peek the next line and
  // dispatch on its keyword.
  std::size_t end_offset = util::stream_offset(is);
  if (!std::getline(is, line)) {
    throw core::PersistError("snapshot truncated: missing END at byte "
                             "offset " +
                             std::to_string(end_offset));
  }
  if (line.rfind("DRIFT ", 0) == 0) {
    data.drift = read_blob_body(is, "DRIFT", line, end_offset);
    end_offset = util::stream_offset(is);
    if (!std::getline(is, line)) {
      throw core::PersistError("snapshot truncated: missing END at byte "
                               "offset " +
                               std::to_string(end_offset));
    }
  }
  if (line != "END") {
    throw core::PersistError("snapshot truncated: missing END at byte "
                             "offset " +
                             std::to_string(end_offset));
  }
  return data;
}

/// Best-effort LSN peek for open()'s counter seeding; 0 when unreadable
/// (recover() does the real validation).
std::uint64_t peek_snapshot_lsn(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return 0;
  std::string line;
  if (!std::getline(is, line) || line != kSnapshotMagic) return 0;
  if (!std::getline(is, line)) return 0;
  std::istringstream ls(line);
  std::string kw;
  std::uint64_t lsn = 0;
  if (!(ls >> kw >> lsn) || kw != "LSN") return 0;
  return lsn;
}

bool file_exists(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

std::string encode_window(const trace::PartitionedEvent* events,
                          std::size_t count) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const trace::PartitionedEvent& e = events[i];
    put_u64(out, e.seq);
    put_u32(out, e.tid);
    put_u8(out, static_cast<std::uint8_t>(e.type));
    put_u32(out, static_cast<std::uint32_t>(e.app_stack.size()));
    for (const std::uint64_t addr : e.app_stack) put_u64(out, addr);
    put_u32(out, static_cast<std::uint32_t>(e.system_stack.size()));
    for (const trace::StackFrame& f : e.system_stack) {
      put_u64(out, f.address);
      put_bytes(out, f.module);
      put_bytes(out, f.function);
    }
  }
  return out;
}

util::StatusOr<std::vector<trace::PartitionedEvent>> decode_window(
    std::string_view payload) {
  util::ByteReader r(payload);
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxWindowEvents || !r.count(count, kMinEventBytes)) {
    return util::corrupt_input("window payload: bad event count");
  }
  std::vector<trace::PartitionedEvent> events;
  events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    trace::PartitionedEvent e;
    e.seq = r.u64();
    e.tid = r.u32();
    const std::uint8_t type = r.u8();
    const std::uint32_t app_n = r.u32();
    if (!r.ok() || type >= trace::kEventTypeCount ||
        app_n > kMaxStackFrames) {
      return util::corrupt_input("window payload: bad event " +
                                 std::to_string(i));
    }
    e.type = static_cast<trace::EventType>(type);
    if (!r.count(app_n, 8)) {
      return util::corrupt_input("window payload: truncated app stack");
    }
    e.app_stack.resize(app_n);
    for (std::uint64_t& addr : e.app_stack) addr = r.u64();
    const std::uint32_t sys_n = r.u32();
    if (!r.ok() || sys_n > kMaxStackFrames ||
        !r.count(sys_n, kMinFrameBytes)) {
      return util::corrupt_input("window payload: bad system stack count");
    }
    e.system_stack.resize(sys_n);
    for (trace::StackFrame& f : e.system_stack) {
      f.address = r.u64();
      f.module = r.bytes(kMaxSymbolBytes);
      f.function = r.bytes(kMaxSymbolBytes);
    }
    if (!r.ok()) {
      return util::corrupt_input("window payload: truncated system stack");
    }
    events.push_back(std::move(e));
  }
  if (!r.done()) {
    return util::corrupt_input("window payload: trailing bytes");
  }
  return events;
}

DurableStore::Metrics::Metrics()
    : journal_appends(obs::MetricRegistry::global().counter(
          "leaps_durable_journal_appends_total",
          "records appended to the online-state WAL")),
      journal_bytes(obs::MetricRegistry::global().counter(
          "leaps_durable_journal_bytes_total",
          "payload bytes appended to the online-state WAL")),
      checkpoints(obs::MetricRegistry::global().counter(
          "leaps_durable_checkpoints_total",
          "journal-folding atomic snapshot checkpoints")),
      recoveries(obs::MetricRegistry::global().counter(
          "leaps_durable_recoveries_total",
          "successful snapshot+journal recoveries")),
      torn_truncations(obs::MetricRegistry::global().counter(
          "leaps_durable_torn_tail_truncations_total",
          "journal tails truncated during recovery (crash mid-append)")),
      records_replayed(obs::MetricRegistry::global().counter(
          "leaps_durable_records_replayed_total",
          "journal records replayed during recovery")),
      recovery_duration_us(obs::MetricRegistry::global().gauge(
          "leaps_durable_recovery_duration_us",
          "wall time of the most recent recovery, microseconds")) {}

DurableStore::DurableStore(DurableOptions options)
    : options_(std::move(options)) {}

util::Status DurableStore::open() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (options_.dir.empty()) {
    return util::invalid_argument_error("DurableOptions.dir is empty");
  }
  if (::mkdir(options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return util::unavailable("mkdir " + options_.dir + ": " +
                             std::strerror(errno));
  }
  // Seed the LSN counter past everything durable: the snapshot's fold
  // point and any journal records after it.
  std::uint64_t last = peek_snapshot_lsn(snapshot_path());
  auto scan = scan_wal(journal_path());
  if (!scan.ok()) return scan.status();  // foreign magic: not our journal
  if (scan->torn) {
    // Drop the torn tail before the writer opens: the scanner stops at
    // the damage, so anything appended after it could never be recovered.
    if (::truncate(journal_path().c_str(),
                   static_cast<::off_t>(scan->torn_offset)) != 0) {
      return util::unavailable("truncate " + journal_path() + ": " +
                               std::strerror(errno));
    }
    metrics_.torn_truncations.inc();
    // recover() may legitimately run after open(); remember the tail so
    // it still gets reported (but not double-counted) there.
    open_truncated_tail_ = true;
    open_torn_reason_ = scan->torn_reason;
  }
  if (!scan->records.empty()) {
    last = std::max(last, scan->records.back().lsn);
  }
  return wal_.open(journal_path(), last + 1);
}

util::Status DurableStore::journal(WalRecordType type,
                                   std::string_view payload,
                                   std::uint64_t* assigned_lsn) {
  const std::lock_guard<std::mutex> lock(mu_);
  const util::Status status = wal_.append(type, payload, assigned_lsn);
  if (!status.ok()) return status;
  metrics_.journal_appends.inc();
  metrics_.journal_bytes.inc(payload.size());
  ++appends_since_checkpoint_;
  return util::ok_status();
}

std::uint64_t DurableStore::last_lsn() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return wal_.is_open() ? wal_.next_lsn() - 1 : 0;
}

util::Status DurableStore::journal_window(
    const trace::PartitionedEvent* events, std::size_t count) {
  return journal(WalRecordType::kWindow, encode_window(events, count));
}

util::Status DurableStore::journal_retrain(std::uint64_t drain_lsn, bool ok,
                                           std::uint64_t new_samples,
                                           const std::string& detail) {
  std::string payload;
  put_u64(payload, drain_lsn);
  put_u8(payload, ok ? 1 : 0);
  put_u64(payload, new_samples);
  put_bytes(payload, detail);
  return journal(WalRecordType::kRetrain, payload);
}

util::Status DurableStore::journal_promotion(
    const core::Detector& candidate) {
  return journal(WalRecordType::kPromotion, detector_bytes(candidate));
}

util::Status DurableStore::journal_drift_batch(const DriftSample* samples,
                                               std::size_t count) {
  if (count == 0) return util::ok_status();
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    put_f64(payload, samples[i].value);
    put_u8(payload, static_cast<std::uint8_t>(samples[i].label));
  }
  return journal(WalRecordType::kDriftBatch, payload);
}

util::Status DurableStore::journal_drift_trigger(
    std::uint32_t generation, double p_value, std::uint64_t* assigned_lsn) {
  std::string payload;
  put_u32(payload, generation);
  put_f64(payload, p_value);
  return journal(WalRecordType::kDriftTrigger, payload, assigned_lsn);
}

bool DurableStore::should_checkpoint() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return options_.checkpoint_every_appends > 0 &&
         appends_since_checkpoint_ >= options_.checkpoint_every_appends;
}

util::Status DurableStore::write_snapshot(const CheckpointState& state,
                                          std::uint64_t lsn) {
  return util::atomic_write_file(snapshot_path(), [&](std::ostream& os) {
    os << kSnapshotMagic << '\n';
    os << "LSN " << lsn << '\n';
    os << "ACCOUNTING " << state.accounting.ingested << ' '
       << state.accounting.processed << ' ' << state.accounting.dropped
       << ' ' << state.accounting.quarantined << '\n';
    write_blob(os, "DETECTOR", detector_bytes(*state.detector));
    os << "QUARANTINED 0\n";  // older readers expect the count line
    os << "PENDING " << state.pending_windows.size() << '\n';
    for (const DurableWindow& window : state.pending_windows) {
      write_blob(os, "WINDOW",
                 encode_window(window.events.data(), window.events.size()));
    }
    if (!state.drift.empty()) write_blob(os, "DRIFT", state.drift);
    os << "END\n";
  });
}

util::Status DurableStore::checkpoint(const CheckpointState& state) {
  if (state.detector == nullptr) {
    return util::invalid_argument_error("checkpoint without a detector");
  }
  // Held across sync→snapshot→truncate: an append slipping in after the
  // fold LSN was taken would be truncated without ever being folded.
  const std::lock_guard<std::mutex> lock(mu_);
  if (!wal_.is_open()) return util::internal_error("store not open");
  // Everything journaled so far folds into this snapshot; records at or
  // below this LSN are skipped on replay.
  const std::uint64_t lsn = wal_.next_lsn() - 1;
  util::Status status = wal_.sync();
  if (!status.ok()) return status;
  status = write_snapshot(state, lsn);
  if (!status.ok()) return status;
  // The snapshot is durable; the journal still holds the folded records.
  // A crash here is exactly what the LSN guard makes harmless.
  LEAPS_FAULT_POINT_STATUS("durable.checkpoint.pre_truncate");
  status = wal_.truncate();
  if (!status.ok()) return status;
  appends_since_checkpoint_ = 0;
  metrics_.checkpoints.inc();
  return util::ok_status();
}

util::StatusOr<RecoveredState> DurableStore::recover() {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto start = std::chrono::steady_clock::now();
  RecoveredState out;

  // Pending windows carry the LSN they were journaled (or folded) at, so
  // a retrain record's drain boundary can clear exactly the windows the
  // retrain consumed. Snapshot windows were folded at the snapshot LSN.
  std::vector<std::pair<std::uint64_t, DurableWindow>> pending;

  if (file_exists(snapshot_path())) {
    try {
      SnapshotData snap = load_snapshot(snapshot_path());
      out.snapshot_found = true;
      out.detector = std::move(snap.detector);
      for (DurableWindow& window : snap.windows) {
        pending.emplace_back(snap.lsn, std::move(window));
      }
      out.accounting = snap.accounting;
      out.drift = std::move(snap.drift);
      out.last_lsn = snap.lsn;
    } catch (const core::PersistError& e) {
      return util::corrupt_input(e.what());
    }
  }

  auto scan = scan_wal(journal_path());
  if (!scan.ok()) return scan.status();
  if (scan->torn) {
    out.torn_tail = true;
    out.torn_reason = scan->torn_reason;
    metrics_.torn_truncations.inc();
    // Physically drop the tail so a reopened writer appends after the
    // last good record instead of after garbage.
    if (::truncate(journal_path().c_str(),
                   static_cast<::off_t>(scan->torn_offset)) != 0) {
      return util::unavailable("truncate " + journal_path() + ": " +
                               std::strerror(errno));
    }
  } else if (open_truncated_tail_) {
    // open() already dropped (and counted) a torn tail; report it on the
    // recovery that follows, once.
    out.torn_tail = true;
    out.torn_reason = open_torn_reason_;
    open_truncated_tail_ = false;
  }

  for (WalRecord& record : scan->records) {
    if (record.lsn <= out.last_lsn && out.snapshot_found) {
      ++out.skipped;  // folded into the snapshot already
      continue;
    }
    out.last_lsn = std::max(out.last_lsn, record.lsn);
    switch (record.type) {
      case WalRecordType::kWindow: {
        auto events = decode_window(record.payload);
        if (!events.ok()) {
          return util::corrupt_input("WAL window record (lsn " +
                                     std::to_string(record.lsn) +
                                     "): " + events.status().message());
        }
        pending.emplace_back(record.lsn, DurableWindow{*std::move(events)});
        break;
      }
      case WalRecordType::kRetrain: {
        // The retrain drained every window journaled at or below its
        // boundary into the candidate; those must not be re-observed as
        // still pending. Windows journaled while the retrain was training
        // (boundary < lsn < this record) were not drained — keep them.
        util::ByteReader r(record.payload);
        const std::uint64_t boundary = r.u64();
        if (!r.ok()) {
          return util::corrupt_input("WAL retrain record (lsn " +
                                     std::to_string(record.lsn) +
                                     "): short payload");
        }
        std::erase_if(pending, [boundary](const auto& p) {
          return p.first <= boundary;
        });
        // The retrain is also the consumption point of any drift trigger
        // that fired before it (the manager consumes before draining).
        out.drift_ops.push_back(
            DriftReplayOp{DriftReplayOp::Kind::kRetrain, 0.0, 0});
        break;
      }
      case WalRecordType::kDriftBatch: {
        util::ByteReader r(record.payload);
        const std::uint32_t n = r.u32();
        if (!r.ok() || n > (1u << 20)) {
          return util::corrupt_input("WAL drift batch (lsn " +
                                     std::to_string(record.lsn) +
                                     "): bad sample count");
        }
        for (std::uint32_t i = 0; i < n; ++i) {
          DriftReplayOp op;
          op.kind = DriftReplayOp::Kind::kObserve;
          op.value = r.f64();
          op.label = static_cast<int>(static_cast<std::int8_t>(r.u8()));
          if (!r.ok()) {
            return util::corrupt_input("WAL drift batch (lsn " +
                                       std::to_string(record.lsn) +
                                       "): truncated sample");
          }
          out.drift_ops.push_back(op);
        }
        if (!r.done()) {
          return util::corrupt_input("WAL drift batch (lsn " +
                                     std::to_string(record.lsn) +
                                     "): trailing bytes");
        }
        break;
      }
      case WalRecordType::kDriftTrigger:
        out.drift_ops.push_back(
            DriftReplayOp{DriftReplayOp::Kind::kTrigger, 0.0, 0});
        break;
      case WalRecordType::kPromotion:
        try {
          out.detector = detector_from_bytes(record.payload);
        } catch (const core::PersistError& e) {
          return util::corrupt_input("WAL promotion record (lsn " +
                                     std::to_string(record.lsn) +
                                     "): " + e.what());
        }
        break;
      case WalRecordType::kQuarantine:
        break;  // an older writer's rolled-back candidate: nothing to rebuild
      default:
        return util::corrupt_input("unknown WAL record type " +
                                   std::to_string(static_cast<int>(
                                       record.type)) +
                                   " at lsn " + std::to_string(record.lsn));
    }
    ++out.replayed;
  }
  out.pending_windows.reserve(pending.size());
  for (auto& [lsn, window] : pending) {
    out.pending_windows.push_back(std::move(window));
  }

  metrics_.records_replayed.inc(out.replayed);
  metrics_.recoveries.inc();
  metrics_.recovery_duration_us.set(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return out;
}

}  // namespace leaps::durable
