#include "durable/store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "util/atomic_file.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace leaps::durable {

namespace {

constexpr const char* kSnapshotMagic = "LEAPS-SNAPSHOT v1";
// Caps an attacker-controllable count/length before the allocation it sizes.
constexpr std::size_t kMaxBlobBytes = std::size_t{256} << 20;
constexpr std::size_t kMaxWindowEvents = 1u << 20;
constexpr std::size_t kMaxStackFrames = 1u << 16;
constexpr std::size_t kMaxSymbolBytes = 1u << 16;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t raw;
  std::memcpy(&raw, &v, sizeof raw);
  put_u64(out, raw);
}

/// Bounds-checked little-endian cursor over a window payload.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(bytes_[pos_ + i]);
    }
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(bytes_[pos_ + i]);
    }
    pos_ += 8;
    return true;
  }
  bool f64(double& v) {
    std::uint64_t raw = 0;
    if (!u64(raw)) return false;
    std::memcpy(&v, &raw, sizeof v);
    return true;
  }
  bool str(std::string& v, std::size_t max_len) {
    std::uint32_t len = 0;
    if (!u32(len) || len > max_len || pos_ + len > bytes_.size()) {
      return false;
    }
    v.assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

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
  os << kind << ' ' << payload.size() << ' ' << std::hex << std::setw(8)
     << std::setfill('0') << util::crc32c(payload) << std::dec
     << std::setfill(' ') << '\n'
     << payload << '\n';
}

/// Parses everything after the magic line of a snapshot. Throws
/// core::PersistError (with byte offsets for blob damage) on any defect.
struct SnapshotData {
  std::uint64_t lsn = 0;
  AccountingBaseline accounting;
  std::shared_ptr<const core::Detector> detector;
  std::vector<std::shared_ptr<const core::Detector>> quarantined;
  std::vector<DurableWindow> windows;
  std::string drift;  // empty: no DRIFT blob (pre-drift snapshot)
};

std::size_t offset_of(std::istream& is) {
  const std::streampos pos = is.tellg();
  return pos < 0 ? 0 : static_cast<std::size_t>(pos);
}

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
  std::size_t crc_len = 0;
  unsigned long stored_crc = 0;
  try {
    stored_crc = std::stoul(crc_hex, &crc_len, 16);
  } catch (const std::logic_error&) {
    crc_len = 0;
  }
  if (crc_len != crc_hex.size() || crc_hex.empty()) {
    throw core::PersistError("snapshot: bad " + kind +
                             " checksum field at byte offset " +
                             std::to_string(line_offset));
  }
  const std::size_t payload_offset = offset_of(is);
  std::string payload(static_cast<std::size_t>(nbytes), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(nbytes));
  const auto got = static_cast<std::size_t>(is.gcount());
  if (got != nbytes) {
    throw core::PersistError(
        "snapshot: truncated " + kind + " blob: expected " +
        std::to_string(nbytes) + " bytes at byte offset " +
        std::to_string(payload_offset) + ", file ends after " +
        std::to_string(got));
  }
  if (util::crc32c(payload) != static_cast<std::uint32_t>(stored_crc)) {
    throw core::PersistError("snapshot: " + kind +
                             " checksum mismatch at byte offset " +
                             std::to_string(payload_offset));
  }
  if (is.get() != '\n') {
    throw core::PersistError("snapshot: missing newline after " + kind +
                             " blob at byte offset " +
                             std::to_string(offset_of(is)));
  }
  return payload;
}

std::string read_blob(std::istream& is, const std::string& kind) {
  const std::size_t line_offset = offset_of(is);
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
  unsigned long long quarantined = 0;
  {
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw >> quarantined) || kw != "QUARANTINED" ||
        quarantined > 4096) {
      throw core::PersistError("snapshot: bad QUARANTINED line '" + line +
                               "'");
    }
  }
  for (unsigned long long i = 0; i < quarantined; ++i) {
    data.quarantined.push_back(detector_from_bytes(read_blob(is, "CAND")));
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
  std::size_t end_offset = offset_of(is);
  if (!std::getline(is, line)) {
    throw core::PersistError("snapshot truncated: missing END at byte "
                             "offset " +
                             std::to_string(end_offset));
  }
  if (line.rfind("DRIFT ", 0) == 0) {
    data.drift = read_blob_body(is, "DRIFT", line, end_offset);
    end_offset = offset_of(is);
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
    out.push_back(static_cast<char>(e.type));
    put_u32(out, static_cast<std::uint32_t>(e.app_stack.size()));
    for (const std::uint64_t addr : e.app_stack) put_u64(out, addr);
    put_u32(out, static_cast<std::uint32_t>(e.system_stack.size()));
    for (const trace::StackFrame& f : e.system_stack) {
      put_u64(out, f.address);
      put_u32(out, static_cast<std::uint32_t>(f.module.size()));
      out.append(f.module);
      put_u32(out, static_cast<std::uint32_t>(f.function.size()));
      out.append(f.function);
    }
  }
  return out;
}

util::StatusOr<std::vector<trace::PartitionedEvent>> decode_window(
    std::string_view payload) {
  Cursor c(payload);
  std::uint32_t count = 0;
  if (!c.u32(count) || count > kMaxWindowEvents) {
    return util::corrupt_input("window payload: bad event count");
  }
  std::vector<trace::PartitionedEvent> events;
  events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    trace::PartitionedEvent e;
    std::uint8_t type = 0;
    std::uint32_t app_n = 0;
    if (!c.u64(e.seq) || !c.u32(e.tid) || !c.u8(type) ||
        type >= trace::kEventTypeCount || !c.u32(app_n) ||
        app_n > kMaxStackFrames) {
      return util::corrupt_input("window payload: bad event " +
                                 std::to_string(i));
    }
    e.type = static_cast<trace::EventType>(type);
    e.app_stack.resize(app_n);
    for (std::uint32_t a = 0; a < app_n; ++a) {
      if (!c.u64(e.app_stack[a])) {
        return util::corrupt_input("window payload: truncated app stack");
      }
    }
    std::uint32_t sys_n = 0;
    if (!c.u32(sys_n) || sys_n > kMaxStackFrames) {
      return util::corrupt_input("window payload: bad system stack count");
    }
    e.system_stack.resize(sys_n);
    for (std::uint32_t s = 0; s < sys_n; ++s) {
      trace::StackFrame& f = e.system_stack[s];
      if (!c.u64(f.address) || !c.str(f.module, kMaxSymbolBytes) ||
          !c.str(f.function, kMaxSymbolBytes)) {
        return util::corrupt_input("window payload: truncated system stack");
      }
    }
    events.push_back(std::move(e));
  }
  if (!c.exhausted()) {
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
  payload.push_back(ok ? 1 : 0);
  put_u64(payload, new_samples);
  put_u32(payload, static_cast<std::uint32_t>(detail.size()));
  payload.append(detail);
  return journal(WalRecordType::kRetrain, payload);
}

util::Status DurableStore::journal_promotion(
    const core::Detector& candidate) {
  return journal(WalRecordType::kPromotion, detector_bytes(candidate));
}

util::Status DurableStore::journal_quarantine(
    const core::Detector& candidate) {
  return journal(WalRecordType::kQuarantine, detector_bytes(candidate));
}

util::Status DurableStore::journal_drift_batch(const DriftSample* samples,
                                               std::size_t count) {
  if (count == 0) return util::ok_status();
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    put_f64(payload, samples[i].value);
    payload.push_back(static_cast<char>(samples[i].label));
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
    os << "QUARANTINED " << state.quarantined.size() << '\n';
    for (const auto& candidate : state.quarantined) {
      write_blob(os, "CAND", detector_bytes(*candidate));
    }
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
      out.quarantined = std::move(snap.quarantined);
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
        Cursor c(record.payload);
        std::uint64_t boundary = 0;
        if (!c.u64(boundary)) {
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
        Cursor c(record.payload);
        std::uint32_t n = 0;
        if (!c.u32(n) || n > (1u << 20)) {
          return util::corrupt_input("WAL drift batch (lsn " +
                                     std::to_string(record.lsn) +
                                     "): bad sample count");
        }
        for (std::uint32_t i = 0; i < n; ++i) {
          DriftReplayOp op;
          op.kind = DriftReplayOp::Kind::kObserve;
          std::uint8_t label = 0;
          if (!c.f64(op.value) || !c.u8(label)) {
            return util::corrupt_input("WAL drift batch (lsn " +
                                       std::to_string(record.lsn) +
                                       "): truncated sample");
          }
          op.label = static_cast<int>(static_cast<std::int8_t>(label));
          out.drift_ops.push_back(op);
        }
        if (!c.exhausted()) {
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
        try {
          out.quarantined.push_back(detector_from_bytes(record.payload));
        } catch (const core::PersistError& e) {
          return util::corrupt_input("WAL quarantine record (lsn " +
                                     std::to_string(record.lsn) +
                                     "): " + e.what());
        }
        break;
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
