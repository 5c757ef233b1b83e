// Verdict provenance: a bounded JSONL audit stream for anomalous windows.
//
// Security operators triaging a malicious verdict need more than a label —
// they need *why*: how far below the threshold the decision value fell,
// which support vectors pulled it there, and which code addresses the
// CFG-weight assessment considered least benign (NVision-PA's case for
// behavior-level visibility into process logs). AuditLog answers that as
// one JSON object per anomalous window:
//
//   {"window":12,"host":"web1","pid":4242,"profile":"default","label":-1,
//    "decision_value":-0.41,"threshold":0.0,"events":40,
//    "sv_contributions":[{"sv":7,"coefficient":-9.8,"kernel":0.92,
//                         "contribution":-9.02},...],
//    "cfg_terms":[{"address":"0x404f10","benignity":0.0},...]}
//
// Backpressure is drop-not-block: submit() runs on worker threads under
// the session mutex, so it only copies the window's events into a bounded
// queue (capacity `queue_capacity`); a full queue drops the record and
// counts it in dropped() (leaps_serve_audit_dropped_total, once the owner
// register_with()s the log) — auditing must never stall classification.
// The expensive part — one kernel evaluation per support vector, CFG
// node benignity per frame, JSON formatting, file I/O — happens on a
// dedicated writer thread against the detector snapshot the session
// classified with (records stay correct across hot swaps).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "obs/registry.h"
#include "serve/session.h"
#include "trace/partition.h"
#include "util/status.h"

namespace leaps::serve {

struct AuditOptions {
  /// JSONL output path ("-" = stdout).
  std::string path;
  /// Max records buffered for the writer; beyond this, submit() drops.
  std::size_t queue_capacity = 1024;
  /// Support-vector contributions and CFG terms kept per record.
  std::size_t top_k = 3;
};

class AuditLog {
 public:
  explicit AuditLog(AuditOptions options);
  ~AuditLog();

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Opens the output and spawns the writer thread.
  util::Status start();

  /// Flushes queued records and joins the writer. Idempotent.
  void stop();

  /// Enqueues one anomalous-window record (drop-not-block). Cheap: copies
  /// `count` events and takes the queue mutex briefly. `detector` is the
  /// model that scored the window; explanation runs against it later.
  void submit(const SessionKey& key, const std::string& profile,
              std::size_t window_index, int label, double decision_value,
              const trace::PartitionedEvent* events, std::size_t count,
              std::shared_ptr<const core::Detector> detector);

  std::uint64_t written() const {
    return written_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const AuditOptions& options() const { return options_; }

  /// Contributes leaps_serve_audit_records_total (written()) and
  /// leaps_serve_audit_dropped_total (dropped()) to `registry`, read at
  /// collect() time. The returned handle unregisters on destruction and
  /// must not outlive this object.
  [[nodiscard]] obs::MetricRegistry::Registration register_with(
      obs::MetricRegistry& registry) const;

  /// Renders one record (exposed for tests; the writer thread calls it).
  static std::string format_record(
      const SessionKey& key, const std::string& profile,
      std::size_t window_index, int label, double decision_value,
      const std::vector<trace::PartitionedEvent>& events,
      const core::Detector& detector, std::size_t top_k);

 private:
  struct Record {
    SessionKey key;
    std::string profile;
    std::size_t window_index = 0;
    int label = 0;
    double decision_value = 0.0;
    std::vector<trace::PartitionedEvent> events;
    std::shared_ptr<const core::Detector> detector;
  };

  void writer_loop();

  const AuditOptions options_;
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Record> queue_;   // guarded by mu_
  bool stop_ = false;          // guarded by mu_
  bool started_ = false;       // guarded by mu_
  std::ofstream file_;         // writer thread only (after start())
  std::ostream* out_ = nullptr;
  std::thread writer_;
};

/// The audit hook as a window tap: submits every anomalous (label −1)
/// window to `audit` with the profile and the exact detector snapshot of
/// the session that scored it. Register it with
/// DetectionServer::add_window_tap; `audit` and `sessions` must outlive
/// the server's workers, and the caller starts and stops the log.
WindowTap audit_tap(AuditLog* audit, const SessionManager* sessions);

}  // namespace leaps::serve
