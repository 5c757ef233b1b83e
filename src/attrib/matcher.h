// Incremental subgraph matching of detector-flagged windows against a
// campaign-signature library.
//
// The attribution pipeline is detect-then-attribute: the detector flags
// windows (label −1); each flagged window is reduced to WindowEvidence —
// its {Event_Type, Lib, Func} projections plus the decision value — and
// a session's evidence sequence is matched against every signature in
// the library.
//
// Matching semantics (DESIGN.md §15): signature nodes are processed in
// listed (topological) order. A node is *assigned* the flagged window
// that maximizes predicate coverage among windows satisfying every edge
// from an already-assigned predecessor (strictly later, within the
// edge's gap bound); ties break to the earliest window. Coverage is the
// fraction of the node's predicate atoms (event types + funcs, or libs
// when the signature carries no funcs) present in the window. The
// verdict score is
//
//     0.7 · mean node coverage  +  0.3 · satisfied-edge fraction
//
// so a permuted decoy — reversed or rotated kill chain — loses on the
// ordering term even when its technique predicates still match, and a
// foreign campaign's signature loses on coverage. Ranking is (score
// desc, name asc): fully deterministic, independent of worker count,
// because each session's flagged windows arrive in window-index order
// regardless of how many workers the server runs (per-session FIFO).
//
// FleetAttributor is the online half: a WindowTap-shaped observer that
// collects flagged windows per serve session and re-matches the library
// incrementally as evidence arrives; leaps-serve surfaces its ranked
// AttributionVerdicts through --status-json.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "attrib/signature.h"
#include "serve/session.h"
#include "trace/partition.h"
#include "util/status.h"

namespace leaps::attrib {

/// One flagged window, reduced to what the matcher consumes. The
/// event_types/libs/funcs projections are sorted and unique
/// (trace::project_window, the audit record's recipe too).
struct WindowEvidence {
  std::size_t window_index = 0;
  double decision_value = 0.0;
  std::vector<trace::EventType> event_types;
  std::vector<std::string> libs;
  std::vector<std::string> funcs;
};

/// Builds evidence from a flagged window's events (the WindowTap form).
WindowEvidence evidence_from_events(std::size_t window_index,
                                    double decision_value,
                                    const trace::PartitionedEvent* events,
                                    std::size_t count);

/// Reads flagged-window evidence back out of a serve/audit.h JSONL
/// stream (the offline leaps-attrib input). Records are keyed on the
/// "evidence" object the audit stream embeds; benign records (label 1)
/// are skipped. kCorruptInput on records that do not parse.
util::StatusOr<std::vector<WindowEvidence>> evidence_from_audit_jsonl(
    std::istream& is);

/// One ranked attribution claim.
struct AttributionVerdict {
  std::string signature;
  double score = 0.0;
  std::size_t nodes_matched = 0;
  std::size_t nodes_total = 0;
  std::size_t edges_satisfied = 0;
  std::size_t edges_total = 0;
  /// Window index range of the assigned nodes (0/0 when none matched).
  std::size_t first_window = 0;
  std::size_t last_window = 0;
};

/// Matches one signature against a session's evidence (which must be in
/// window-index order, as both the tap and the audit stream deliver it).
AttributionVerdict match_signature(const CampaignSignature& sig,
                                   const std::vector<WindowEvidence>& evidence);

/// Every signature in the library, ranked (score desc, name asc).
std::vector<AttributionVerdict> attribute(
    const SignatureLibrary& library,
    const std::vector<WindowEvidence>& evidence);

/// Per-session attribution state for a serving fleet. Thread-safe; the
/// tap path appends evidence under one mutex and verdict snapshots
/// re-run the matcher on demand (flagged windows are rare relative to
/// traffic, so collection — not matching — is the hot path).
class FleetAttributor {
 public:
  /// The attributor keeps a reference to `library`; it must outlive it.
  explicit FleetAttributor(const SignatureLibrary* library,
                           double min_score = 0.0)
      : library_(library), min_score_(min_score) {}

  /// WindowTap-shaped observer: records flagged (label −1) windows,
  /// ignores benign ones. Install via DetectionServer::add_window_tap.
  void observe(const serve::SessionKey& key, std::size_t window_index,
               int label, double decision_value,
               const trace::PartitionedEvent* events, std::size_t count);

  struct SessionAttribution {
    serve::SessionKey key;
    std::size_t flagged_windows = 0;
    /// Ranked verdicts with score ≥ min_score (at most `top_k`).
    std::vector<AttributionVerdict> verdicts;
  };

  /// Ranked verdicts for every session with flagged windows, key-sorted.
  std::vector<SessionAttribution> snapshot(std::size_t top_k = 3) const;

  std::size_t sessions() const;
  std::uint64_t flagged_total() const;

 private:
  const SignatureLibrary* library_;
  const double min_score_;
  mutable std::mutex mu_;
  std::map<serve::SessionKey, std::vector<WindowEvidence>> evidence_;
  std::uint64_t flagged_total_ = 0;
};

}  // namespace leaps::attrib
