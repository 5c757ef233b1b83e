// Open-loop replay through leaps::serve::DetectionServer.
//
// One generator thread (the caller's) sends events on a fixed schedule:
// event i is due at t0 + i / rate, whatever the server is doing. The
// generator sleeps to the next flush tick with an absolute
// clock_nanosleep and then sends every event due by then, so a stall in
// the server shows up as generator lateness and as verdict latency, never
// as a lower offered rate. Verdict latency runs from the due time of a
// window's last event to the VerdictSink callback.
//
// Sessions occupy `slots` round-robin lanes: global event i goes to lane
// i % slots, and each lane runs a sequence of sessions of
// `events_per_session` events (one endless session per lane when the
// sessions are long-lived). Session p therefore sees a schedule known in
// closed form, and the sink can find a window's due time without a table.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "serve/server.h"
#include "trace/partition.h"

#include "bench.h"

namespace bench {

/// Where session p's events come from: `events[(offset + k) % size]` is
/// its k-th event.
struct Source {
  std::string profile;
  const std::vector<leaps::trace::PartitionedEvent>* events = nullptr;
  std::size_t offset = 0;
  /// The simulator's truth for every window of the session: the events come
  /// from a pure-malicious log.
  bool malicious = false;
};

struct ReplayPlan {
  std::size_t slots = 64;
  std::size_t events_per_session = 0;  // 0: one session per lane, never closed
  std::size_t warm_events = 0;         // sent before the measured phase
  std::size_t measured_events = 0;
  double rate = 0.0;                   // offered events per second
  /// Events per classified window: the detectors' preprocessor().window().
  std::size_t window = 0;
  std::function<Source(std::size_t session)> source;

  std::size_t total_events() const { return warm_events + measured_events; }
  /// Sets warm_events and measured_events from phase lengths at `rate`,
  /// each rounded up to whole rounds of every lane's sessions (whole
  /// windows for long-lived sessions).
  void size_phases(double warm_seconds, double measured_seconds);
  /// Events per session, resolved for long-lived sessions.
  std::size_t session_length() const;
  std::size_t sessions() const;
  std::size_t windows_per_session() const {
    return session_length() / window;
  }
};

/// Sessions over held-out logs: session p replays instance (p / 4) % n,
/// its malicious log when p % 4 == 0 and its benign log otherwise, from an
/// offset spread by p.
std::function<Source(std::size_t)> held_out_sessions(const HeldOut& held,
                                                     const std::string& profile);

struct ServeConfig {
  std::size_t workers = 2;
  std::size_t coalesce = 1;
  std::map<std::string, std::shared_ptr<const leaps::core::Detector>>
      profiles;
  /// Extra window consumers (DetectionServer::add_window_tap).
  std::vector<leaps::serve::WindowTap> taps;
};

/// A verdict that arrives later than this after its due time (or never)
/// counts as failed: a backlog that grows during a run cannot pass.
inline constexpr std::uint64_t kVerdictDeadlineNs = 500'000'000;

struct ReplayResult {
  // Per window of every session, indexed session * windows + window.
  std::vector<std::int64_t> latency_ns;  // -1: no verdict
  std::vector<std::int8_t> label;        // +1 / -1, 0: no verdict
  std::uint64_t unexpected_verdicts = 0;  // out of plan or duplicated
  // Measured phase.
  std::uint64_t measured_events = 0;
  CpuTimes cpu;                   // process CPU over the phase
  // Process CPU per submitted event in each second of the phase (the last
  // second runs until drained).
  std::vector<double> cpu_ns_per_event_by_second;
  // TokenTable::global() hits / (hits + interned) in each of those seconds.
  std::vector<double> intern_hit_ratio_by_second;
  double wall_s = 0.0;            // phase start → drained
  double late_ns_mean = 0.0;      // generator lateness per event
  double late_ns_max = 0.0;
  std::vector<double> submit_ns;  // traced runs: per submit() call
  std::vector<double> open_us;    // traced runs: per open_session()
  std::vector<double> close_us;   // traced runs: per close_session()
  std::uint64_t intern_hits = 0;   // TokenTable::global() over the phase
  std::uint64_t intern_added = 0;
  double total_wall_s = 0.0;       // schedule start → drained
  leaps::serve::MetricsSnapshot metrics;  // after drain
};

/// Runs `plan` open-loop against a fresh server built from `config`.
/// Spans (traced runs) go to the global recorder.
ReplayResult replay_open_loop(const ReplayPlan& plan,
                              const ServeConfig& config, bool traced);

/// The same events, sessions and configuration through a 1-worker server,
/// sent as fast as submit() accepts them: the verdict reference.
std::vector<std::int8_t> replay_reference(const ReplayPlan& plan,
                                          const ServeConfig& config);

/// The same events and sessions through one Detector::Stream per session,
/// pushing the PartitionedEvent itself: no server, no token table, no
/// TupleCodec. The reference the served verdicts must equal.
std::vector<std::int8_t> stream_reference(const ReplayPlan& plan,
                                          const ServeConfig& config);

/// Detection counts of the served verdicts `labels` over the measured
/// windows, against each session's Source::malicious.
Detection served_detection(const ReplayPlan& plan,
                           const std::vector<std::int8_t>& labels);

/// Global schedule index of the last event of session `p`'s window `w`.
std::size_t window_last_event(const ReplayPlan& plan, std::size_t p,
                              std::size_t w);
/// Due time of global event `i`, relative to the schedule start.
std::uint64_t due_offset_ns(const ReplayPlan& plan, std::size_t i);

/// The plan's events in schedule order, for global indices [from, to).
std::vector<const leaps::trace::PartitionedEvent*> schedule_events(
    const ReplayPlan& plan, std::size_t from, std::size_t to);

/// Fills the serving end-to-end metric cpu_ns_per_event, the serve.*,
/// gen.* and trace.intern_hit_ratio per-layer metrics (submit and session
/// timings only when `traced`), the run's notes and its gates from one
/// replay, its 1-worker reference and its Stream reference.
void summarize_replay(const ReplayPlan& plan, const ReplayResult& r,
                      const std::vector<std::int8_t>& reference,
                      const std::vector<std::int8_t>& streamed,
                      std::size_t workers, bool traced, Report& report);

/// FNV-1a over (session, window, label) of every window, in order.
std::uint64_t verdict_digest(const std::vector<std::int8_t>& labels,
                             std::size_t windows_per_session);

}  // namespace bench
