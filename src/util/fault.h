// Named fault points for chaos testing the detection service.
//
// Production code marks the places where hostile reality intrudes:
//
//   LEAPS_FAULT_POINT("serve.worker.classify");
//
// Disarmed (the default), a fault point is one relaxed atomic load and a
// predicted branch — effectively free. A test or the leaps-chaos CLI arms
// points on the process-wide FaultInjector to throw, delay (latency
// injection), or report an error Status with a given probability, drawn
// from a deterministically seeded per-point RNG so chaos runs replay
// exactly.
//
// Fault-point catalog (grep LEAPS_FAULT_POINT for ground truth):
//   serve.worker.classify          per-event, inside Session::feed_run
//   trace.ingest.read              trace::decode::decode_log, once per
//                                  decode in any log dialect
//   durable.snapshot.pre_rename    after temp fsync, before rename
//   durable.wal.append.mid         after a WAL record header is on disk,
//                                  before its body (torn-record drill)
//   durable.checkpoint.pre_truncate after snapshot rename, before the WAL
//                                  truncate (double-replay drill)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/rng.h"
#include "util/status.h"

namespace leaps::util {

enum class FaultAction {
  kThrow,  // hit() throws FaultInjectedError
  kError,  // hit() returns an error Status
  kDelay,  // hit() sleeps for `delay`, then returns OK
  kExit,   // hit() calls _Exit(exit_code): simulated kill -9. No unwind,
           // no flush — exactly what a crash leaves on disk.
};

struct FaultSpec {
  FaultAction action = FaultAction::kThrow;
  /// Injection probability per evaluation, in [0, 1].
  double probability = 1.0;
  /// Sleep duration for kDelay.
  std::chrono::microseconds delay{0};
  /// Status code reported by kError points.
  StatusCode error_code = StatusCode::kInternal;
  /// Process exit status for kExit (137 mirrors a SIGKILL'd shell child;
  /// the spec grammar's optional fourth field overrides it).
  int exit_code = 137;
  /// When non-empty, inject only at hits whose `detail` contains this
  /// substring (e.g. a session key — lets chaos target victim sessions
  /// while steady sessions stay fault-free). The {} lets a designated
  /// initializer leave it out without -Wmissing-field-initializers.
  std::string filter{};
  /// Per-point RNG seed; 0 derives one from the global seed + point name.
  std::uint64_t seed = 0;
};

class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& point)
      : std::runtime_error("injected fault at " + point), point_(point) {}
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Global seed for points whose spec leaves seed == 0; re-seeds points
  /// already armed. Same seed + same evaluation order → same injections.
  void set_seed(std::uint64_t seed);

  void arm(const std::string& point, FaultSpec spec);
  /// Arms from a CLI spec "point:action:probability[:delay_us|:exit_code]"
  /// where action ∈ {throw, error, delay, exit}. The optional fourth field
  /// is the sleep in microseconds (required for delay) — except for exit,
  /// where it is the process exit status (0-255, default 137). Returns
  /// false on a malformed spec.
  bool arm_from_spec(std::string_view spec);
  void disarm(const std::string& point);
  void disarm_all();

  /// True when any point is armed — the macro's fast-path gate.
  bool any_armed() const {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  /// Evaluates the point: not armed, filter mismatch, or probability miss
  /// → OK. Armed hit: kThrow throws FaultInjectedError, kDelay sleeps then
  /// returns OK, kError returns the armed Status.
  Status hit(std::string_view point, std::string_view detail = {});

  /// Times hit() was evaluated / actually injected for an armed point
  /// (0 after disarm).
  std::uint64_t evaluated(const std::string& point) const;
  std::uint64_t injected(const std::string& point) const;

 private:
  struct Armed {
    FaultSpec spec;
    Rng rng{0};
    std::uint64_t evaluated = 0;
    std::uint64_t injected = 0;
  };

  FaultInjector() = default;

  std::atomic<int> armed_points_{0};
  mutable std::mutex mu_;
  std::uint64_t global_seed_ = 0;  // guarded by mu_
  std::map<std::string, Armed, std::less<>> points_;  // guarded by mu_
};

/// RAII arm/disarm, for tests.
class ScopedFault {
 public:
  ScopedFault(std::string point, FaultSpec spec) : point_(std::move(point)) {
    FaultInjector::instance().arm(point_, std::move(spec));
  }
  ~ScopedFault() { FaultInjector::instance().disarm(point_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string point_;
};

}  // namespace leaps::util

/// Marks a fault point in throwing/void code. kError injections are
/// surfaced as FaultInjectedError too (there is no Status to return).
#define LEAPS_FAULT_POINT(point) \
  LEAPS_FAULT_POINT_DETAIL(point, ::std::string_view{})

#define LEAPS_FAULT_POINT_DETAIL(point, detail)                            \
  do {                                                                     \
    auto& leaps_fault_injector = ::leaps::util::FaultInjector::instance(); \
    if (leaps_fault_injector.any_armed()) {                                \
      if (!leaps_fault_injector.hit((point), (detail)).ok()) {             \
        throw ::leaps::util::FaultInjectedError(point);                    \
      }                                                                    \
    }                                                                      \
  } while (0)

/// Marks a fault point in a Status/StatusOr-returning function: a kError
/// injection returns that Status to the caller.
#define LEAPS_FAULT_POINT_STATUS(point)                                    \
  do {                                                                     \
    auto& leaps_fault_injector = ::leaps::util::FaultInjector::instance(); \
    if (leaps_fault_injector.any_armed()) {                                \
      ::leaps::util::Status leaps_fault_status =                           \
          leaps_fault_injector.hit(point);                                 \
      if (!leaps_fault_status.ok()) return leaps_fault_status;             \
    }                                                                      \
  } while (0)
