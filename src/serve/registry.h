// DetectorRegistry: named, shared, hot-swappable detectors.
//
// Multi-tenant serving keys detectors by *profile* — one trained detector
// per monitored application (the paper trains per application; Section V-A).
// The registry is read-mostly: every session open takes a snapshot pointer,
// every operator reload swaps one in. Reads take a shared lock and copy a
// shared_ptr; a replaced detector stays alive until the last session
// holding its snapshot closes, so reloads never invalidate live sessions
// (RCU-flavored lifetime without the RCU machinery).
//
// A `const core::Detector` is immutable (see core/pipeline.h), which is
// what makes handing one pointer to many worker threads sound.
#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace leaps::serve {

class DetectorRegistry {
 public:
  /// Registers or replaces the detector for `profile`.
  void add(const std::string& profile,
           std::shared_ptr<const core::Detector> detector);

  /// Loads a persisted detector file (core::load_detector_file) under
  /// `profile`. Throws core::PersistError on malformed input.
  void load_file(const std::string& profile, const std::string& path);

  /// Snapshot of the current detector for `profile`; nullptr if absent.
  std::shared_ptr<const core::Detector> find(const std::string& profile) const;

  bool contains(const std::string& profile) const;
  std::vector<std::string> profiles() const;
  std::size_t size() const;

  // --- shadow rollover (src/online/) ------------------------------------
  // A candidate detector rides alongside the active one for `profile`
  // until the evaluation decides: promote_shadow() publishes it with the
  // same RCU snapshot swap as add() (live sessions keep their pinned
  // detector; new sessions get the promoted one), rollback_shadow() moves
  // it to the profile's quarantine list so operators can inspect what was
  // rejected and why it never served.

  /// Stages `candidate` as the shadow for `profile`. False (no-op) when
  /// the profile is absent or already has a shadow in flight.
  bool begin_shadow(const std::string& profile,
                    std::shared_ptr<const core::Detector> candidate);
  /// The in-flight shadow candidate; nullptr when none.
  std::shared_ptr<const core::Detector> shadow_candidate(
      const std::string& profile) const;
  /// Publishes the shadow as the active detector. False when none staged.
  bool promote_shadow(const std::string& profile);
  /// Rejects the shadow, appending it to the quarantine list. False when
  /// none staged.
  bool rollback_shadow(const std::string& profile);
  std::size_t quarantined_count(const std::string& profile) const;
  /// Most recently quarantined candidate; nullptr when none.
  std::shared_ptr<const core::Detector> last_quarantined(
      const std::string& profile) const;
  /// Full quarantine list, oldest first (durability checkpoints fold it
  /// into the snapshot so rejected candidates survive restarts).
  std::vector<std::shared_ptr<const core::Detector>> quarantined_all(
      const std::string& profile) const;
  /// Re-appends a quarantined candidate during warm-restart recovery
  /// (same effect on staging as rollback_shadow, without needing a
  /// shadow in flight).
  void restore_quarantined(const std::string& profile,
                           std::shared_ptr<const core::Detector> candidate);

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const core::Detector>> detectors_;
  std::map<std::string, std::shared_ptr<const core::Detector>> shadows_;
  std::map<std::string, std::vector<std::shared_ptr<const core::Detector>>>
      quarantined_;
};

}  // namespace leaps::serve
