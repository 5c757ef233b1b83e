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
  // detector; new sessions get the promoted one), rollback_shadow() drops
  // it. A rejected candidate never served and is not kept; the online
  // manager counts rollbacks.

  /// Stages `candidate` as the shadow for `profile`. False (no-op) when
  /// the profile is absent or already has a shadow in flight.
  bool begin_shadow(const std::string& profile,
                    std::shared_ptr<const core::Detector> candidate);
  /// The in-flight shadow candidate; nullptr when none.
  std::shared_ptr<const core::Detector> shadow_candidate(
      const std::string& profile) const;
  /// Publishes the shadow as the active detector. False when none staged.
  bool promote_shadow(const std::string& profile);
  /// Rejects and drops the shadow, freeing the slot. False when none
  /// staged.
  bool rollback_shadow(const std::string& profile);

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const core::Detector>> detectors_;
  std::map<std::string, std::shared_ptr<const core::Detector>> shadows_;
};

}  // namespace leaps::serve
