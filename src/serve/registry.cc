#include "serve/registry.h"

#include <mutex>

#include "core/persist.h"
#include "util/check.h"

namespace leaps::serve {

void DetectorRegistry::add(const std::string& profile,
                           std::shared_ptr<const core::Detector> detector) {
  LEAPS_CHECK_MSG(detector != nullptr, "registry detector must not be null");
  const std::unique_lock lock(mu_);
  detectors_[profile] = std::move(detector);
}

void DetectorRegistry::load_file(const std::string& profile,
                                 const std::string& path) {
  // Parse outside the lock: loading is slow, swapping is cheap.
  auto detector =
      std::make_shared<const core::Detector>(core::load_detector_file(path));
  add(profile, std::move(detector));
}

std::shared_ptr<const core::Detector> DetectorRegistry::find(
    const std::string& profile) const {
  const std::shared_lock lock(mu_);
  const auto it = detectors_.find(profile);
  return it == detectors_.end() ? nullptr : it->second;
}

bool DetectorRegistry::contains(const std::string& profile) const {
  const std::shared_lock lock(mu_);
  return detectors_.count(profile) > 0;
}

std::vector<std::string> DetectorRegistry::profiles() const {
  const std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(detectors_.size());
  for (const auto& [name, _] : detectors_) out.push_back(name);
  return out;
}

std::size_t DetectorRegistry::size() const {
  const std::shared_lock lock(mu_);
  return detectors_.size();
}

bool DetectorRegistry::begin_shadow(
    const std::string& profile,
    std::shared_ptr<const core::Detector> candidate) {
  LEAPS_CHECK_MSG(candidate != nullptr, "shadow candidate must not be null");
  const std::unique_lock lock(mu_);
  if (detectors_.count(profile) == 0) return false;
  const auto [it, inserted] = shadows_.emplace(profile, std::move(candidate));
  return inserted;
}

std::shared_ptr<const core::Detector> DetectorRegistry::shadow_candidate(
    const std::string& profile) const {
  const std::shared_lock lock(mu_);
  const auto it = shadows_.find(profile);
  return it == shadows_.end() ? nullptr : it->second;
}

bool DetectorRegistry::promote_shadow(const std::string& profile) {
  const std::unique_lock lock(mu_);
  const auto it = shadows_.find(profile);
  if (it == shadows_.end()) return false;
  // The same snapshot swap as add(): sessions opened before this keep the
  // detector they pinned; the promoted model serves everyone after.
  detectors_[profile] = std::move(it->second);
  shadows_.erase(it);
  return true;
}

bool DetectorRegistry::rollback_shadow(const std::string& profile) {
  const std::unique_lock lock(mu_);
  return shadows_.erase(profile) > 0;
}

}  // namespace leaps::serve
