// Status / StatusOr<T>: the error taxonomy for LEAPS's untrusted
// boundaries.
//
// The ingest path (raw-log parsing, binary decoding) and the serving layer
// face attacker-controllable input: a camouflaged intruder who can crash
// the collector blinds detection exactly when it matters. Code on those
// boundaries returns Status/StatusOr instead of throwing across module
// boundaries, so every failure is a value the caller must look at:
//
//   kCorruptInput       — malformed/hostile bytes (bad magic, truncation,
//                         implausible counts, grammar violations)
//   kResourceExhausted  — an input demanded more memory/space than sane
//   kTimeout            — an operation exceeded its deadline
//   kNotFound           — a named thing (profile, file) is absent
//   kUnavailable        — transiently unusable; retrying may succeed
//   kInvalidArgument    — caller passed an unusable parameter
//   kInternal           — a bug or injected fault; never input-dependent
//
// LEAPS_CHECK (util/check.h) remains the tool for true invariants:
// violations there are programming errors, not inputs, and still throw.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace leaps::util {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kCorruptInput,
  kResourceExhausted,
  kTimeout,
  kNotFound,
  kUnavailable,
  kInvalidArgument,
  kInternal,
};

/// Stable upper-case name, e.g. "CORRUPT_INPUT" (for logs and JSON).
const char* status_code_name(StatusCode code);

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  /// "OK" or "CORRUPT_INPUT: bad magic".
  std::string to_string() const;

  bool operator==(const Status& other) const = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status ok_status() { return Status(); }
inline Status corrupt_input(std::string msg) {
  return Status(StatusCode::kCorruptInput, std::move(msg));
}
inline Status resource_exhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status not_found(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status unavailable(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status invalid_argument_error(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status internal_error(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}

/// A value or the Status explaining why there is none. Accessing value()
/// on a non-OK StatusOr is a programming error (LEAPS_CHECK).
template <typename T>
class StatusOr {
 public:
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    LEAPS_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    LEAPS_CHECK_MSG(ok(), status_.to_string());
    return *value_;
  }
  T& value() & {
    LEAPS_CHECK_MSG(ok(), status_.to_string());
    return *value_;
  }
  T&& value() && {
    LEAPS_CHECK_MSG(ok(), status_.to_string());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  template <typename U>
  T value_or(U&& fallback) const& {
    return ok() ? *value_ : static_cast<T>(std::forward<U>(fallback));
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace leaps::util
