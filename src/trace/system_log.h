// System-wide event captures and application slicing.
//
// A real tracing engine records *every* process on the machine into one
// log; LEAPS's front end then performs application slicing — "extract
// function and library information sliced for each process" (Section II-B).
// SystemRawLog models that capture: interleaved events tagged with process
// ids, per-process image records (each process maps its own image at the
// same base — separate address spaces), and the shared system modules.
// slice_process() recovers the familiar single-process RawLog.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/raw_log.h"

namespace leaps::trace {

struct SystemRawLog {
  struct Entry {
    std::uint32_t pid = 0;
    RawEvent event;

    bool operator==(const Entry&) const = default;
  };

  /// pid → process (image) name.
  std::map<std::uint32_t, std::string> process_names;
  /// pid → that process's private image records.
  std::map<std::uint32_t, std::vector<RawModule>> process_modules;
  /// Shared libraries + kernel modules (one copy machine-wide).
  std::vector<RawModule> shared_modules;
  std::vector<RawSymbol> symbols;
  /// Capture order across all processes; seq numbers are global.
  std::vector<Entry> entries;

  bool operator==(const SystemRawLog&) const = default;
};

/// Process ids present in the capture, ascending.
std::vector<std::uint32_t> capture_pids(const SystemRawLog& capture);

/// Application slicing: the single-process raw log of `pid` (its image
/// records + the shared modules + its events, capture order preserved).
/// Throws std::invalid_argument for unknown pids.
RawLog slice_process(const SystemRawLog& capture, std::uint32_t pid);

}  // namespace leaps::trace
