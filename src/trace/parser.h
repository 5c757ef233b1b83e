// Raw Log Parser (Section II-B): turns a raw trace into a stack-event
// correlated log, resolving each frame address against the module map and
// symbol table carried in the log header — the same correlate-and-slice role
// Introperf's front end plays for ETW traces in the paper.
//
// Symbolication only: the log dialects' readers (raw_log.h, binary_log.h,
// auditd_log.h) decode bytes into a RawLog and validate its module and
// symbol records on the way in, so every RawLog they return satisfies
// parse_raw's preconditions.
#pragma once

#include "trace/event.h"
#include "trace/module_map.h"
#include "trace/raw_log.h"

namespace leaps::trace {

/// Result of parsing: the correlated log plus the module map built from the
/// log's MODULE/SYMBOL records (needed downstream by the stack partitioner).
struct ParsedTrace {
  CorrelatedLog log;
  ModuleMap modules;
};

class RawLogParser {
 public:
  /// Symbolicates a RawLog from the simulator or a successful read. A
  /// trusted path: module/symbol records that break ModuleMap's invariants
  /// throw (LEAPS_CHECK semantics), which no decoded log can trigger.
  ParsedTrace parse_raw(const RawLog& raw) const;
};

}  // namespace leaps::trace
