// The raw event-trace log format (the ETL-file stand-in).
//
// A raw log is what the simulated tracing engine writes: image-load records,
// system symbols, and events whose stack walks are raw addresses only. The
// textual format is line-oriented and meant for inspection; binary_log.h is
// its compact wire twin and auditd_log.h the Linux provenance dialect:
//
//   # LEAPS raw event trace v1
//   PROCESS putty.exe
//   MODULE 0x00007ff810000000 0x0000000000040000 kernel32.dll
//   SYMBOL 0x00007ff810001200 ReadFile
//   EVENT 107 3 SysCallEnter
//   STACK 0xfffff80000012340
//   STACK 0x00007ff800001200
//   ...
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/event.h"
#include "util/status.h"

namespace leaps::trace {

/// One traced event before symbolication: raw return addresses only,
/// innermost first.
struct RawEvent {
  std::uint64_t seq = 0;
  std::uint32_t tid = 0;
  EventType type = EventType::kSysCallEnter;
  std::vector<std::uint64_t> stack;

  bool operator==(const RawEvent&) const = default;
};

struct RawSymbol {
  std::uint64_t address = 0;
  std::string function;

  bool operator==(const RawSymbol&) const = default;
};

struct RawModule {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
  std::string name;

  bool operator==(const RawModule&) const = default;
};

/// A complete raw trace for one process.
struct RawLog {
  std::string process_name;
  std::vector<RawModule> modules;
  std::vector<RawSymbol> symbols;
  std::vector<RawEvent> events;

  bool operator==(const RawLog&) const = default;
};

/// Serializes the log in the textual format above.
void write_raw_log(const RawLog& log, std::ostream& os);

/// Convenience: serialize to a string.
std::string raw_log_to_string(const RawLog& log);

/// Reads the textual format — an untrusted boundary, syntax only (frames
/// stay raw addresses; RawLogParser::parse_raw symbolicates). Malformed
/// input, including module/symbol records that break the rules in
/// trace/decode.h, yields kCorruptInput whose message carries the 1-based
/// line number ("line N:"), never an exception.
util::StatusOr<RawLog> read_raw_log_text(std::istream& is);

}  // namespace leaps::trace
