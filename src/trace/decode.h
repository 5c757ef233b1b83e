// The ingest boundary shared by the three log dialects (internal to
// leaps_trace).
//
// Each dialect — text (raw_log.h), binary (binary_log.h), auditd
// (auditd_log.h) — owns only its grammar. Its public reader hands that
// grammar to decode_log(), which owns everything else exactly once: the
// `trace.ingest.read` fault point, the leaps_ingest_* counters, the one
// decode-error type, and the exception → Status mapping. RecordCheck
// states the module/symbol rules every grammar applies as it reads each
// record, so any RawLog a reader returns satisfies parse_raw's
// preconditions and no byte input can reach ModuleMap's LEAPS_CHECKs.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "trace/raw_log.h"
#include "util/status.h"

namespace leaps::trace::decode {

/// A malformed record. `where` is the dialect's position of it: "line N"
/// (text), "byte N" (binary), "line N (byte B)" (auditd).
class DecodeError : public std::runtime_error {
 public:
  DecodeError(const std::string& where, const std::string& what)
      : std::runtime_error(where + ": " + what) {}
};

/// The module/symbol rules, stated once. A grammar passes every module
/// and symbol record through admit() as it reads it and reports a
/// non-empty result (the reason) at its own position.
class RecordCheck {
 public:
  /// Admits a module: size > 0, base + size does not wrap, and no overlap
  /// with an already admitted module.
  std::string admit(const RawModule& m);
  /// Admits a symbol that lies inside an already admitted module.
  std::string admit(const RawSymbol& s) const;

 private:
  std::map<std::uint64_t, std::uint64_t> ends_;  // base -> base + size
};

/// What a grammar returns: the log and the bytes it consumed.
struct Decoded {
  RawLog log;
  std::size_t bytes = 0;
};

/// A dialect grammar: decodes one log, throwing DecodeError on malformed
/// input.
using Grammar = Decoded (*)(std::istream& is);

/// Runs `grammar` on `is` behind the ingest boundary. `dialect` names the
/// format in diagnostics ("text", "binary", "auditd"). An input of zero
/// bytes is corrupt in every dialect.
util::StatusOr<RawLog> decode_log(std::istream& is, std::string_view dialect,
                                  Grammar grammar);

/// Calls `consume(line, lineno, offset)` for each line of `is` (1-based
/// line number, byte offset of the line's start); returns bytes consumed.
/// The line-oriented dialects' read loop.
template <typename Consume>
std::size_t for_each_line(std::istream& is, Consume&& consume) {
  std::size_t bytes = 0;
  std::size_t lineno = 0;
  std::string line;
  while (std::getline(is, line)) {
    consume(std::string_view(line), ++lineno, bytes);
    bytes += line.size() + 1;  // + the newline getline consumed
  }
  return bytes;
}

}  // namespace leaps::trace::decode
