// Compact binary raw-log format (the textual format's wire twin).
//
// Real tracers write binary logs (ETW's ETL); the textual format in
// raw_log.h is for inspection. This encoding is ~6-10× smaller:
//
//   magic "LEAPSB01"
//   string   process name               (varint length + bytes)
//   varint   module count;  per module: varint base, varint size, string
//   varint   symbol count;  per symbol: varint addr, string
//   varint   event count;   per event:  varint seq, varint tid, u8 type,
//            varint frames; per frame:  zigzag-varint delta from the
//            previous frame's address (stack walks are address-local, so
//            deltas are short)
//
// All integers are LEB128 varints; frame addresses are delta-coded with
// zigzag signing.
//
// The readers are an untrusted boundary — the bytes may come from an
// attacker trying to blind the collector — so they return StatusOr
// instead of throwing: kCorruptInput for malformed bytes or module/symbol
// records that break the rules in trace/decode.h (message carries the
// byte offset), kResourceExhausted for inputs demanding implausible
// allocations. They never crash, hang, or silently partial-parse.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/raw_log.h"
#include "util/status.h"

namespace leaps::trace {

inline constexpr char kBinaryLogMagic[8] = {'L', 'E', 'A', 'P',
                                            'S', 'B', '0', '1'};

void write_raw_log_binary(const RawLog& log, std::ostream& os);
util::StatusOr<RawLog> read_raw_log_binary(std::istream& is);

/// True when the stream starts with the binary magic, without consuming
/// it. Seekable streams get the full 8-byte check (position restored);
/// non-seekable streams (pipes) peek a single byte — sufficient, because
/// no textual record ('#', PROCESS, MODULE, SYMBOL, EVENT, STACK, blank)
/// begins with 'L'.
bool is_binary_log(std::istream& is);

/// Reads a raw log in any dialect — binary (detected by magic), auditd
/// (detected by "type="), otherwise text — through that dialect's reader.
/// Works on non-seekable streams such as piped stdin. Zero bytes sniff as
/// text and, like any dialect's empty input, come back kCorruptInput.
util::StatusOr<RawLog> read_raw_log_any(std::istream& is);

}  // namespace leaps::trace
