#include "trace/decode.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <new>

#include "obs/registry.h"
#include "trace/auditd_log.h"
#include "trace/binary_log.h"
#include "util/fault.h"
#include "util/strings.h"

namespace leaps::trace {

namespace decode {

std::string RecordCheck::admit(const RawModule& m) {
  if (m.size == 0) return "module '" + m.name + "' with zero size";
  if (m.size > std::numeric_limits<std::uint64_t>::max() - m.base) {
    return "module '" + m.name + "' ends past the address space";
  }
  const std::uint64_t end = m.base + m.size;
  const auto above = ends_.upper_bound(m.base);
  if (above != ends_.begin() && std::prev(above)->second > m.base) {
    return "module '" + m.name + "' overlaps the module at " +
           util::hex_addr(std::prev(above)->first);
  }
  if (above != ends_.end() && end > above->first) {
    return "module '" + m.name + "' overlaps the module at " +
           util::hex_addr(above->first);
  }
  ends_.emplace(m.base, end);
  return {};
}

std::string RecordCheck::admit(const RawSymbol& s) const {
  const auto above = ends_.upper_bound(s.address);
  if (above == ends_.begin() || std::prev(above)->second <= s.address) {
    return "symbol '" + s.function + "' outside any module";
  }
  return {};
}

util::StatusOr<RawLog> decode_log(std::istream& is, std::string_view dialect,
                                  Grammar grammar) {
  // Incremented in bulk per decoded log, never per record, so the decode
  // loops stay free of shared-cache-line traffic.
  static obs::Counter& events = obs::MetricRegistry::global().counter(
      "leaps_ingest_events_total", "raw events decoded from ingested logs");
  static obs::Counter& bytes = obs::MetricRegistry::global().counter(
      "leaps_ingest_bytes_total", "bytes consumed decoding ingested logs");
  static obs::Counter& corrupt = obs::MetricRegistry::global().counter(
      "leaps_ingest_corrupt_total", "ingest attempts rejected as corrupt");
  LEAPS_FAULT_POINT_STATUS("trace.ingest.read");
  try {
    // Every dialect needs at least a header or a record, so zero bytes is
    // a capture truncated to nothing, not an empty log.
    if (is.peek() == std::istream::traits_type::eof()) {
      throw DecodeError("byte 0", "empty input");
    }
    Decoded d = grammar(is);
    events.inc(d.log.events.size());
    bytes.inc(d.bytes);
    return std::move(d.log);
  } catch (const DecodeError& e) {
    corrupt.inc(1);
    return util::corrupt_input(std::string(dialect) + " log error at " +
                               e.what());
  } catch (const std::bad_alloc&) {
    return util::resource_exhausted(std::string(dialect) +
                                    " log: allocation failed");
  } catch (const std::length_error&) {
    return util::resource_exhausted(std::string(dialect) +
                                    " log: implausible allocation");
  }
}

}  // namespace decode

namespace {

// The auditd dialect is the only format whose records start with 't'
// ("type="): the text grammar's records start with '#', P, M, S or E and
// the binary magic starts with 'L', so — like is_binary_log — a one-byte
// peek suffices on pipes and a short prefix read on seekable streams.
bool is_auditd_log(std::istream& is) {
  const std::streampos pos = is.tellg();
  if (pos == std::streampos(-1)) {
    is.clear();
    return is.peek() == std::char_traits<char>::to_int_type('t');
  }
  constexpr char kPrefix[] = {'t', 'y', 'p', 'e', '='};
  char head[sizeof(kPrefix)];
  is.read(head, sizeof(head));
  const bool ok = is.gcount() == sizeof(head) &&
                  std::equal(std::begin(head), std::end(head),
                             std::begin(kPrefix));
  is.clear();
  is.seekg(pos);
  return ok;
}

}  // namespace

util::StatusOr<RawLog> read_raw_log_any(std::istream& is) {
  if (is_binary_log(is)) return read_raw_log_binary(is);
  if (is_auditd_log(is)) return read_raw_log_auditd(is);
  return read_raw_log_text(is);
}

}  // namespace leaps::trace
