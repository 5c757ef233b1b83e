#include "trace/raw_log.h"

#include <ostream>
#include <sstream>

#include "trace/decode.h"
#include "util/strings.h"

namespace leaps::trace {

namespace {

using util::parse_hex_u64;
using util::trim;

/// Line-by-line state machine over the text grammar.
class TextParserState {
 public:
  RawLog finish() && { return std::move(log_); }

  void consume(std::string_view line, std::size_t lineno) {
    lineno_ = lineno;
    line = trim(line);
    if (line.empty() || line.front() == '#') return;
    // No record has more than 4 tokens, so a fifth only says "too many".
    const util::LeadingTokens<5> fields(line);
    const std::string_view kind = fields[0];
    if (kind == "PROCESS") {
      require(fields.size() == 2, "PROCESS expects 1 field");
      log_.process_name = std::string(fields[1]);
    } else if (kind == "MODULE") {
      require(fields.size() == 4, "MODULE expects 3 fields");
      RawModule m{parse_addr(fields[1]), parse_addr(fields[2]),
                  std::string(fields[3])};
      if (std::string why = check_.admit(m); !why.empty()) fail(why);
      log_.modules.push_back(std::move(m));
    } else if (kind == "SYMBOL") {
      require(fields.size() == 3, "SYMBOL expects 2 fields");
      RawSymbol s{parse_addr(fields[1]), std::string(fields[2])};
      if (std::string why = check_.admit(s); !why.empty()) fail(why);
      log_.symbols.push_back(std::move(s));
    } else if (kind == "EVENT") {
      require(fields.size() == 4, "EVENT expects 3 fields");
      RawEvent e;
      e.seq = parse_dec(fields[1]);
      e.tid = static_cast<std::uint32_t>(parse_dec(fields[2]));
      const auto type = event_type_from_name(fields[3]);
      require(type.has_value(), "unknown event type");
      e.type = *type;
      log_.events.push_back(std::move(e));
    } else if (kind == "STACK") {
      require(fields.size() == 2, "STACK expects 1 field");
      require(!log_.events.empty(), "STACK before any EVENT");
      log_.events.back().stack.push_back(parse_addr(fields[1]));
    } else {
      fail("unknown record kind '" + std::string(kind) + "'");
    }
  }

 private:
  std::uint64_t parse_addr(std::string_view s) {
    std::uint64_t v = 0;
    if (!parse_hex_u64(s, v)) fail("bad hex address '" + std::string(s) + "'");
    return v;
  }

  std::uint64_t parse_dec(std::string_view s) {
    std::uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') fail("bad decimal '" + std::string(s) + "'");
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
  }

  void require(bool cond, const std::string& what) {
    if (!cond) fail(what);
  }

  [[noreturn]] void fail(const std::string& what) {
    throw decode::DecodeError("line " + std::to_string(lineno_), what);
  }

  decode::RecordCheck check_;
  RawLog log_;
  std::size_t lineno_ = 0;
};

}  // namespace

void write_raw_log(const RawLog& log, std::ostream& os) {
  os << "# LEAPS raw event trace v1\n";
  os << "PROCESS " << log.process_name << '\n';
  for (const RawModule& m : log.modules) {
    os << "MODULE " << util::hex_addr(m.base) << ' ' << util::hex_addr(m.size)
       << ' ' << m.name << '\n';
  }
  for (const RawSymbol& s : log.symbols) {
    os << "SYMBOL " << util::hex_addr(s.address) << ' ' << s.function << '\n';
  }
  for (const RawEvent& e : log.events) {
    os << "EVENT " << e.seq << ' ' << e.tid << ' ' << event_type_name(e.type)
       << '\n';
    for (std::uint64_t addr : e.stack) {
      os << "STACK " << util::hex_addr(addr) << '\n';
    }
  }
}

std::string raw_log_to_string(const RawLog& log) {
  std::ostringstream os;
  write_raw_log(log, os);
  return os.str();
}

util::StatusOr<RawLog> read_raw_log_text(std::istream& is) {
  return decode::decode_log(is, "text", [](std::istream& in) {
    TextParserState state;
    const std::size_t bytes = decode::for_each_line(
        in, [&state](std::string_view line, std::size_t lineno,
                     std::size_t /*offset*/) { state.consume(line, lineno); });
    return decode::Decoded{std::move(state).finish(), bytes};
  });
}

}  // namespace leaps::trace
