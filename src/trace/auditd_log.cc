#include "trace/auditd_log.h"

#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "trace/decode.h"
#include "util/strings.h"

namespace leaps::trace {

namespace {

using util::parse_hex_u64;
using util::for_each_field;
using util::for_each_token;
using util::next_token;
using util::starts_with;
using util::trim;

// Deterministic fake clock for the writer: auditd stamps records with
// wall time, the simulator has none, so records tick one millisecond per
// serial from a fixed epoch. The parser never reads the timestamp.
constexpr std::uint64_t kEpoch = 1700000000;

void append_record_prefix(std::ostream& os, const char* kind,
                          std::uint64_t& serial) {
  const std::uint64_t s = serial++;
  char ts[64];
  std::snprintf(ts, sizeof ts, "%llu.%03llu",
                static_cast<unsigned long long>(kEpoch + s / 1000),
                static_cast<unsigned long long>(s % 1000));
  os << "type=" << kind << " msg=audit(" << ts << ":" << s << "): ";
}

/// Line-by-line state machine over the auditd record grammar.
class AuditdParserState {
 public:
  RawLog finish() && { return std::move(log_); }

  void consume(std::string_view line, std::size_t lineno, std::size_t byte) {
    lineno_ = lineno;
    byte_ = byte;
    line = trim(line);
    if (line.empty() || line.front() == '#') return;
    std::string_view rest = line;
    const std::string_view type = next_token(rest);
    const std::string_view msg = next_token(rest);
    require(!msg.empty(), "truncated record");
    require(starts_with(type, "type="), "record without type=");
    const std::string_view kind = type.substr(5);
    require(starts_with(msg, "msg=audit(") && msg.size() >= 12 &&
                msg.substr(msg.size() - 2) == "):",
            "malformed msg=audit(ts:serial) field");

    // The remaining tokens are k=v fields, all checked here and then looked
    // up by field() without building a list of them.
    const std::string_view fields = rest;
    for_each_token(fields, [this](std::string_view t) { key_value(t); });

    if (kind == "DAEMON_START") {
      log_.process_name = std::string(field(fields, "comm"));
    } else if (kind == "MMAP") {
      RawModule m;
      m.base = parse_addr(field(fields, "addr"));
      m.size = parse_addr(field(fields, "len"));
      m.name = std::string(field(fields, "name"));
      if (std::string why = check_.admit(m); !why.empty()) fail(why);
      log_.modules.push_back(std::move(m));
    } else if (kind == "SYM") {
      RawSymbol s;
      s.address = parse_addr(field(fields, "addr"));
      s.function = std::string(field(fields, "name"));
      if (std::string why = check_.admit(s); !why.empty()) fail(why);
      log_.symbols.push_back(std::move(s));
    } else if (kind == "SYSCALL") {
      RawEvent e;
      e.seq = parse_dec(field(fields, "seq"));
      e.tid = static_cast<std::uint32_t>(
          parse_dec(field(fields, "tid")));
      // The audit filter key carries the exact event-type name; the
      // syscall number is the fallback for foreign captures without keys.
      const std::string_view key = field(fields, "key", /*required=*/false);
      if (!key.empty()) {
        const auto type = event_type_from_name(key);
        require(type.has_value(), "unknown audit key");
        e.type = *type;
      } else {
        const auto type = auditd_event_type(static_cast<int>(
            parse_dec(field(fields, "syscall"))));
        require(type.has_value(), "unmapped syscall number");
        e.type = *type;
      }
      log_.events.push_back(std::move(e));
    } else if (kind == "BACKTRACE") {
      require(!log_.events.empty(), "BACKTRACE before any SYSCALL");
      const std::string_view frames = field(fields, "frames");
      if (!frames.empty()) {
        for_each_field(frames, ',', [&](std::string_view f) {
          log_.events.back().stack.push_back(parse_addr(f));
        });
      }
    } else {
      fail("unknown record type '" + std::string(kind) + "'");
    }
  }

 private:
  /// Splits a k=v token; values may be double-quoted.
  std::pair<std::string_view, std::string_view> key_value(
      std::string_view token) {
    const auto eq = token.find('=');
    require(eq != std::string_view::npos && eq > 0,
            "field without key=value shape");
    std::string_view value = token.substr(eq + 1);
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    } else {
      require(value.find('"') == std::string_view::npos,
              "unterminated quoted value");
    }
    return {token.substr(0, eq), value};
  }

  /// The value of the first `key` field among the k=v tokens `fields`.
  std::string_view field(std::string_view fields, std::string_view key,
                         bool required = true) {
    for (std::string_view t = next_token(fields); !t.empty();
         t = next_token(fields)) {
      const auto [k, v] = key_value(t);
      if (k == key) return v;
    }
    if (required) fail("missing field '" + std::string(key) + "'");
    return {};
  }

  std::uint64_t parse_addr(std::string_view s) {
    std::uint64_t v = 0;
    if (!parse_hex_u64(s, v)) fail("bad hex value '" + std::string(s) + "'");
    return v;
  }

  std::uint64_t parse_dec(std::string_view s) {
    std::uint64_t v = 0;
    if (s.empty()) fail("empty decimal");
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
    throw decode::DecodeError("line " + std::to_string(lineno_) + " (byte " +
                                  std::to_string(byte_) + ")",
                              what);
  }

  decode::RecordCheck check_;
  RawLog log_;
  std::size_t lineno_ = 0;
  std::size_t byte_ = 0;
};

}  // namespace

int auditd_syscall_for(EventType t) {
  // Nearest x86-64 Linux analogue per event class (DESIGN.md §15 has the
  // full table). Numbers are distinct, so the mapping inverts exactly.
  switch (t) {
    case EventType::kSysCallEnter:
      return 39;  // getpid
    case EventType::kSysCallExit:
      return 102;  // getuid
    case EventType::kProcessCreate:
      return 59;  // execve
    case EventType::kThreadCreate:
      return 56;  // clone
    case EventType::kImageLoad:
      return 9;  // mmap (PROT_EXEC image mapping)
    case EventType::kFileRead:
      return 0;  // read
    case EventType::kFileWrite:
      return 1;  // write
    case EventType::kFileCreate:
      return 2;  // open
    case EventType::kRegistryRead:
      return 217;  // getdents64 (config-store read analogue)
    case EventType::kRegistryWrite:
      return 82;  // rename (config-store update analogue)
    case EventType::kNetworkConnect:
      return 42;  // connect
    case EventType::kNetworkSend:
      return 44;  // sendto
    case EventType::kNetworkRecv:
      return 45;  // recvfrom
    case EventType::kMemAlloc:
      return 12;  // brk
    case EventType::kMemProtect:
      return 10;  // mprotect
    case EventType::kUiMessage:
      return 7;  // poll (event-loop pump analogue)
    case EventType::kCount:
      break;
  }
  return -1;
}

std::optional<EventType> auditd_event_type(int syscall) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto t = static_cast<EventType>(i);
    if (auditd_syscall_for(t) == syscall) return t;
  }
  return std::nullopt;
}

void write_raw_log_auditd(const RawLog& log, std::ostream& os) {
  std::uint64_t serial = 1;
  append_record_prefix(os, "DAEMON_START", serial);
  os << "op=start comm=\"" << log.process_name << "\" ver=\"leaps\"\n";
  for (const RawModule& m : log.modules) {
    append_record_prefix(os, "MMAP", serial);
    os << "addr=" << util::hex_addr(m.base) << " len=" << util::hex_addr(m.size)
       << " name=\"" << m.name << "\"\n";
  }
  for (const RawSymbol& s : log.symbols) {
    append_record_prefix(os, "SYM", serial);
    os << "addr=" << util::hex_addr(s.address) << " name=\"" << s.function
       << "\"\n";
  }
  for (const RawEvent& e : log.events) {
    append_record_prefix(os, "SYSCALL", serial);
    os << "seq=" << e.seq << " tid=" << e.tid
       << " syscall=" << auditd_syscall_for(e.type) << " key=\""
       << event_type_name(e.type) << "\"\n";
    if (!e.stack.empty()) {
      append_record_prefix(os, "BACKTRACE", serial);
      os << "frames=\"";
      for (std::size_t f = 0; f < e.stack.size(); ++f) {
        if (f > 0) os << ',';
        os << util::hex_addr(e.stack[f]);
      }
      os << "\"\n";
    }
  }
}

std::string raw_log_to_auditd_string(const RawLog& log) {
  std::ostringstream os;
  write_raw_log_auditd(log, os);
  return os.str();
}

util::StatusOr<RawLog> read_raw_log_auditd(std::istream& is) {
  return decode::decode_log(is, "auditd", [](std::istream& in) {
    AuditdParserState state;
    const std::size_t bytes = decode::for_each_line(
        in, [&state](std::string_view line, std::size_t lineno,
                     std::size_t offset) {
          state.consume(line, lineno, offset);
        });
    return decode::Decoded{std::move(state).finish(), bytes};
  });
}

}  // namespace leaps::trace
