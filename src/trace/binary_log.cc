#include "trace/binary_log.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "trace/decode.h"

namespace leaps::trace {

namespace {

constexpr std::size_t kSaneCount = 100'000'000;  // corruption guard

// Attacker-supplied lengths are honored at most one chunk at a time: a
// string grows by at most this many bytes per read, and a container
// reserves at most this many bytes of elements up front and lets
// push_back grow past it. A truncated stream claiming a huge string or
// count fails after a 64 KiB allocation instead of a multi-GB commit.
constexpr std::size_t kStringChunk = 64 * 1024;

template <typename Vec>
void capped_reserve(Vec& v, std::uint64_t count) {
  v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      count, kStringChunk / sizeof(typename Vec::value_type))));
}

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void bytes(const void* data, std::size_t n) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
  }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      const auto byte = static_cast<unsigned char>((v & 0x7F) | 0x80);
      bytes(&byte, 1);
      v >>= 7;
    }
    const auto byte = static_cast<unsigned char>(v);
    bytes(&byte, 1);
  }
  void svarint(std::int64_t v) { varint(zigzag_encode(v)); }
  void string(const std::string& s) {
    varint(s.size());
    bytes(s.data(), s.size());
  }

 private:
  std::ostream& os_;
};

class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  std::size_t offset() const { return offset_; }

  unsigned char byte() {
    char c = 0;
    if (!is_.get(c)) fail("unexpected end of stream");
    ++offset_;
    return static_cast<unsigned char>(c);
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      const unsigned char b = byte();
      // 64 bits fit in 10 LEB128 bytes; the 10th may carry only one bit.
      // Rejecting shift > 63 also bounds the loop against an endless run
      // of 0x80 continuation bytes.
      if (shift > 63 || (shift == 63 && (b & 0x7F) > 1)) {
        fail("varint overflow");
      }
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  std::int64_t svarint() { return zigzag_decode(varint()); }
  std::uint64_t count(const char* what) {
    const std::uint64_t v = varint();
    if (v > kSaneCount) fail(std::string("implausible count for ") + what);
    return v;
  }
  std::string string() {
    const std::uint64_t n = count("string");
    std::string s;
    std::uint64_t remaining = n;
    while (remaining > 0) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, kStringChunk));
      const std::size_t old = s.size();
      s.resize(old + take);
      if (!is_.read(s.data() + old, static_cast<std::streamsize>(take))) {
        fail("truncated string");
      }
      offset_ += take;
      remaining -= take;
    }
    return s;
  }
  [[noreturn]] void fail(const std::string& what) {
    throw decode::DecodeError("byte " + std::to_string(offset_), what);
  }

 private:
  std::istream& is_;
  std::size_t offset_ = 0;
};

decode::Decoded decode_binary(std::istream& is) {
  Reader r(is);
  char magic[sizeof(kBinaryLogMagic)];
  for (char& c : magic) c = static_cast<char>(r.byte());
  if (!std::equal(std::begin(magic), std::end(magic),
                  std::begin(kBinaryLogMagic))) {
    r.fail("bad magic");
  }
  decode::RecordCheck check;
  RawLog log;
  log.process_name = r.string();
  const std::uint64_t modules = r.count("modules");
  capped_reserve(log.modules, modules);
  for (std::uint64_t i = 0; i < modules; ++i) {
    RawModule m;
    m.base = r.varint();
    m.size = r.varint();
    m.name = r.string();
    if (std::string why = check.admit(m); !why.empty()) r.fail(why);
    log.modules.push_back(std::move(m));
  }
  const std::uint64_t symbols = r.count("symbols");
  capped_reserve(log.symbols, symbols);
  for (std::uint64_t i = 0; i < symbols; ++i) {
    RawSymbol s;
    s.address = r.varint();
    s.function = r.string();
    if (std::string why = check.admit(s); !why.empty()) r.fail(why);
    log.symbols.push_back(std::move(s));
  }
  const std::uint64_t events = r.count("events");
  capped_reserve(log.events, events);
  for (std::uint64_t i = 0; i < events; ++i) {
    RawEvent e;
    e.seq = r.varint();
    e.tid = static_cast<std::uint32_t>(r.varint());
    const unsigned char type = r.byte();
    if (type >= kEventTypeCount) r.fail("unknown event type");
    e.type = static_cast<EventType>(type);
    const std::uint64_t frames = r.count("frames");
    capped_reserve(e.stack, frames);
    std::uint64_t prev = 0;
    for (std::uint64_t f = 0; f < frames; ++f) {
      prev += static_cast<std::uint64_t>(r.svarint());
      e.stack.push_back(prev);
    }
    log.events.push_back(std::move(e));
  }
  return {std::move(log), r.offset()};
}

}  // namespace

void write_raw_log_binary(const RawLog& log, std::ostream& os) {
  Writer w(os);
  w.bytes(kBinaryLogMagic, sizeof(kBinaryLogMagic));
  w.string(log.process_name);
  w.varint(log.modules.size());
  for (const RawModule& m : log.modules) {
    w.varint(m.base);
    w.varint(m.size);
    w.string(m.name);
  }
  w.varint(log.symbols.size());
  for (const RawSymbol& s : log.symbols) {
    w.varint(s.address);
    w.string(s.function);
  }
  w.varint(log.events.size());
  for (const RawEvent& e : log.events) {
    w.varint(e.seq);
    w.varint(e.tid);
    const auto type = static_cast<unsigned char>(e.type);
    w.bytes(&type, 1);
    w.varint(e.stack.size());
    std::uint64_t prev = 0;
    for (const std::uint64_t addr : e.stack) {
      w.svarint(static_cast<std::int64_t>(addr - prev));
      prev = addr;
    }
  }
}

util::StatusOr<RawLog> read_raw_log_binary(std::istream& is) {
  return decode::decode_log(is, "binary", decode_binary);
}

bool is_binary_log(std::istream& is) {
  const std::streampos pos = is.tellg();
  if (pos == std::streampos(-1)) {
    // Non-seekable stream (pipe): a single-byte peek discriminates the
    // formats without consuming anything.
    is.clear();
    return is.peek() ==
           std::char_traits<char>::to_int_type(kBinaryLogMagic[0]);
  }
  char magic[sizeof(kBinaryLogMagic)];
  is.read(magic, sizeof(magic));
  const bool ok = is.gcount() == sizeof(magic) &&
                  std::equal(std::begin(magic), std::end(magic),
                             std::begin(kBinaryLogMagic));
  is.clear();
  is.seekg(pos);
  return ok;
}

}  // namespace leaps::trace
