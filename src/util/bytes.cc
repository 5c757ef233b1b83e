#include "util/bytes.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>

#include "util/crc32c.h"

namespace leaps::util {

namespace {

template <typename T>
void put_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::string at_offset(std::istream& is) {
  return "at byte offset " + std::to_string(stream_offset(is));
}

}  // namespace

std::size_t stream_offset(std::istream& is) {
  const std::streampos pos = is.tellg();
  return pos < 0 ? 0 : static_cast<std::size_t>(pos);
}

void put_u8(std::string& out, std::uint8_t v) { put_le(out, v); }
void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
void put_f64(std::string& out, double v) {
  put_le(out, std::bit_cast<std::uint64_t>(v));
}

void put_bytes(std::string& out, std::string_view bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

bool ByteReader::has(std::size_t n) {
  if (bytes_.size() - pos_ < n) failed_ = true;
  return !failed_;
}

template <typename T>
T ByteReader::le() {
  if (!has(sizeof(T))) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(bytes_[pos_ + i])} << (8 * i);
  }
  pos_ += sizeof(T);
  return static_cast<T>(v);
}

std::uint8_t ByteReader::u8() { return le<std::uint8_t>(); }
std::uint16_t ByteReader::u16() { return le<std::uint16_t>(); }
std::uint32_t ByteReader::u32() { return le<std::uint32_t>(); }
std::uint64_t ByteReader::u64() { return le<std::uint64_t>(); }
double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string_view ByteReader::bytes(std::size_t max_len) {
  const std::uint32_t len = u32();
  if (len > max_len) failed_ = true;
  if (!has(len)) return {};
  pos_ += len;
  return bytes_.substr(pos_ - len, len);
}

bool ByteReader::count(std::uint64_t n, std::size_t min_bytes_per_item) {
  if (n > (bytes_.size() - pos_) / min_bytes_per_item) failed_ = true;
  return !failed_;
}

void write_framed(std::ostream& os, std::string_view label,
                  std::string_view payload) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", crc32c(payload));
  os << label << ' ' << payload.size() << ' ' << crc << '\n' << payload;
}

StatusOr<std::string> read_framed(std::istream& is, std::uint64_t size,
                                  std::uint32_t crc) {
  const std::string at = at_offset(is);
  std::string payload;
  while (payload.size() < size) {
    const std::size_t have = payload.size();
    const auto step = static_cast<std::size_t>(
        std::min<std::uint64_t>(size - have, kFrameChunkBytes));
    payload.resize(have + step);
    is.read(payload.data() + have, static_cast<std::streamsize>(step));
    payload.resize(have + static_cast<std::size_t>(is.gcount()));
    if (payload.size() < have + step) {
      return corrupt_input("truncated " + at + ": expected " +
                           std::to_string(size) + " bytes, input ends after " +
                           std::to_string(payload.size()));
    }
  }
  const std::uint32_t computed = crc32c(payload);
  if (computed != crc) {
    char hex[64];
    std::snprintf(hex, sizeof hex, " (stored %08x, computed %08x)", crc,
                  computed);
    return corrupt_input("checksum mismatch " + at + hex);
  }
  return payload;
}

StatusOr<std::string> read_framed(std::istream& is, std::uint64_t size,
                                  std::string_view crc_hex) {
  std::uint32_t crc = 0;
  const char* end = crc_hex.data() + crc_hex.size();
  const auto [ptr, ec] = std::from_chars(crc_hex.data(), end, crc, 16);
  if (crc_hex.empty() || ec != std::errc() || ptr != end) {
    return corrupt_input("has a bad checksum field '" + std::string(crc_hex) +
                         "' " + at_offset(is));
  }
  return read_framed(is, size, crc);
}

}  // namespace leaps::util
