// The one codec for persisted bytes. Sketch, reservoir and drift blobs,
// window payloads and WAL frames are written with put_* and read with
// ByteReader; persist v3 BLOCKs and snapshot blobs are framed with
// write_framed(); those and WAL bodies are read back with read_framed().
// Each format keeps only its grammar: keywords, caps, message context.
//
// Allocation rule: nothing here sizes memory from a length the bytes
// declare. ByteReader::count() rejects an item count the remaining bytes
// cannot hold before a caller reserves for it, and read_framed() grows its
// buffer by at most kFrameChunkBytes per step as bytes arrive. A decoder
// built on them allocates at most about twice its input plus one chunk,
// whatever its header claims.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

#include "util/status.h"

namespace leaps::util {

void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);
/// A u32 length, then the bytes.
void put_bytes(std::string& out, std::string_view bytes);

/// Little-endian reader over bytes from outside the program. A read past
/// the end fails the reader and returns 0 (or an empty view); once failed,
/// every later read fails too, so a decoder reads a record and then checks
/// ok() once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// A put_bytes() string; one longer than `max_len` fails the reader.
  std::string_view bytes(
      std::size_t max_len = std::numeric_limits<std::size_t>::max());

  /// True when `n` items of at least `min_bytes_per_item` (> 0) bytes each
  /// can still follow; otherwise fails the reader. Call it before sizing
  /// anything by `n`.
  bool count(std::uint64_t n, std::size_t min_bytes_per_item);

  bool ok() const { return !failed_; }
  /// Every byte consumed and no read failed.
  bool done() const { return !failed_ && pos_ == bytes_.size(); }

 private:
  /// Fails the reader unless `n` more bytes remain.
  bool has(std::size_t n);
  template <typename T>
  T le();

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// The read position of `is`, or 0 when the stream cannot tell.
std::size_t stream_offset(std::istream& is);

/// Writes the text frame the persist v3 and snapshot formats share:
/// "<label> <payload size> <crc32c as 8 hex digits>\n", then the payload.
void write_framed(std::ostream& os, std::string_view label,
                  std::string_view payload);

/// Largest step by which read_framed() grows its buffer.
inline constexpr std::size_t kFrameChunkBytes = std::size_t{64} << 10;

/// Reads the `size`-byte payload that follows a frame header from `is` and
/// checks it against the header's CRC32C, given as a number or as the hex
/// field of a text header. The caller caps `size`. A bad CRC field, a
/// stream that ends early or a CRC mismatch is kCorruptInput; its message
/// names the payload's byte offset in `is` and reads as a predicate, so a
/// caller prefixes what the payload is ("block 'SVM' ...").
StatusOr<std::string> read_framed(std::istream& is, std::uint64_t size,
                                  std::uint32_t crc);
StatusOr<std::string> read_framed(std::istream& is, std::uint64_t size,
                                  std::string_view crc_hex);

}  // namespace leaps::util
