// Unit tests for the binary raw-log format: round trips, compactness,
// format auto-detection (including non-seekable streams), and the
// corruption contract — hostile bytes come back as Status values, never
// exceptions, crashes, or unbounded allocations.
#include <gtest/gtest.h>

#include <sstream>
#include <streambuf>
#include <string>

#include "sim/scenario.h"
#include "trace/binary_log.h"
#include "util/rng.h"
#include "util/status.h"

namespace leaps::trace {
namespace {

RawLog sample_log() {
  sim::SimConfig cfg;
  cfg.benign_events = 400;
  cfg.mixed_events = 200;
  cfg.malicious_events = 100;
  return sim::generate_scenario(sim::find_scenario("putty_reverse_tcp"),
                                cfg)
      .benign;
}

std::string to_binary(const RawLog& log) {
  std::ostringstream os(std::ios::binary);
  write_raw_log_binary(log, os);
  return os.str();
}

/// A read-only, strictly non-seekable stream buffer (seekoff inherits
/// streambuf's always-fail default), like a pipe or socket: tellg() on a
/// stream over it yields -1. Serves one byte per underflow so peek/get
/// interplay is exercised too.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string data) : data_(std::move(data)) {}

 protected:
  int_type underflow() override {
    if (pos_ == data_.size()) return traits_type::eof();
    ch_ = data_[pos_++];
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }

 private:
  std::string data_;
  std::size_t pos_ = 0;
  char ch_ = 0;
};

TEST(BinaryLog, RoundTripIsExact) {
  const RawLog log = sample_log();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_raw_log_binary(log, buffer);
  const util::StatusOr<RawLog> back = read_raw_log_binary(buffer);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(*back, log);
}

TEST(BinaryLog, RoundTripHandlesExtremeAddresses) {
  RawLog log;
  log.process_name = "x.exe";
  log.modules.push_back({0, 1, "zero.dll"});
  log.modules.push_back({~0ULL - 0x1000, 0x1000, "top.dll"});
  RawEvent e;
  e.seq = ~0ULL;
  e.tid = ~0U;
  e.type = static_cast<EventType>(kEventTypeCount - 1);
  // Descending then ascending addresses exercise negative deltas.
  e.stack = {~0ULL - 1, 0, 0x8000000000000000ULL, 1};
  log.events.push_back(e);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_raw_log_binary(log, buffer);
  EXPECT_EQ(read_raw_log_binary(buffer).value(), log);
}

TEST(BinaryLog, SubstantiallySmallerThanText) {
  const RawLog log = sample_log();
  const std::string binary = to_binary(log);
  const std::string text = raw_log_to_string(log);
  EXPECT_LT(binary.size() * 4, text.size());  // at least 4x smaller
}

TEST(BinaryLog, DetectionDistinguishesFormats) {
  const RawLog log = sample_log();
  std::stringstream binary(to_binary(log),
                           std::ios::in | std::ios::binary);
  EXPECT_TRUE(is_binary_log(binary));
  // Detection must not consume the stream.
  EXPECT_EQ(read_raw_log_binary(binary).value(), log);

  std::stringstream text(raw_log_to_string(log));
  EXPECT_FALSE(is_binary_log(text));
}

TEST(BinaryLog, DetectionWorksOnNonSeekableStreams) {
  const RawLog log = sample_log();

  PipeBuf binary_buf(to_binary(log));
  std::istream binary(&binary_buf);
  ASSERT_EQ(binary.tellg(), std::streampos(-1));  // genuinely unseekable
  EXPECT_TRUE(is_binary_log(binary));
  // The peek must not have consumed anything: a full read still works.
  EXPECT_EQ(read_raw_log_binary(binary).value(), log);

  PipeBuf text_buf(raw_log_to_string(log));
  std::istream text(&text_buf);
  EXPECT_FALSE(is_binary_log(text));
}

TEST(BinaryLog, ReadAnyHandlesBothFormats) {
  const RawLog log = sample_log();
  std::stringstream binary(to_binary(log),
                           std::ios::in | std::ios::binary);
  EXPECT_EQ(read_raw_log_any(binary).value(), log);

  std::stringstream text(raw_log_to_string(log));
  const RawLog from_text = read_raw_log_any(text).value();
  // The text round trip preserves everything the pipeline consumes.
  EXPECT_EQ(from_text.process_name, log.process_name);
  EXPECT_EQ(from_text.modules, log.modules);
  EXPECT_EQ(from_text.events, log.events);
  EXPECT_EQ(from_text.symbols.size(), log.symbols.size());
}

TEST(BinaryLog, ReadAnyWorksOnNonSeekablePipes) {
  // The leaps tools accept "-" (stdin, typically a pipe); both formats
  // must autodetect and parse without seeking.
  const RawLog log = sample_log();

  PipeBuf binary_buf(to_binary(log));
  std::istream binary(&binary_buf);
  EXPECT_EQ(read_raw_log_any(binary).value(), log);

  PipeBuf text_buf(raw_log_to_string(log));
  std::istream text(&text_buf);
  EXPECT_EQ(read_raw_log_any(text).value().events, log.events);
}

TEST(BinaryLog, RejectsCorruption) {
  const std::string good = to_binary(sample_log());
  const auto expect_reject = [](std::string text) {
    std::stringstream is(std::move(text),
                         std::ios::in | std::ios::binary);
    const util::StatusOr<RawLog> got = read_raw_log_binary(is);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput);
  };
  expect_reject("");                           // empty
  expect_reject("LEAPSB99" + good.substr(8));  // wrong magic
  expect_reject(good.substr(0, good.size() / 2));  // truncated
  expect_reject(good.substr(0, 20));               // truncated header
  // Implausible count: magic + tiny name + huge module count.
  std::string bomb(kBinaryLogMagic, sizeof(kBinaryLogMagic));
  bomb += '\x01';
  bomb += 'x';
  bomb += "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01";  // ~2^63
  expect_reject(bomb);
}

TEST(BinaryLog, EveryTruncationIsRejected) {
  // Counts are declared up front and the stream ends exactly after the
  // last event, so *every* strict prefix must fail as corrupt — there is
  // no silent partial parse an attacker can force by cutting a log short.
  sim::SimConfig cfg;
  cfg.benign_events = 60;
  cfg.mixed_events = 30;
  cfg.malicious_events = 20;
  const RawLog log = sim::generate_scenario(
                         sim::find_scenario("putty_reverse_tcp"), cfg)
                         .benign;
  const std::string good = to_binary(log);
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    std::stringstream is(good.substr(0, cut),
                         std::ios::in | std::ios::binary);
    const util::StatusOr<RawLog> got = read_raw_log_binary(is);
    ASSERT_FALSE(got.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput);
  }
}

TEST(BinaryLog, BitFlipCorpusNeverThrows) {
  const std::string good = to_binary(sample_log());
  util::Rng rng(20150622);  // deterministic corpus
  for (int i = 0; i < 500; ++i) {
    std::string mutated = good;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.next_below(mutated.size());
      mutated[at] = static_cast<char>(
          static_cast<unsigned char>(mutated[at]) ^
          (1u << rng.next_below(8)));
    }
    std::stringstream is(std::move(mutated),
                         std::ios::in | std::ios::binary);
    // A flip may survive decoding (payload bytes) or be rejected
    // (structure bytes); either way it must come back as a Status.
    EXPECT_NO_THROW((void)read_raw_log_any(is)) << "corpus item " << i;
  }
}

TEST(BinaryLog, HugeClaimedStringFailsWithoutCommittingMemory) {
  // A header claiming a ~64 MB process name backed by 4 bytes of data
  // must fail at the first 64 KiB chunk (kCorruptInput), not attempt the
  // full allocation up front.
  std::string bytes(kBinaryLogMagic, sizeof(kBinaryLogMagic));
  bytes += "\x80\x80\x80\x20";  // varint 0x4000000 = 64 MiB
  bytes += "only";
  std::stringstream is(std::move(bytes),
                       std::ios::in | std::ios::binary);
  const util::StatusOr<RawLog> got = read_raw_log_binary(is);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput);
  EXPECT_NE(got.status().message().find("truncated string"),
            std::string::npos);
}

TEST(BinaryLog, EndlessVarintContinuationIsRejected) {
  // A run of 0x80 continuation bytes encodes no terminator: the decoder
  // must reject it as overflow after at most 10 bytes (no unbounded loop,
  // no shift past 63 — a UBSan-caught vector).
  std::string bytes(kBinaryLogMagic, sizeof(kBinaryLogMagic));
  bytes += std::string(64, '\x80');
  std::stringstream is(std::move(bytes),
                       std::ios::in | std::ios::binary);
  const util::StatusOr<RawLog> got = read_raw_log_binary(is);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput);
  EXPECT_NE(got.status().message().find("varint overflow"),
            std::string::npos);
}

TEST(BinaryLog, ErrorsCarryByteOffsets) {
  const std::string good = to_binary(sample_log());
  std::stringstream is(good.substr(0, 30),
                       std::ios::in | std::ios::binary);
  const util::StatusOr<RawLog> got = read_raw_log_binary(is);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("at byte"), std::string::npos);
}

TEST(BinaryLog, EmptyLogRoundTrips) {
  RawLog log;
  log.process_name = "empty.exe";
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_raw_log_binary(log, buffer);
  EXPECT_EQ(read_raw_log_binary(buffer).value(), log);
}

}  // namespace
}  // namespace leaps::trace
