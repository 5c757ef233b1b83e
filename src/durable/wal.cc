#include "durable/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace leaps::durable {

namespace {

constexpr std::size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc
constexpr std::size_t kBodyPrefixBytes = 9;   // u8 type + u64 lsn
// A single record larger than this is framing damage, not data.
constexpr std::size_t kMaxRecordBytes = std::size_t{64} << 20;

std::string errno_text(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

util::Status write_all(int fd, const char* data, std::size_t size,
                       const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ::ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::unavailable(errno_text("write", path));
    }
    done += static_cast<std::size_t>(n);
  }
  return util::ok_status();
}

}  // namespace

WalWriter::~WalWriter() { close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      next_lsn_(other.next_lsn_),
      appends_(other.appends_),
      failed_(other.failed_) {}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    next_lsn_ = other.next_lsn_;
    appends_ = other.appends_;
    failed_ = other.failed_;
  }
  return *this;
}

void WalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Status WalWriter::open(const std::string& path,
                             std::uint64_t next_lsn) {
  close();
  path_ = path;
  next_lsn_ = next_lsn == 0 ? 1 : next_lsn;
  appends_ = 0;
  failed_ = false;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return util::unavailable(errno_text("open", path));
  const ::off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size == 0) {
    return write_all(fd_, kWalMagic.data(), kWalMagic.size(), path_);
  }
  return util::ok_status();
}

util::Status WalWriter::rolled_back(util::Status status, ::off_t start) {
  // A partial record would stop every future scan right here while later
  // appends kept "succeeding" into the unreachable region — either give
  // the bytes back or refuse all further appends.
  if (::ftruncate(fd_, start) != 0) failed_ = true;
  return status;
}

util::Status WalWriter::append(WalRecordType type, std::string_view payload,
                               std::uint64_t* assigned_lsn) {
  if (fd_ < 0) return util::internal_error("WAL not open");
  if (failed_) {
    return util::internal_error(
        "WAL writer disabled: an earlier append left a torn record that "
        "could not be rolled back; records after it would be unreachable "
        "to recovery (checkpoint to truncate and re-enable)");
  }
  const ::off_t start = ::lseek(fd_, 0, SEEK_END);
  if (start < 0) return util::unavailable(errno_text("lseek", path_));
  std::string body;
  body.reserve(kBodyPrefixBytes + payload.size());
  util::put_u8(body, static_cast<std::uint8_t>(type));
  util::put_u64(body, next_lsn_);
  body.append(payload);

  std::string header;
  util::put_u32(header, static_cast<std::uint32_t>(body.size()));
  util::put_u32(header, util::crc32c(body));

  // Header first, as its own write: a crash between the two leaves a
  // valid-header/short-body torn tail — the exact shape recovery must
  // truncate and the corruption corpus must flag. An injected `throw` or
  // `exit` here simulates that crash (no rollback — the torn bytes are
  // the drill); an injected `error` behaves like a failed body write and
  // exercises the rollback below.
  util::Status status = write_all(fd_, header.data(), header.size(), path_);
  if (!status.ok()) return rolled_back(std::move(status), start);
  {
    auto& injector = util::FaultInjector::instance();
    if (injector.any_armed()) {
      util::Status injected = injector.hit("durable.wal.append.mid");
      if (!injected.ok()) return rolled_back(std::move(injected), start);
    }
  }
  status = write_all(fd_, body.data(), body.size(), path_);
  if (!status.ok()) return rolled_back(std::move(status), start);
  if (assigned_lsn != nullptr) *assigned_lsn = next_lsn_;
  ++next_lsn_;
  ++appends_;
  return util::ok_status();
}

util::Status WalWriter::sync() {
  if (fd_ < 0) return util::internal_error("WAL not open");
  if (::fsync(fd_) != 0) return util::unavailable(errno_text("fsync", path_));
  return util::ok_status();
}

util::Status WalWriter::truncate() {
  if (fd_ < 0) return util::internal_error("WAL not open");
  if (::ftruncate(fd_, static_cast<::off_t>(kWalMagic.size())) != 0) {
    return util::unavailable(errno_text("ftruncate", path_));
  }
  if (::fsync(fd_) != 0) return util::unavailable(errno_text("fsync", path_));
  failed_ = false;  // whatever damage poisoned the writer is gone now
  return util::ok_status();
}

util::StatusOr<WalScan> scan_wal(const std::string& path) {
  WalScan scan;
  std::ifstream is(path, std::ios::binary);
  if (!is) return scan;  // no WAL yet

  std::string magic(kWalMagic.size(), '\0');
  is.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  if (static_cast<std::size_t>(is.gcount()) != kWalMagic.size() ||
      magic != kWalMagic) {
    return util::corrupt_input("bad WAL magic in " + path);
  }

  std::uint64_t offset = kWalMagic.size();
  std::uint64_t prev_lsn = 0;
  const auto tear = [&](std::string reason) {
    scan.torn = true;
    scan.torn_offset = offset;
    scan.torn_reason = std::move(reason);
  };
  for (;;) {
    char header[kFrameHeaderBytes];
    is.read(header, static_cast<std::streamsize>(kFrameHeaderBytes));
    const auto header_got = static_cast<std::size_t>(is.gcount());
    if (header_got == 0) break;  // clean end
    if (header_got < kFrameHeaderBytes) {
      tear("torn WAL record header at byte offset " +
           std::to_string(offset) + ": " + std::to_string(header_got) +
           " of 8 bytes");
      break;
    }
    util::ByteReader frame({header, kFrameHeaderBytes});
    const std::uint32_t body_len = frame.u32();
    const std::uint32_t stored_crc = frame.u32();
    if (body_len < kBodyPrefixBytes || body_len > kMaxRecordBytes) {
      tear("implausible WAL record length " + std::to_string(body_len) +
           " at byte offset " + std::to_string(offset));
      break;
    }
    const util::StatusOr<std::string> body =
        util::read_framed(is, body_len, stored_crc);
    if (!body.ok()) {
      tear("torn WAL record at byte offset " + std::to_string(offset) + ": " +
           body.status().message());
      break;
    }
    util::ByteReader prefix(*body);
    WalRecord record;
    record.type = static_cast<WalRecordType>(prefix.u8());
    record.lsn = prefix.u64();
    if (record.lsn <= prev_lsn) {
      tear("non-monotonic WAL LSN " + std::to_string(record.lsn) +
           " at byte offset " + std::to_string(offset));
      break;
    }
    prev_lsn = record.lsn;
    record.payload = body->substr(kBodyPrefixBytes);
    scan.records.push_back(std::move(record));
    offset += kFrameHeaderBytes + body_len;
  }
  return scan;
}

}  // namespace leaps::durable
