#include "store/segment.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/codec_util.hpp"

namespace tsvpt::store {

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw std::runtime_error{what + " " + path + ": " +
                           std::strerror(errno)};
}

void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("RecordLog: write", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::vector<std::uint8_t> LogFormat::header() const {
  std::vector<std::uint8_t> out;
  out.reserve(kLogHeaderSize);
  telemetry::put_u32(out, magic);
  telemetry::put_u16(out, version);
  telemetry::put_u16(out, 0);
  return out;
}

std::uint64_t SegmentIndex::frames() const {
  std::uint64_t total = 0;
  for (const auto& b : blocks) total += b.header.frame_count;
  return total;
}

std::uint64_t SegmentIndex::raw_bytes() const {
  std::uint64_t total = 0;
  for (const auto& b : blocks) total += b.header.raw_bytes;
  return total;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;  // shrank underneath us; treat the prefix as the file
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  ::close(fd);
  return true;
}

void replace_file_sync(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("replace_file_sync: create", tmp);
  try {
    write_all(fd, bytes.data(), bytes.size(), tmp);
    if (::fsync(fd) != 0) throw_errno("replace_file_sync: fsync", tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("replace_file_sync: rename", path);
  }
}

void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

RecordCheck block_check(std::vector<BlockIndexEntry>& blocks) {
  return [&blocks](const std::uint8_t* data, std::size_t size,
                   std::uint64_t offset) -> std::size_t {
    BlockHeader header;
    if (parse_block_header(data, size, header) != BlockStatus::kOk) return 0;
    const std::size_t record = header.record_size();
    if (size < record) return 0;  // payload torn
    blocks.push_back({offset, record, std::move(header)});
    return record;
  };
}

SegmentIndex scan_segment(const std::string& path) {
  SegmentIndex index;
  index.path = path;
  RecordLog::scan(path, kSegmentFormat, block_check(index.blocks), index);
  return index;
}

// ---------------------------------------------------------------------------
// RecordLog

void RecordLog::scan(const std::string& path, LogFormat format,
                     const RecordCheck& whole, LogScan& out) {
  out = LogScan{};
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes)) return;
  out.file_bytes = bytes.size();
  if (bytes.size() < kLogHeaderSize ||
      telemetry::get_u32(bytes.data()) != format.magic ||
      telemetry::get_u16(bytes.data() + 4) != format.version) {
    return;  // not this format (or its very first write was torn)
  }
  out.valid_header = true;
  std::size_t pos = kLogHeaderSize;
  while (pos < bytes.size()) {
    const std::size_t record = whole(bytes.data() + pos, bytes.size() - pos,
                                     pos);
    if (record == 0 || record > bytes.size() - pos) break;
    pos += record;
  }
  out.valid_bytes = pos;
}

RecordLog RecordLog::create(const std::string& path, LogFormat format,
                            std::size_t fsync_every) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("RecordLog: create", path);
  // Owned from here: a throw below closes the descriptor.
  RecordLog log{path, fsync_every, fd, 0, false};
  const std::vector<std::uint8_t> header = format.header();
  write_all(fd, header.data(), header.size(), path);
  if (::fsync(fd) != 0) throw_errno("RecordLog: fsync", path);
  log.bytes_ = header.size();
  return log;
}

RecordLog RecordLog::recover(const std::string& path, LogFormat format,
                             std::size_t fsync_every,
                             const RecordCheck& whole, LogScan& recovered) {
  scan(path, format, whole, recovered);
  if (!recovered.valid_header) {
    // Nothing recoverable (torn before the header landed): start fresh.
    RecordLog log = create(path, format, fsync_every);
    log.tail_truncated_ = recovered.file_bytes > 0;
    return log;
  }
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) throw_errno("RecordLog: open", path);
  RecordLog log{path, fsync_every, fd, recovered.valid_bytes,
                recovered.torn_tail()};
  if (log.tail_truncated_) {
    if (::ftruncate(fd, static_cast<off_t>(recovered.valid_bytes)) != 0) {
      throw_errno("RecordLog: ftruncate", path);
    }
    if (::fsync(fd) != 0) throw_errno("RecordLog: fsync", path);
  }
  if (::lseek(fd, static_cast<off_t>(recovered.valid_bytes), SEEK_SET) < 0) {
    throw_errno("RecordLog: lseek", path);
  }
  return log;
}

RecordLog::RecordLog(std::string path, std::size_t fsync_every, int fd,
                     std::uint64_t bytes, bool tail_truncated)
    : path_(std::move(path)), fsync_every_(fsync_every), fd_(fd),
      bytes_(bytes), tail_truncated_(tail_truncated) {}

RecordLog::RecordLog(RecordLog&& other) noexcept
    : path_(std::move(other.path_)), fsync_every_(other.fsync_every_),
      fd_(std::exchange(other.fd_, -1)), bytes_(other.bytes_),
      records_appended_(other.records_appended_),
      records_since_sync_(other.records_since_sync_),
      fsync_count_(other.fsync_count_),
      tail_truncated_(other.tail_truncated_) {}

RecordLog::~RecordLog() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void RecordLog::append(const std::vector<std::uint8_t>& record) {
  if (fd_ < 0) throw std::logic_error{"RecordLog: closed " + path_};
  write_all(fd_, record.data(), record.size(), path_);
  bytes_ += record.size();
  records_appended_ += 1;
  records_since_sync_ += 1;
  if (fsync_every_ > 0 && records_since_sync_ >= fsync_every_) sync();
}

bool RecordLog::read(std::uint64_t offset, std::size_t size,
                     std::vector<std::uint8_t>& out) const {
  if (fd_ < 0) return false;
  out.resize(size);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::pread(fd_, out.data() + got, size - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // truncated underneath us
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void RecordLog::truncate_to_header() {
  if (fd_ < 0) throw std::logic_error{"RecordLog: closed " + path_};
  if (::ftruncate(fd_, static_cast<off_t>(kLogHeaderSize)) != 0) {
    throw_errno("RecordLog: ftruncate", path_);
  }
  if (::lseek(fd_, static_cast<off_t>(kLogHeaderSize), SEEK_SET) < 0) {
    throw_errno("RecordLog: lseek", path_);
  }
  bytes_ = kLogHeaderSize;
  sync();
}

void RecordLog::sync() {
  if (fd_ < 0) return;
  // fsync dominates the historian's tail latency; a dedicated histogram
  // makes its cost visible next to the (cheap) encode/compress spans.
  static const obs::Counter fsyncs = obs::counter("tsvpt_store_fsyncs_total");
  static const obs::Histogram fsync_seconds =
      obs::histogram("tsvpt_store_fsync_seconds");
  const obs::ObsSpan fsync_span{"store", "fsync", fsync_seconds};
  if (::fsync(fd_) != 0) throw_errno("RecordLog: fsync", path_);
  fsyncs.inc();
  fsync_count_ += 1;
  records_since_sync_ = 0;
}

void RecordLog::close() {
  if (fd_ < 0) return;
  sync();
  ::close(fd_);
  fd_ = -1;
}

}  // namespace tsvpt::store
