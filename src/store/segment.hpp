// Crash-safe record logs, and the historian's segment files built on them.
//
// A record log is an append-only file of self-checking records behind a
// small file header:
//
//   [magic u32] [version u16] [reserved u16]  then  records...
//
// Appends are record-at-a-time (one write() each) and fsync is batched —
// every `fsync_every` appends plus on sync/close — so a crash can lose at
// most the records since the last sync, and a torn final write leaves a
// *prefix* of a record at the tail.  Recovery is therefore a scan: walk the
// records from the front, stop at the first one the format's RecordCheck
// does not find whole, and truncate the file there.  RecordLog::scan()
// performs the walk read-only; RecordLog::recover() additionally truncates
// (and syncs the truncation) so appending can resume.
//
// Two formats share this one implementation: the historian's segments
// ("TSVS", records are sealed blocks, store/block.hpp) and the publisher's
// spill log ("TSVQ", records are unacked batches, ingest/spill.hpp).  Each
// keeps its own record layout and check; the log owns every open, write,
// read, truncate and fsync of their files.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "store/block.hpp"

namespace tsvpt::store {

inline constexpr std::size_t kLogHeaderSize = 8;

/// The file header that identifies a log's format.
struct LogFormat {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;

  /// The 8 header bytes: magic, version, zero reserved field.
  [[nodiscard]] std::vector<std::uint8_t> header() const;
};

/// "TSVS" little-endian, version 1.
inline constexpr LogFormat kSegmentFormat{0x53565354u, 1};

/// Whether the record at `data` (with `size` bytes left in the file, at
/// file offset `offset`) is whole: its size in bytes (at most `size`), or 0
/// when it is torn or corrupt and the scan must stop there.  A check may
/// also index the records it accepts.
using RecordCheck = std::function<std::size_t(
    const std::uint8_t* data, std::size_t size, std::uint64_t offset)>;

/// What a front-to-back walk of a log found.
struct LogScan {
  /// False when the file header is missing or wrong — the file is not a
  /// log of this format (or its first write was torn) and holds no usable
  /// records.
  bool valid_header = false;
  /// Bytes holding the header and every whole record; anything past this
  /// is a torn tail.
  std::uint64_t valid_bytes = 0;
  std::uint64_t file_bytes = 0;

  [[nodiscard]] bool torn_tail() const { return valid_bytes < file_bytes; }
};

/// One append-only log file with batched fsync.
class RecordLog {
 public:
  /// Walk `path`'s records front to back, stopping at the first record
  /// `whole` rejects.  Read-only; never modifies the file.
  static void scan(const std::string& path, LogFormat format,
                   const RecordCheck& whole, LogScan& out);

  /// Create (or truncate) a fresh log at `path` and write its header.  The
  /// header is synced immediately so recovery never sees a header-less file
  /// that was supposed to be a log.  `fsync_every`: fsync after every N
  /// appends; 0 = only on sync()/close().
  static RecordLog create(const std::string& path, LogFormat format,
                          std::size_t fsync_every);

  /// Reopen an existing log for appending: scan, truncate and sync any torn
  /// tail, resume after the last whole record.  A missing or bad header
  /// starts the log over.  `recovered` reports the scan (tail_truncated()
  /// tells whether anything was cut).
  static RecordLog recover(const std::string& path, LogFormat format,
                           std::size_t fsync_every, const RecordCheck& whole,
                           LogScan& recovered);

  RecordLog(RecordLog&& other) noexcept;
  RecordLog& operator=(RecordLog&&) = delete;
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;
  ~RecordLog();

  /// Append one record (one write syscall), fsyncing per the batching
  /// policy.  Throws std::runtime_error on I/O failure, std::logic_error
  /// after close().
  void append(const std::vector<std::uint8_t>& record);

  /// Read `size` bytes at file offset `offset` into `out` (pread); false on
  /// a short read, an I/O error or a closed log.
  [[nodiscard]] bool read(std::uint64_t offset, std::size_t size,
                          std::vector<std::uint8_t>& out) const;

  /// Drop every record (truncate to the header) and sync.
  void truncate_to_header();

  /// fsync whatever has been appended.
  void sync();

  /// Sync and close; further appends throw.  Idempotent.
  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::size_t records_appended() const {
    return records_appended_;
  }
  [[nodiscard]] bool tail_truncated() const { return tail_truncated_; }
  [[nodiscard]] std::uint64_t fsync_count() const { return fsync_count_; }

 private:
  RecordLog(std::string path, std::size_t fsync_every, int fd,
            std::uint64_t bytes, bool tail_truncated);

  std::string path_;
  std::size_t fsync_every_ = 0;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  std::size_t records_appended_ = 0;
  std::size_t records_since_sync_ = 0;
  std::uint64_t fsync_count_ = 0;
  bool tail_truncated_ = false;
};

/// One block's position within a segment plus its parsed header — the
/// sparse index entry time/stack queries skip by.
struct BlockIndexEntry {
  std::uint64_t offset = 0;  // file offset of the block record
  std::uint64_t size = 0;    // record bytes (header + payload + CRCs)
  BlockHeader header;
};

/// Result of walking a segment's blocks (recovery + index build).
struct SegmentIndex : LogScan {
  std::string path;
  std::vector<BlockIndexEntry> blocks;

  [[nodiscard]] std::uint64_t frames() const;
  [[nodiscard]] std::uint64_t raw_bytes() const;
};

/// The segment format's record check: a block record is whole when its
/// header parses and its payload fits.  Each whole block is appended to
/// `blocks` (headers only, payloads untouched — the sparse index).
[[nodiscard]] RecordCheck block_check(std::vector<BlockIndexEntry>& blocks);

/// Walk `path`'s blocks front to back, stopping at the first torn or
/// corrupt-header record.  Read-only; never modifies the file.
[[nodiscard]] SegmentIndex scan_segment(const std::string& path);

/// Read a whole file into `out`; false on open/read failure.
[[nodiscard]] bool read_file(const std::string& path,
                             std::vector<std::uint8_t>& out);

/// Atomically replace `path` with `bytes`: write `path`.tmp, fsync, rename
/// over.  A crash leaves either the old or the new file, never a mix — what
/// compaction's segment rewrite and the spill marker rely on; sync_dir()
/// then makes the rename durable.  Throws std::runtime_error on I/O
/// failure.
void replace_file_sync(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// fsync a directory so renames/unlinks inside it are durable (best effort:
/// silently ignored where directories cannot be opened for sync).
void sync_dir(const std::string& dir);

}  // namespace tsvpt::store
