// Crash-safe on-disk spill queue for the publisher's unacked batches: a
// write-ahead log kept in a store::RecordLog (append-only records, batched
// fsync, forward-scan torn-tail recovery — the historian segments' own
// log) plus a tiny atomically-replaced ack marker.
//
// Layout inside the spill directory:
//
//   spill.log    [magic u32 "TSVQ"] [version u16] [reserved u16]  then
//                records: [seq u64] [payload_len u32] [frame_count u32]
//                         [header_crc32 u32 over the first 16]
//                         [payload_len bytes: one encoded TSVB batch]
//                         [payload_crc32 u32]
//   spill.ack    [magic u32 "TSVM"] [version u16] [reserved u16]
//                [acked_seq u64] [next_seq u64] [crc32 u32]
//                (rewritten atomically via replace_file_sync)
//
// Every sealed batch is appended before its first send attempt, so the log
// is a superset of whatever the server received.  SIGKILL cannot lose
// page-cache writes (fsync only matters for power loss), so a killed
// publisher recovers every record it appended.  A record is whole when its
// header CRC holds, its length is within the batch-size bound and its
// payload CRC holds; a torn final record is truncated away (and the
// truncation synced), and the batch it held was by definition never fully
// sealed on disk — the caller treats it as never enqueued.
//
// The marker is persisted lazily (every kSpillMarkerEvery acks and on
// sync/close), so after a crash it may understate acked_seq.  That is safe:
// resume replays some already-acked batches and the server's dedup drops
// them — at-least-once on the wire, exactly-once in the FleetView.  The
// marker's next_seq is a high-water mark for sequence allocation: a resumed
// publisher must never reuse a seq the server may already have acked, even
// if the corresponding log records were compacted away.
//
// Compaction: once every record in the log is acked and the log holds at
// least kSpillCompactMinBytes of dead records, it is truncated back to its
// header (the marker, already persisted, carries the state).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "store/segment.hpp"

namespace tsvpt::ingest {

/// "TSVQ" little-endian, version 1.
inline constexpr store::LogFormat kSpillFormat{0x51565354u, 1};
inline constexpr std::uint32_t kSpillAckMagic = 0x4D565354u;  // "TSVM" LE
inline constexpr std::size_t kSpillRecordHeaderSize = 20;
inline constexpr std::size_t kSpillMarkerSize = 28;
/// Rewrite the ack marker every this many ack advances (plus on sync/close).
inline constexpr std::uint64_t kSpillMarkerEvery = 64;
/// Compact once everything is acked and the log holds at least this many
/// bytes of dead records.
inline constexpr std::uint64_t kSpillCompactMinBytes = 1u << 20;

class SpillQueue {
 public:
  struct Options {
    /// fsync the log every N appends; 0 = only on sync()/close().  SIGKILL
    /// survival does not need fsync at all (page cache persists); this is
    /// the power-loss knob, same as the historian's.
    std::size_t fsync_every_batches = 8;
  };

  /// What open() found on disk.
  struct RecoverInfo {
    /// Unacked batch records recovered, in seq order.
    std::vector<std::uint64_t> unacked_seqs;
    std::uint64_t acked_seq = 0;
    /// Next seq a resumed publisher may allocate (always past every seq the
    /// log or marker has ever seen).
    std::uint64_t next_seq = 1;
    bool tail_truncated = false;
    bool marker_found = false;
  };

  /// Open (creating if absent) the spill queue in `dir`.  Scans the log,
  /// truncates any torn tail, loads the ack marker, and reports the live
  /// window through `info`.  Throws std::runtime_error on I/O failure.
  static SpillQueue open(const std::string& dir, Options options,
                         RecoverInfo& info);

  SpillQueue(SpillQueue&& other) noexcept = default;
  SpillQueue& operator=(SpillQueue&&) = delete;
  SpillQueue(const SpillQueue&) = delete;
  SpillQueue& operator=(const SpillQueue&) = delete;
  ~SpillQueue();

  /// Append one sealed batch (`seq` strictly increasing).  Throws on I/O
  /// failure.  The batch becomes recoverable as soon as write() returns.
  void append(std::uint64_t seq, std::uint32_t frame_count,
              const std::vector<std::uint8_t>& batch_bytes);

  /// Read back the payload of record `seq` (false if unknown or compacted).
  [[nodiscard]] bool read(std::uint64_t seq,
                          std::vector<std::uint8_t>& out) const;

  [[nodiscard]] std::uint32_t frame_count_of(std::uint64_t seq) const;

  /// Advance the cumulative ack; persists the marker lazily and compacts
  /// the log when everything in it is dead.
  void ack(std::uint64_t acked_seq);

  /// Record a sequence-allocation high-water mark (persisted with the
  /// marker) so a resumed publisher never reuses a live seq.
  void note_next_seq(std::uint64_t next_seq);

  /// fsync the log and persist the marker now.
  void sync();

  /// sync() and close the log; further appends throw.  Idempotent.
  void close();

  [[nodiscard]] std::uint64_t acked_seq() const { return acked_seq_; }
  /// Batches appended but not yet acked (the durable window depth).
  [[nodiscard]] std::size_t depth() const { return index_.size(); }
  [[nodiscard]] std::uint64_t log_bytes() const { return log_.bytes(); }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  struct Record {
    std::uint64_t offset = 0;  // file offset of the payload
    std::uint32_t length = 0;  // payload bytes
    std::uint32_t frames = 0;
  };

  SpillQueue(std::string dir, store::RecordLog log);

  void persist_marker();
  void maybe_compact();

  std::string dir_;
  store::RecordLog log_;
  /// Live (unacked) records still addressable in the log.
  std::map<std::uint64_t, Record> index_;
  std::uint64_t acked_seq_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t acks_since_persist_ = 0;
  std::uint64_t compactions_ = 0;
  bool marker_dirty_ = false;
};

}  // namespace tsvpt::ingest
