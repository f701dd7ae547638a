// The telemetry historian: a directory of segment files
// (`seg-000001.tsl`, `seg-000002.tsl`, …) forming one append-only,
// crash-safe, compressed log of telemetry frames.
//
//   StoreWriter — batches frames into compressed blocks (store/block.hpp),
//     appends them to the open segment with batched fsync, rolls segments
//     at a size threshold, and on open *recovers*: any torn tail left by a
//     crash is truncated so appending resumes after the last complete
//     block.  Implements telemetry::FrameSink, so a FleetSampler persists
//     while sampling; appends are mutex-serialized (workers call
//     concurrently).
//
//   StoreReader — builds a per-segment sparse index from block headers
//     alone (no payload decode), serves Query{t_min, t_max, stack_ids,
//     site_ids} through a pull Cursor that skips non-overlapping blocks,
//     and replays stored frames through a telemetry::Aggregator so alert
//     and health analysis runs identically live or offline.
//
//   Retention / compact — max-bytes and max-age policies: fully expired
//     segments are deleted, partially expired ones are rewritten without
//     their expired blocks (records are copied verbatim — no
//     recompression), atomically via rename.  StoreWriter::compact runs
//     the same pass online, touching only sealed segments, so it is safe
//     concurrently with an active writer.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/block.hpp"
#include "store/segment.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/fleet_sampler.hpp"

namespace tsvpt::store {

struct StoreOptions {
  /// Frames batched into one compressed block.  The block is the unit of
  /// CRC protection, query skipping and crash loss (an unsealed block dies
  /// with the process).
  std::size_t block_frames = 64;
  /// Roll to a new segment once the open one exceeds this many bytes.
  std::uint64_t segment_bytes = 4u << 20;
  /// fsync the open segment every N sealed blocks (0 = only on roll/close).
  std::size_t fsync_every_blocks = 8;
};

/// What to keep.  Zero fields mean "unlimited" for that axis.
struct Retention {
  /// Total sealed-segment byte budget; oldest whole segments are deleted
  /// until under it.
  std::uint64_t max_bytes = 0;
  /// Maximum simulated-time age relative to the newest frame in the store;
  /// blocks whose whole span is older expire.  A block ending exactly at
  /// the cutoff survives (closed interval).
  Second max_age{0.0};
};

struct CompactionReport {
  std::size_t segments_removed = 0;
  std::size_t segments_rewritten = 0;
  std::size_t blocks_dropped = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
};

struct StoreStats {
  std::size_t segments = 0;
  std::size_t blocks = 0;
  std::uint64_t frames = 0;
  /// Valid bytes across segment files (torn tails excluded).
  std::uint64_t bytes_on_disk = 0;
  /// What the same frames occupy in the raw wire codec.
  std::uint64_t bytes_raw = 0;
  /// Torn tails truncated (writer) or ignored (reader) since open.
  std::uint64_t torn_tail_recoveries = 0;
  /// Blocks whose payload CRC failed during reads (never served).
  std::uint64_t corrupt_blocks = 0;
  /// Simulated-time span across all indexed blocks (0/0 when empty).
  double t_min = 0.0;
  double t_max = 0.0;
  /// Sorted unique stack ids seen in block headers.
  std::vector<std::uint32_t> stack_ids;

  [[nodiscard]] double compression_ratio() const {
    return bytes_on_disk == 0
               ? 0.0
               : static_cast<double>(bytes_raw) /
                     static_cast<double>(bytes_on_disk);
  }
};

/// Offline retention pass over a store directory (no writer required).
CompactionReport compact_store(const std::string& dir,
                               const Retention& retention);

class StoreWriter : public telemetry::FrameSink {
 public:
  /// Opens (creating the directory if needed) and recovers: a torn tail on
  /// the newest segment is truncated and appending resumes after it.
  explicit StoreWriter(std::string dir, StoreOptions options = {});
  ~StoreWriter() override;

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Append one frame (thread-safe; FleetSampler workers call concurrently).
  void append(const telemetry::Frame& frame);

  /// telemetry::FrameSink: persist every frame the fleet produces.
  void on_frame(const telemetry::Frame& frame,
                const std::vector<std::uint8_t>& wire) override;

  /// Seal the partial block (if any) and fsync.  A crash after flush()
  /// loses nothing.
  void flush();

  /// flush() and close the open segment.  Idempotent; the destructor calls
  /// it.  Append after close throws.
  void close();

  /// Online retention pass: sealed segments only (the open segment is never
  /// touched), safe while appends continue on other threads.
  CompactionReport compact(const Retention& retention);

  /// Writer-side counters (thread-safe snapshot).
  [[nodiscard]] StoreStats stats() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  void seal_block_locked();
  void close_locked();
  [[nodiscard]] std::string segment_path(std::uint64_t index) const;

  std::string dir_;
  StoreOptions options_;

  mutable std::mutex mutex_;
  /// Serializes concurrent compact() callers; never held with mutex_ beyond
  /// the brief snapshot of the sealed-file list.
  std::mutex compact_mutex_;
  BlockBuilder builder_;
  std::optional<RecordLog> open_segment_;
  std::uint64_t next_segment_index_ = 1;
  bool closed_ = false;
  std::uint64_t torn_tail_recoveries_ = 0;
  /// Newest sim_time appended or recovered — the age-retention anchor,
  /// covering the open segment and buffered frames compaction cannot scan.
  double newest_t_ = std::numeric_limits<double>::lowest();
  bool saw_frame_ = false;
};

class StoreReader {
 public:
  /// Scan every segment and build the sparse block index (headers only).
  /// Torn tails are ignored (and counted); the writer may still be
  /// appending — the reader serves the complete blocks it indexed.
  explicit StoreReader(std::string dir);

  struct Query {
    double t_min = -std::numeric_limits<double>::infinity();
    double t_max = std::numeric_limits<double>::infinity();
    /// Empty = every stack.
    std::vector<std::uint32_t> stack_ids;
    /// Empty = every site; otherwise readings are pruned to these site
    /// indexes (frames left with no matching reading are skipped).
    std::vector<std::size_t> site_ids;

    [[nodiscard]] bool wants_stack(std::uint32_t id) const;
  };

  /// Pull iterator over matching frames in stored (append) order.  Blocks
  /// are decoded lazily and skipped wholesale when their header's time span
  /// or stack set cannot match.  Corrupt blocks are skipped and counted.
  class Cursor {
   public:
    /// Advance to the next matching frame; false at end.
    bool next(telemetry::Frame& out);
    [[nodiscard]] std::uint64_t corrupt_blocks() const { return corrupt_; }

   private:
    friend class StoreReader;
    Cursor(const StoreReader* reader, Query query);

    [[nodiscard]] bool load_more();

    const StoreReader* reader_;
    Query query_;
    std::size_t segment_ = 0;
    std::size_t block_ = 0;
    std::size_t loaded_segment_ = std::numeric_limits<std::size_t>::max();
    std::vector<std::uint8_t> file_;
    std::vector<telemetry::Frame> frames_;
    std::size_t frame_ = 0;
    std::uint64_t corrupt_ = 0;
    /// replay() clears this: pruning readings would renumber sites and break
    /// the wire codec's dense-index invariant on re-encode.
    bool prune_sites_ = true;
  };

  [[nodiscard]] Cursor scan(Query query) const;
  [[nodiscard]] Cursor scan() const { return scan(Query{}); }

  /// Collect up to `limit` matching frames.
  [[nodiscard]] std::vector<telemetry::Frame> query(
      const Query& query,
      std::size_t limit = std::numeric_limits<std::size_t>::max()) const;

  struct ReplayResult {
    std::uint64_t frames_replayed = 0;
    std::uint64_t corrupt_blocks = 0;
  };

  /// Feed matching frames through aggregator.ingest() in stored order —
  /// the same path live collection uses, so alerts, health transitions and
  /// statistics come out identically.  The aggregator must not be running
  /// a live collector.
  ReplayResult replay(const Query& query,
                      telemetry::Aggregator& aggregator) const;

  /// Index-derived stats (no payload decode).
  [[nodiscard]] StoreStats stats() const;

  /// Decode every indexed block, verifying payload CRCs; returns the
  /// number of corrupt blocks found.
  [[nodiscard]] std::uint64_t verify() const;

  [[nodiscard]] const std::vector<SegmentIndex>& segments() const {
    return segments_;
  }

 private:
  std::string dir_;
  std::vector<SegmentIndex> segments_;
  std::uint64_t torn_tails_ = 0;
};

/// List a store directory's segment files, sorted oldest first.
[[nodiscard]] std::vector<std::string> list_segment_files(
    const std::string& dir);

}  // namespace tsvpt::store
