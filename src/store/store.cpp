#include "store/store.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tsvpt::store {

namespace {

/// Historian instrumentation.  The writer side runs under mutex_ on
/// whichever sampler worker seals the block, the reader side on whoever
/// drives the cursor — the sharded handles serve both without contention.
struct StoreMetrics {
  obs::Counter frames_appended =
      obs::counter("tsvpt_store_frames_appended_total");
  obs::Counter blocks_sealed = obs::counter("tsvpt_store_blocks_sealed_total");
  obs::Counter bytes_written = obs::counter("tsvpt_store_bytes_written_total");
  obs::Counter segment_rolls =
      obs::counter("tsvpt_store_segment_rolls_total");
  obs::Counter torn_tails = obs::counter("tsvpt_store_torn_tails_total");
  obs::Counter blocks_decoded =
      obs::counter("tsvpt_store_blocks_decoded_total");
  obs::Counter blocks_skipped =
      obs::counter("tsvpt_store_blocks_skipped_total");
  obs::Counter corrupt_blocks =
      obs::counter("tsvpt_store_corrupt_blocks_total");
  obs::Histogram seal_seconds =
      obs::histogram("tsvpt_store_block_seal_seconds");
  obs::Histogram decode_seconds =
      obs::histogram("tsvpt_store_block_decode_seconds");
  obs::Histogram recover_seconds =
      obs::histogram("tsvpt_store_recover_seconds");

  static const StoreMetrics& get() {
    static const StoreMetrics metrics;
    return metrics;
  }
};

constexpr const char* kSegmentPrefix = "seg-";
constexpr const char* kSegmentSuffix = ".tsl";

/// seg-NNNNNN.tsl with all digits between prefix and suffix.
bool is_segment_name(const std::string& name) {
  const std::string prefix = kSegmentPrefix;
  const std::string suffix = kSegmentSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) return false;
  }
  return true;
}

std::uint64_t segment_index_of(const std::string& path) {
  const std::string name = std::filesystem::path{path}.filename().string();
  const std::size_t prefix = std::string{kSegmentPrefix}.size();
  const std::size_t digits =
      name.size() - prefix - std::string{kSegmentSuffix}.size();
  return std::stoull(name.substr(prefix, digits));
}

StoreStats stats_from_segments(const std::vector<SegmentIndex>& segments,
                               std::uint64_t torn_tail_recoveries) {
  StoreStats stats;
  stats.torn_tail_recoveries = torn_tail_recoveries;
  std::set<std::uint32_t> ids;
  bool any_block = false;
  for (const SegmentIndex& segment : segments) {
    if (!segment.valid_header) continue;
    stats.segments += 1;
    stats.bytes_on_disk += segment.valid_bytes;
    for (const BlockIndexEntry& block : segment.blocks) {
      stats.blocks += 1;
      stats.frames += block.header.frame_count;
      stats.bytes_raw += block.header.raw_bytes;
      if (!any_block) {
        stats.t_min = block.header.t_min;
        stats.t_max = block.header.t_max;
        any_block = true;
      } else {
        stats.t_min = std::min(stats.t_min, block.header.t_min);
        stats.t_max = std::max(stats.t_max, block.header.t_max);
      }
      ids.insert(block.header.stack_ids.begin(),
                 block.header.stack_ids.end());
    }
  }
  stats.stack_ids.assign(ids.begin(), ids.end());
  return stats;
}

/// One retention pass over `files` (sealed segments, oldest first).  Age
/// expiry first — delete fully expired segments, rewrite partially expired
/// ones without their expired blocks — then the byte budget, deleting whole
/// oldest segments until under it.  `newest_hint` extends the age anchor
/// past what the files themselves hold (the writer's open segment).
CompactionReport run_compaction(const std::string& dir,
                                const std::vector<std::string>& files,
                                const Retention& retention,
                                double newest_hint) {
  CompactionReport report;
  std::vector<SegmentIndex> segments;
  segments.reserve(files.size());
  for (const std::string& file : files) {
    segments.push_back(scan_segment(file));
  }

  double newest = newest_hint;
  for (const SegmentIndex& segment : segments) {
    for (const BlockIndexEntry& block : segment.blocks) {
      newest = std::max(newest, block.header.t_max);
    }
  }
  for (const SegmentIndex& segment : segments) {
    report.bytes_before += segment.valid_bytes;
  }
  report.bytes_after = report.bytes_before;

  std::vector<bool> removed(segments.size(), false);
  const auto drop_segment = [&](std::size_t i) {
    const SegmentIndex& segment = segments[i];
    report.segments_removed += 1;
    report.blocks_dropped += segment.blocks.size();
    report.frames_dropped += segment.frames();
    report.bytes_after -= segment.valid_bytes;
    std::error_code ec;
    std::filesystem::remove(segment.path, ec);
    removed[i] = true;
  };

  bool mutated = false;
  if (retention.max_age.value() > 0.0 &&
      newest > std::numeric_limits<double>::lowest()) {
    const double cutoff = newest - retention.max_age.value();
    for (std::size_t i = 0; i < segments.size(); ++i) {
      SegmentIndex& segment = segments[i];
      if (!segment.valid_header || segment.blocks.empty()) continue;
      const auto expired = [&](const BlockIndexEntry& block) {
        // Strict: a block ending exactly at the cutoff survives.
        return block.header.t_max < cutoff;
      };
      const std::size_t expired_count = static_cast<std::size_t>(
          std::count_if(segment.blocks.begin(), segment.blocks.end(),
                        expired));
      if (expired_count == 0) continue;
      mutated = true;
      if (expired_count == segment.blocks.size()) {
        drop_segment(i);
        continue;
      }
      // Partially expired: rewrite without the expired blocks, copying the
      // surviving records verbatim (no recompression), atomically.
      std::vector<std::uint8_t> bytes;
      if (!read_file(segment.path, bytes)) continue;
      std::vector<std::uint8_t> out = kSegmentFormat.header();
      out.reserve(segment.valid_bytes);
      std::vector<BlockIndexEntry> kept;
      for (const BlockIndexEntry& block : segment.blocks) {
        if (expired(block)) {
          report.blocks_dropped += 1;
          report.frames_dropped += block.header.frame_count;
          continue;
        }
        if (block.offset + block.size > bytes.size()) continue;
        BlockIndexEntry moved = block;
        moved.offset = out.size();
        out.insert(out.end(), bytes.begin() + static_cast<long>(block.offset),
                   bytes.begin() + static_cast<long>(block.offset +
                                                     block.size));
        kept.push_back(std::move(moved));
      }
      replace_file_sync(segment.path, out);
      report.segments_rewritten += 1;
      report.bytes_after -= segment.valid_bytes - out.size();
      segment.valid_bytes = out.size();
      segment.file_bytes = out.size();
      segment.blocks = std::move(kept);
    }
  }

  if (retention.max_bytes > 0) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (!removed[i]) total += segments[i].valid_bytes;
    }
    for (std::size_t i = 0; i < segments.size() && total > retention.max_bytes;
         ++i) {
      if (removed[i]) continue;
      total -= segments[i].valid_bytes;
      drop_segment(i);
      mutated = true;
    }
  }

  if (mutated) sync_dir(dir);
  return report;
}

}  // namespace

std::vector<std::string> list_segment_files(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator{dir, ec}) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!is_segment_name(name)) continue;
    files.push_back(entry.path().string());
  }
  // Zero-padded names sort chronologically; length-first keeps overflow
  // past six digits ordered too.
  std::sort(files.begin(), files.end(),
            [](const std::string& a, const std::string& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  return files;
}

CompactionReport compact_store(const std::string& dir,
                               const Retention& retention) {
  return run_compaction(dir, list_segment_files(dir), retention,
                        std::numeric_limits<double>::lowest());
}

// ---------------------------------------------------------------------------
// StoreWriter

StoreWriter::StoreWriter(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.block_frames == 0) options_.block_frames = 1;
  const obs::ObsSpan recover_span{"store", "recover",
                                  StoreMetrics::get().recover_seconds};
  std::filesystem::create_directories(dir_);
  const std::vector<std::string> files = list_segment_files(dir_);
  if (files.empty()) return;
  next_segment_index_ = segment_index_of(files.back()) + 1;
  // Only the newest segment can be torn (older ones were synced before the
  // roll); recover it and resume appending there if it still has room.
  SegmentIndex recovered;
  recovered.path = files.back();
  RecordLog log = RecordLog::recover(recovered.path, kSegmentFormat,
                                     options_.fsync_every_blocks,
                                     block_check(recovered.blocks), recovered);
  if (log.tail_truncated()) {
    torn_tail_recoveries_ += 1;
    StoreMetrics::get().torn_tails.inc();
  }
  for (const BlockIndexEntry& block : recovered.blocks) {
    newest_t_ = saw_frame_ ? std::max(newest_t_, block.header.t_max)
                           : block.header.t_max;
    saw_frame_ = true;
  }
  if (log.bytes() < options_.segment_bytes) {
    open_segment_.emplace(std::move(log));
  } else {
    log.close();
  }
}

StoreWriter::~StoreWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; close() failures surface via explicit
    // close() calls.
  }
}

void StoreWriter::append(const telemetry::Frame& frame) {
  std::lock_guard<std::mutex> lock{mutex_};
  if (closed_) throw std::logic_error{"StoreWriter: append after close"};
  StoreMetrics::get().frames_appended.inc();
  builder_.add(frame);
  newest_t_ = saw_frame_ ? std::max(newest_t_, frame.sim_time.value())
                         : frame.sim_time.value();
  saw_frame_ = true;
  if (builder_.frame_count() >= options_.block_frames) seal_block_locked();
}

void StoreWriter::on_frame(const telemetry::Frame& frame,
                           const std::vector<std::uint8_t>& wire) {
  (void)wire;  // the builder re-derives raw size; the frame is authoritative
  append(frame);
}

void StoreWriter::seal_block_locked() {
  const StoreMetrics& metrics = StoreMetrics::get();
  // One span covers compress + append (+ the amortized fsync inside
  // append); segment rolls get their own span since they add a
  // close-with-fsync and a create.
  const obs::ObsSpan seal_span{"store", "seal_block", metrics.seal_seconds,
                               builder_.frame_count()};
  const std::vector<std::uint8_t> record = builder_.seal();
  if (!open_segment_) {
    open_segment_.emplace(RecordLog::create(segment_path(next_segment_index_),
                                            kSegmentFormat,
                                            options_.fsync_every_blocks));
    next_segment_index_ += 1;
  }
  open_segment_->append(record);
  metrics.blocks_sealed.inc();
  metrics.bytes_written.add(record.size());
  if (open_segment_->bytes() >= options_.segment_bytes) {
    const obs::ObsSpan roll_span{"store", "segment_roll"};
    open_segment_->close();
    open_segment_.reset();  // the next seal opens the successor
    metrics.segment_rolls.inc();
  }
}

void StoreWriter::flush() {
  std::lock_guard<std::mutex> lock{mutex_};
  if (closed_) return;
  if (!builder_.empty()) seal_block_locked();
  if (open_segment_) open_segment_->sync();
}

void StoreWriter::close_locked() {
  if (closed_) return;
  if (!builder_.empty()) seal_block_locked();
  if (open_segment_) {
    open_segment_->close();
    open_segment_.reset();
  }
  closed_ = true;
}

void StoreWriter::close() {
  std::lock_guard<std::mutex> lock{mutex_};
  close_locked();
}

CompactionReport StoreWriter::compact(const Retention& retention) {
  std::lock_guard<std::mutex> serialize{compact_mutex_};
  std::vector<std::string> sealed;
  double newest = std::numeric_limits<double>::lowest();
  {
    std::lock_guard<std::mutex> lock{mutex_};
    const std::string open_path =
        open_segment_ ? open_segment_->path() : std::string{};
    for (std::string& file : list_segment_files(dir_)) {
      if (file != open_path) sealed.push_back(std::move(file));
    }
    if (saw_frame_) newest = newest_t_;
  }
  // Appends may continue: they only ever touch the open segment (excluded
  // above) or create segments newer than this snapshot (untouched).
  return run_compaction(dir_, sealed, retention, newest);
}

StoreStats StoreWriter::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<SegmentIndex> segments;
  for (const std::string& file : list_segment_files(dir_)) {
    segments.push_back(scan_segment(file));
  }
  return stats_from_segments(segments, torn_tail_recoveries_);
}

std::string StoreWriter::segment_path(std::uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof name, "%s%06llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(index), kSegmentSuffix);
  return dir_ + "/" + name;
}

// ---------------------------------------------------------------------------
// StoreReader

StoreReader::StoreReader(std::string dir) : dir_(std::move(dir)) {
  const obs::ObsSpan recover_span{"store", "recover",
                                  StoreMetrics::get().recover_seconds};
  for (const std::string& file : list_segment_files(dir_)) {
    SegmentIndex index = scan_segment(file);
    if (index.torn_tail()) torn_tails_ += 1;
    segments_.push_back(std::move(index));
  }
}

bool StoreReader::Query::wants_stack(std::uint32_t id) const {
  return stack_ids.empty() ||
         std::find(stack_ids.begin(), stack_ids.end(), id) != stack_ids.end();
}

StoreReader::Cursor::Cursor(const StoreReader* reader, Query query)
    : reader_(reader), query_(std::move(query)) {}

bool StoreReader::Cursor::next(telemetry::Frame& out) {
  for (;;) {
    while (frame_ < frames_.size()) {
      telemetry::Frame& frame = frames_[frame_];
      frame_ += 1;
      const double t = frame.sim_time.value();
      if (t < query_.t_min || t > query_.t_max) continue;
      if (!query_.wants_stack(frame.stack_id)) continue;
      if (!query_.site_ids.empty()) {
        const auto listed = [&](const core::StackMonitor::SiteReading& r) {
          return std::find(query_.site_ids.begin(), query_.site_ids.end(),
                           r.site_index) != query_.site_ids.end();
        };
        if (prune_sites_) {
          std::vector<core::StackMonitor::SiteReading> kept;
          for (const auto& reading : frame.readings) {
            if (listed(reading)) kept.push_back(reading);
          }
          if (kept.empty()) continue;
          frame.readings = std::move(kept);
        } else if (std::none_of(frame.readings.begin(), frame.readings.end(),
                                listed)) {
          continue;
        }
      }
      out = std::move(frame);
      return true;
    }
    if (!load_more()) return false;
  }
}

bool StoreReader::Cursor::load_more() {
  const StoreMetrics& metrics = StoreMetrics::get();
  const std::vector<SegmentIndex>& segments = reader_->segments_;
  while (segment_ < segments.size()) {
    const SegmentIndex& segment = segments[segment_];
    if (block_ >= segment.blocks.size()) {
      segment_ += 1;
      block_ = 0;
      continue;
    }
    const BlockIndexEntry& entry = segment.blocks[block_];
    block_ += 1;
    // The sparse index: skip whole blocks whose header's time span or stack
    // set cannot match, without touching the payload.
    if (!entry.header.overlaps(query_.t_min, query_.t_max)) {
      metrics.blocks_skipped.inc();
      continue;
    }
    if (!query_.stack_ids.empty() &&
        std::none_of(query_.stack_ids.begin(), query_.stack_ids.end(),
                     [&](std::uint32_t id) {
                       return entry.header.contains_stack(id);
                     })) {
      metrics.blocks_skipped.inc();
      continue;
    }
    if (loaded_segment_ != segment_) {
      if (!read_file(segment.path, file_)) {
        corrupt_ += 1;
        metrics.corrupt_blocks.inc();
        continue;
      }
      loaded_segment_ = segment_;
    }
    if (entry.offset + entry.size > file_.size()) {
      corrupt_ += 1;  // file changed under the index (concurrent compaction)
      metrics.corrupt_blocks.inc();
      continue;
    }
    frames_.clear();
    frame_ = 0;
    const obs::ObsSpan decode_span{"store", "decode_block",
                                   metrics.decode_seconds,
                                   entry.header.frame_count};
    if (decode_block(file_.data() + entry.offset,
                     static_cast<std::size_t>(entry.size),
                     frames_) != BlockStatus::kOk) {
      corrupt_ += 1;
      metrics.corrupt_blocks.inc();
      continue;
    }
    metrics.blocks_decoded.inc();
    if (!frames_.empty()) return true;
  }
  return false;
}

StoreReader::Cursor StoreReader::scan(Query query) const {
  return Cursor{this, std::move(query)};
}

std::vector<telemetry::Frame> StoreReader::query(const Query& query,
                                                 std::size_t limit) const {
  std::vector<telemetry::Frame> frames;
  Cursor cursor = scan(query);
  telemetry::Frame frame;
  while (frames.size() < limit && cursor.next(frame)) {
    frames.push_back(std::move(frame));
  }
  return frames;
}

StoreReader::ReplayResult StoreReader::replay(
    const Query& query, telemetry::Aggregator& aggregator) const {
  ReplayResult result;
  Cursor cursor = scan(query);
  // Replay feeds whole frames: pruning readings would renumber sites and
  // break the wire codec's dense-index invariant.  site_ids still selects
  // *which frames* replay (those with at least one matching reading).
  cursor.prune_sites_ = false;
  telemetry::Frame frame;
  while (cursor.next(frame)) {
    aggregator.ingest(telemetry::encode(frame));
    result.frames_replayed += 1;
  }
  result.corrupt_blocks = cursor.corrupt_blocks();
  return result;
}

StoreStats StoreReader::stats() const {
  return stats_from_segments(segments_, torn_tails_);
}

std::uint64_t StoreReader::verify() const {
  std::uint64_t corrupt = 0;
  std::vector<std::uint8_t> bytes;
  std::vector<telemetry::Frame> scratch;
  for (const SegmentIndex& segment : segments_) {
    if (!segment.valid_header) continue;
    if (!read_file(segment.path, bytes)) {
      corrupt += segment.blocks.size();
      continue;
    }
    for (const BlockIndexEntry& block : segment.blocks) {
      if (block.offset + block.size > bytes.size()) {
        corrupt += 1;
        continue;
      }
      scratch.clear();
      if (decode_block(bytes.data() + block.offset,
                       static_cast<std::size_t>(block.size),
                       scratch) != BlockStatus::kOk) {
        corrupt += 1;
      }
    }
  }
  return corrupt;
}

}  // namespace tsvpt::store
