#include "ingest/spill.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "net/framing.hpp"
#include "obs/metrics.hpp"
#include "telemetry/codec_util.hpp"

namespace tsvpt::ingest {

namespace {

constexpr const char* kLogName = "spill.log";
constexpr const char* kMarkerName = "spill.ack";

// Record header CRC covers seq + payload_len + frame_count.
constexpr std::size_t kRecordCrcCoverage = kSpillRecordHeaderSize - 4;
constexpr std::size_t kMarkerCrcCoverage = kSpillMarkerSize - 4;

[[nodiscard]] std::string log_path(const std::string& dir) {
  return (std::filesystem::path(dir) / kLogName).string();
}

[[nodiscard]] std::string marker_path(const std::string& dir) {
  return (std::filesystem::path(dir) / kMarkerName).string();
}

struct SpillMetrics {
  obs::Counter appends = obs::counter("tsvpt_spill_appends_total");
  obs::Counter bytes = obs::counter("tsvpt_spill_bytes_total");
  obs::Counter compactions = obs::counter("tsvpt_spill_compactions_total");
  obs::Gauge depth = obs::gauge("tsvpt_spill_depth_batches");
};

[[nodiscard]] SpillMetrics& metrics_of() {
  static SpillMetrics metrics;
  return metrics;
}

}  // namespace

SpillQueue::SpillQueue(std::string dir, store::RecordLog log)
    : dir_(std::move(dir)), log_(std::move(log)) {}

SpillQueue::~SpillQueue() {
  try {
    close();
  } catch (...) {
    // Destructor: swallow; close() is the throwing path for callers who care.
  }
}

SpillQueue SpillQueue::open(const std::string& dir, Options options,
                            RecoverInfo& info) {
  std::filesystem::create_directories(dir);

  // Load the ack marker first: the scan filters dead records against it.
  std::uint64_t acked = 0;
  std::uint64_t next_seq = 1;
  {
    std::vector<std::uint8_t> m;
    if (store::read_file(marker_path(dir), m) &&
        m.size() == kSpillMarkerSize &&
        telemetry::get_u32(m.data()) == kSpillAckMagic &&
        telemetry::get_u16(m.data() + 4) == kSpillFormat.version &&
        telemetry::get_u32(m.data() + kMarkerCrcCoverage) ==
            telemetry::crc32(m.data(), kMarkerCrcCoverage)) {
      acked = telemetry::get_u64(m.data() + 8);
      next_seq = telemetry::get_u64(m.data() + 16);
      info.marker_found = true;
    }
  }

  std::map<std::uint64_t, Record> index;
  std::uint64_t max_seq = 0;
  const auto whole = [&](const std::uint8_t* head, std::size_t size,
                         std::uint64_t offset) -> std::size_t {
    if (size < kSpillRecordHeaderSize ||
        telemetry::get_u32(head + kRecordCrcCoverage) !=
            telemetry::crc32(head, kRecordCrcCoverage)) {
      return 0;
    }
    const std::uint64_t seq = telemetry::get_u64(head);
    const std::uint32_t len = telemetry::get_u32(head + 8);
    const std::uint32_t frames = telemetry::get_u32(head + 12);
    if (len > net::kMaxBatchPayload + net::kBatchHeaderSize) return 0;
    const std::size_t record = kSpillRecordHeaderSize + len + 4;
    if (record > size) return 0;  // torn payload
    const std::uint8_t* payload = head + kSpillRecordHeaderSize;
    if (telemetry::get_u32(payload + len) != telemetry::crc32(payload, len)) {
      return 0;
    }
    max_seq = std::max(max_seq, seq);
    if (seq > acked) {
      index[seq] = Record{offset + kSpillRecordHeaderSize, len, frames};
    }
    return record;
  };
  store::LogScan scan;
  SpillQueue queue{dir, store::RecordLog::recover(log_path(dir), kSpillFormat,
                                                  options.fsync_every_batches,
                                                  whole, scan)};
  queue.index_ = std::move(index);
  queue.acked_seq_ = acked;
  queue.next_seq_ = std::max(next_seq, max_seq + 1);

  info.tail_truncated = queue.log_.tail_truncated();
  info.acked_seq = queue.acked_seq_;
  info.next_seq = queue.next_seq_;
  info.unacked_seqs.reserve(queue.index_.size());
  for (const auto& [seq, rec] : queue.index_) info.unacked_seqs.push_back(seq);
  metrics_of().depth.set(static_cast<double>(queue.index_.size()));
  return queue;
}

void SpillQueue::append(std::uint64_t seq, std::uint32_t frame_count,
                        const std::vector<std::uint8_t>& batch_bytes) {
  std::vector<std::uint8_t> record;
  record.reserve(kSpillRecordHeaderSize + batch_bytes.size() + 4);
  telemetry::put_u64(record, seq);
  telemetry::put_u32(record, static_cast<std::uint32_t>(batch_bytes.size()));
  telemetry::put_u32(record, frame_count);
  telemetry::put_u32(record, telemetry::crc32(record.data(),
                                              kRecordCrcCoverage));
  record.insert(record.end(), batch_bytes.begin(), batch_bytes.end());
  telemetry::put_u32(record,
                     telemetry::crc32(batch_bytes.data(), batch_bytes.size()));

  // One write() per record so a crash tears at most the final record.
  const std::uint64_t offset = log_.bytes();
  log_.append(record);

  index_[seq] = Record{offset + kSpillRecordHeaderSize,
                       static_cast<std::uint32_t>(batch_bytes.size()),
                       frame_count};
  if (seq >= next_seq_) {
    next_seq_ = seq + 1;
    marker_dirty_ = true;
  }
  metrics_of().appends.inc();
  metrics_of().bytes.add(record.size());
  metrics_of().depth.set(static_cast<double>(index_.size()));
}

bool SpillQueue::read(std::uint64_t seq, std::vector<std::uint8_t>& out) const {
  const auto it = index_.find(seq);
  return it != index_.end() &&
         log_.read(it->second.offset, it->second.length, out);
}

std::uint32_t SpillQueue::frame_count_of(std::uint64_t seq) const {
  const auto it = index_.find(seq);
  return it == index_.end() ? 0 : it->second.frames;
}

void SpillQueue::ack(std::uint64_t acked_seq) {
  if (acked_seq <= acked_seq_) return;
  acked_seq_ = acked_seq;
  marker_dirty_ = true;
  index_.erase(index_.begin(), index_.upper_bound(acked_seq));
  metrics_of().depth.set(static_cast<double>(index_.size()));
  acks_since_persist_ += 1;
  if (acks_since_persist_ >= kSpillMarkerEvery) persist_marker();
  maybe_compact();
}

void SpillQueue::note_next_seq(std::uint64_t next_seq) {
  if (next_seq > next_seq_) {
    next_seq_ = next_seq;
    marker_dirty_ = true;
  }
}

void SpillQueue::persist_marker() {
  if (!marker_dirty_) return;
  std::vector<std::uint8_t> m;
  m.reserve(kSpillMarkerSize);
  telemetry::put_u32(m, kSpillAckMagic);
  telemetry::put_u16(m, kSpillFormat.version);
  telemetry::put_u16(m, 0);
  telemetry::put_u64(m, acked_seq_);
  telemetry::put_u64(m, next_seq_);
  telemetry::put_u32(m, telemetry::crc32(m.data(), kMarkerCrcCoverage));
  store::replace_file_sync(marker_path(dir_), m);
  store::sync_dir(dir_);
  marker_dirty_ = false;
  acks_since_persist_ = 0;
}

void SpillQueue::maybe_compact() {
  if (!index_.empty() || !log_.is_open()) return;
  if (log_.bytes() < store::kLogHeaderSize + kSpillCompactMinBytes) return;
  // The marker must be durable before the records it supersedes vanish.
  persist_marker();
  log_.truncate_to_header();
  compactions_ += 1;
  metrics_of().compactions.inc();
}

void SpillQueue::sync() {
  log_.sync();
  persist_marker();
}

void SpillQueue::close() {
  if (!log_.is_open()) return;
  sync();
  log_.close();
}

}  // namespace tsvpt::ingest
