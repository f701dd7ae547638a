#include "net/framing.hpp"

#include <cstring>

#include "telemetry/codec_util.hpp"

namespace tsvpt::net {

namespace {

// Keep the consumed prefix from growing without bound on long-lived
// connections: once it passes this, shift the live tail to the front.
constexpr std::size_t kCompactThreshold = 1u << 16;

}  // namespace

const char* to_string(BatchStatus status) {
  switch (status) {
    case BatchStatus::kOk: return "ok";
    case BatchStatus::kBadMagic: return "bad-magic";
    case BatchStatus::kBadVersion: return "bad-version";
    case BatchStatus::kBadHeaderCrc: return "bad-header-crc";
    case BatchStatus::kOversized: return "oversized";
    case BatchStatus::kBadFrameBounds: return "bad-frame-bounds";
  }
  return "unknown";
}

const char* to_string(AckStatus status) {
  switch (status) {
    case AckStatus::kOk: return "ok";
    case AckStatus::kBadMagic: return "bad-magic";
    case AckStatus::kBadVersion: return "bad-version";
    case AckStatus::kBadCrc: return "bad-crc";
  }
  return "unknown";
}

std::size_t batch_wire_size(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  std::size_t payload = 0;
  for (const auto& f : frames) payload += 4 + f.size();
  return kBatchHeaderSize + payload;
}

std::vector<std::uint8_t> encode_batch(
    const std::vector<std::vector<std::uint8_t>>& frames,
    const BatchMeta& meta) {
  using telemetry::put_u16;
  using telemetry::put_u32;
  using telemetry::put_u64;
  std::vector<std::uint8_t> out;
  out.reserve(batch_wire_size(frames));
  std::size_t payload = 0;
  for (const auto& f : frames) payload += 4 + f.size();
  put_u32(out, kBatchMagic);
  put_u16(out, kBatchVersion);
  put_u16(out, meta.flags);
  put_u64(out, meta.publisher_id);
  put_u64(out, meta.seq);
  put_u32(out, static_cast<std::uint32_t>(frames.size()));
  put_u32(out, static_cast<std::uint32_t>(payload));
  put_u64(out, meta.trace_id);
  put_u64(out, meta.send_ns);
  put_u64(out, static_cast<std::uint64_t>(meta.offset_ns));
  put_u32(out, telemetry::crc32(out.data(), kBatchCrcCoverage));
  for (const auto& f : frames) {
    put_u32(out, static_cast<std::uint32_t>(f.size()));
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

namespace {

// In-place little-endian u64 store (put_u64 only appends).
void store_u64(std::uint8_t* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void store_u32(std::uint8_t* dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

bool restamp_batch_send(std::vector<std::uint8_t>& bytes,
                        std::uint64_t send_ns, std::int64_t offset_ns,
                        bool offset_valid) {
  if (bytes.size() < kBatchHeaderSize) return false;
  if (telemetry::get_u32(bytes.data()) != kBatchMagic) return false;
  std::uint16_t flags = telemetry::get_u16(bytes.data() + kBatchFlagsOffset);
  if (offset_valid) {
    flags |= kBatchFlagOffsetValid;
  } else {
    flags = static_cast<std::uint16_t>(flags & ~kBatchFlagOffsetValid);
  }
  bytes[kBatchFlagsOffset] = static_cast<std::uint8_t>(flags);
  bytes[kBatchFlagsOffset + 1] = static_cast<std::uint8_t>(flags >> 8);
  store_u64(bytes.data() + kBatchSendNsOffset, send_ns);
  store_u64(bytes.data() + kBatchOffsetNsOffset,
            static_cast<std::uint64_t>(offset_ns));
  store_u32(bytes.data() + kBatchHeaderCrcOffset,
            telemetry::crc32(bytes.data(), kBatchCrcCoverage));
  return true;
}

BatchStatus BatchParser::consume(const std::uint8_t* data, std::size_t size,
                                 const FrameHandler& on_frame) {
  if (status_ != BatchStatus::kOk) return status_;
  buffer_.insert(buffer_.end(), data, data + size);

  for (;;) {
    const std::size_t available = buffer_.size() - pos_;
    // Magic + version first: a foreign stream is rejected before a whole
    // header has to arrive.
    if (available < 8) break;
    const std::uint8_t* head = buffer_.data() + pos_;

    if (telemetry::get_u32(head) != kBatchMagic) {
      status_ = BatchStatus::kBadMagic;
      return status_;
    }
    if (telemetry::get_u16(head + kBatchVersionOffset) != kBatchVersion) {
      status_ = BatchStatus::kBadVersion;
      return status_;
    }
    if (available < kBatchHeaderSize) break;
    BatchInfo info;
    info.flags = telemetry::get_u16(head + kBatchFlagsOffset);
    info.publisher_id = telemetry::get_u64(head + kBatchPublisherIdOffset);
    info.seq = telemetry::get_u64(head + kBatchSeqOffset);
    info.frame_count = telemetry::get_u32(head + kBatchFrameCountOffset);
    info.payload_bytes = telemetry::get_u32(head + kBatchPayloadBytesOffset);
    info.trace_id = telemetry::get_u64(head + kBatchTraceIdOffset);
    info.send_ns = telemetry::get_u64(head + kBatchSendNsOffset);
    info.offset_ns = static_cast<std::int64_t>(
        telemetry::get_u64(head + kBatchOffsetNsOffset));
    if (telemetry::get_u32(head + kBatchHeaderCrcOffset) !=
        telemetry::crc32(head, kBatchCrcCoverage)) {
      status_ = BatchStatus::kBadHeaderCrc;
      return status_;
    }
    if (info.payload_bytes > kMaxBatchPayload ||
        info.frame_count > kMaxBatchFrames) {
      status_ = BatchStatus::kOversized;
      return status_;
    }
    if (available < kBatchHeaderSize + info.payload_bytes) break;  // partial

    // Validate every inner length before emitting anything, so a batch whose
    // lengths disagree with payload_bytes emits zero frames.
    const std::uint8_t* payload = head + kBatchHeaderSize;
    std::size_t cursor = 0;
    for (std::uint32_t i = 0; i < info.frame_count; ++i) {
      if (info.payload_bytes - cursor < 4) {
        status_ = BatchStatus::kBadFrameBounds;
        return status_;
      }
      const std::uint32_t len = telemetry::get_u32(payload + cursor);
      cursor += 4;
      if (info.payload_bytes - cursor < len) {
        status_ = BatchStatus::kBadFrameBounds;
        return status_;
      }
      cursor += len;
    }
    if (cursor != info.payload_bytes) {
      status_ = BatchStatus::kBadFrameBounds;
      return status_;
    }

    // The veto seam sees only fully validated batches, so a dedup decision
    // can never be made on bytes that later turn out to be torn.
    const bool emit = !on_batch_ || on_batch_(info);
    if (emit) {
      cursor = 0;
      for (std::uint32_t i = 0; i < info.frame_count; ++i) {
        const std::uint32_t len = telemetry::get_u32(payload + cursor);
        cursor += 4;
        std::vector<std::uint8_t> frame;
        frame.reserve(len + kFrameHeadroom);
        frame.assign(payload + cursor, payload + cursor + len);
        on_frame(std::move(frame));
        cursor += len;
      }
      frames_ += info.frame_count;
    } else {
      frames_skipped_ += info.frame_count;
    }

    pos_ += kBatchHeaderSize + info.payload_bytes;
    batches_ += 1;
    bytes_ += kBatchHeaderSize + info.payload_bytes;
  }

  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > kCompactThreshold) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return status_;
}

void append_ack(std::vector<std::uint8_t>& out, const AckFrame& ack) {
  using telemetry::put_u16;
  using telemetry::put_u32;
  using telemetry::put_u64;
  const std::size_t base = out.size();
  out.reserve(base + kAckFrameSize);
  put_u32(out, kAckMagic);
  put_u16(out, kAckVersion);
  put_u16(out, ack.flags);
  put_u64(out, ack.ack_seq);
  put_u32(out, ack.nack);
  put_u64(out, ack.echo_send_ns);
  put_u64(out, ack.srv_rx_ns);
  put_u64(out, ack.srv_tx_ns);
  put_u32(out, telemetry::crc32(out.data() + base, kAckCrcCoverage));
}

std::vector<std::uint8_t> encode_ack(const AckFrame& ack) {
  std::vector<std::uint8_t> out;
  append_ack(out, ack);
  return out;
}

AckStatus AckParser::consume(const std::uint8_t* data, std::size_t size,
                             const AckHandler& on_ack) {
  if (status_ != AckStatus::kOk) return status_;
  buffer_.insert(buffer_.end(), data, data + size);

  for (;;) {
    if (buffer_.size() - pos_ < 8) break;
    const std::uint8_t* head = buffer_.data() + pos_;
    if (telemetry::get_u32(head) != kAckMagic) {
      status_ = AckStatus::kBadMagic;
      return status_;
    }
    if (telemetry::get_u16(head + kAckVersionOffset) != kAckVersion) {
      status_ = AckStatus::kBadVersion;
      return status_;
    }
    if (buffer_.size() - pos_ < kAckFrameSize) break;
    if (telemetry::get_u32(head + kAckCrcOffset) !=
        telemetry::crc32(head, kAckCrcCoverage)) {
      status_ = AckStatus::kBadCrc;
      return status_;
    }
    AckFrame ack;
    ack.flags = telemetry::get_u16(head + kAckFlagsOffset);
    ack.ack_seq = telemetry::get_u64(head + kAckSeqOffset);
    ack.nack = telemetry::get_u32(head + kAckNackOffset);
    ack.echo_send_ns = telemetry::get_u64(head + kAckEchoSendNsOffset);
    ack.srv_rx_ns = telemetry::get_u64(head + kAckSrvRxNsOffset);
    ack.srv_tx_ns = telemetry::get_u64(head + kAckSrvTxNsOffset);
    pos_ += kAckFrameSize;
    acks_ += 1;
    on_ack(ack);
  }

  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > kCompactThreshold) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return status_;
}

}  // namespace tsvpt::net
