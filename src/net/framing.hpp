// Batch framing for the fleet telemetry transport.  A TCP stream carries a
// sequence of batches, each wrapping zero or more v2 telemetry wire frames:
//
//   [magic u32 "TSVB"] [version u16 = 3] [flags u16]
//   [publisher_id u64] [batch_seq u64]
//   [frame_count u32] [payload_bytes u32]
//   [trace_id u64] [send_ns u64] [offset_ns i64]
//   [header_crc32 u32]                                        -- 60 bytes
//   payload: frame_count x { [len u32] [len bytes of v2 frame] }
//
// Protocol v2 added the delivery-guarantee fields: every data batch carries
// its publisher's stable id and a per-publisher sequence number (starting at
// 1), which the server acks cumulatively and dedups against, making
// retransmission idempotent.  Flags mark the two zero-frame control batches:
// kBatchFlagHeartbeat (keepalive from an idle publisher; carries no seq) and
// kBatchFlagFin (drain handshake; batch_seq echoes the highest data seq the
// publisher allocated, so the server can report "drained" once its
// cumulative ack reaches it).
//
// Protocol v3 adds the trace-context fields, and is the only version this
// build speaks (any other version poisons the parser with kBadVersion):
// `trace_id` names this batch in both
// processes' flight recorders so a TraceMerge can pair the publisher's send
// span with the server's receive span; `send_ns` is the publisher's steady
// clock at the moment of the socket write (re-stamped on every send attempt
// via restamp_batch_send, so a retransmit carries a fresh timestamp); and
// `offset_ns` ships the publisher's current ClockAlign estimate
// (server_clock - publisher_clock), valid only under kBatchFlagOffsetValid,
// letting the server re-base publisher timestamps onto its own clock for
// cross-process latency attribution.
//
// The header CRC covers the first 32 header bytes, so a corrupted or
// desynchronised stream is rejected before any length field is trusted.
// Inner frames carry their own CRC (telemetry::decode verifies it), so a
// payload byte flipped on the wire surfaces as a per-frame decode error at
// the aggregator, not as UB or a poisoned connection.
//
// BatchParser is an incremental consumer: feed it whatever recv() returned —
// a byte at a time, half a header, three batches at once — and it emits each
// completed inner frame exactly once.  Any structural violation (bad magic,
// bad header CRC, frame lengths that disagree with payload_bytes, absurd
// sizes) poisons the parser: the connection cannot be trusted past that
// point and must be dropped.  A partial batch at orderly disconnect is NOT
// an error — a SIGKILL'd publisher must leave the server consistent, so the
// tail is simply discarded.  An optional BatchHandler sees every validated
// batch header before its frames are emitted and may veto emission (the
// server's dedup seam: a retransmitted batch parses cleanly but its frames
// are skipped).
//
// The reverse direction is the ack channel: the server answers accepted
// batches with fixed-size TSVA frames carrying its cumulative ack (and, on
// protocol error, a best-effort nack naming the BatchStatus).  AckParser is
// the publisher-side incremental decoder with the same poison discipline.
//
// TransportHook is the chaos seam: the publisher offers every outgoing batch
// to the hook, which may stall, truncate (cutting the connection mid-batch),
// corrupt bytes in place, duplicate the send, or drop the connection after a
// clean send; incoming acks pass through on_ack, which may drop or delay
// them.  It lives here (not in inject/) so inject can depend on net without
// ingest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace tsvpt::net {

inline constexpr std::uint32_t kBatchMagic = 0x42565354u;  // "TSVB" LE
inline constexpr std::uint16_t kBatchVersion = 3;
inline constexpr std::size_t kBatchHeaderSize = 60;

// Byte-level batch header maps.  The `layout:` / `field:` comments are
// wire-layout lint directives: tsvpt_lint cross-checks that each header's
// fields start at 0, stay contiguous and non-overlapping, sum to the
// declared header size, and that the CRC span stays inside the header — an
// off-by-one here fails LintClean before it can corrupt a stream.

// layout: tsvb_v3 size=60 crc=[0,56)
inline constexpr std::size_t kBatchMagicOffset = 0;          // field: magic size=4
inline constexpr std::size_t kBatchVersionOffset = 4;        // field: version size=2
inline constexpr std::size_t kBatchFlagsOffset = 6;          // field: flags size=2
inline constexpr std::size_t kBatchPublisherIdOffset = 8;    // field: publisher_id size=8
inline constexpr std::size_t kBatchSeqOffset = 16;           // field: batch_seq size=8
inline constexpr std::size_t kBatchFrameCountOffset = 24;    // field: frame_count size=4
inline constexpr std::size_t kBatchPayloadBytesOffset = 28;  // field: payload_bytes size=4
inline constexpr std::size_t kBatchTraceIdOffset = 32;       // field: trace_id size=8
inline constexpr std::size_t kBatchSendNsOffset = 40;        // field: send_ns size=8
inline constexpr std::size_t kBatchOffsetNsOffset = 48;      // field: offset_ns size=8
inline constexpr std::size_t kBatchHeaderCrcOffset = 56;     // field: header_crc size=4
/// Bytes the v3 header CRC covers (everything before the CRC field).
inline constexpr std::size_t kBatchCrcCoverage = 56;
/// Upper bounds a well-formed batch may claim; anything larger is treated as
/// stream corruption rather than trusted as an allocation size.
inline constexpr std::uint32_t kMaxBatchPayload = 64u << 20;
inline constexpr std::uint32_t kMaxBatchFrames = 1u << 20;

/// Zero-frame keepalive from an idle publisher; carries no sequence number.
inline constexpr std::uint16_t kBatchFlagHeartbeat = 1u << 0;
/// Drain handshake: "my highest allocated data seq is batch_seq; tell me
/// when your cumulative ack reaches it."
inline constexpr std::uint16_t kBatchFlagFin = 1u << 1;
/// The header's offset_ns carries a live ClockAlign estimate (a publisher
/// that has not completed a round trip yet sends 0 without this flag).
inline constexpr std::uint16_t kBatchFlagOffsetValid = 1u << 2;

/// Per-batch metadata stamped into the v3 header.  The defaults encode an
/// anonymous best-effort publisher: a caller that passes only frames gets a
/// valid unsequenced batch (seq 0 batches bypass ack and dedup).
struct BatchMeta {
  std::uint64_t publisher_id = 0;
  /// Data batch sequence, starting at 1; 0 = unsequenced (no ack/dedup).
  std::uint64_t seq = 0;
  std::uint16_t flags = 0;
  /// Trace-context id pairing this batch's spans across processes.
  std::uint64_t trace_id = 0;
  /// Publisher steady clock at socket write, ns (restamped per attempt).
  std::uint64_t send_ns = 0;
  /// Publisher's ClockAlign estimate (server - publisher), ns; meaningful
  /// only under kBatchFlagOffsetValid.
  std::int64_t offset_ns = 0;
};

/// Serialize `frames` (each an encoded v2 wire frame) into one batch.
[[nodiscard]] std::vector<std::uint8_t> encode_batch(
    const std::vector<std::vector<std::uint8_t>>& frames,
    const BatchMeta& meta = {});

/// Bytes a batch of these frames occupies on the wire.
[[nodiscard]] std::size_t batch_wire_size(
    const std::vector<std::vector<std::uint8_t>>& frames);

/// Re-stamp a previously encoded batch's send timestamp and clock offset in
/// place (header CRC recomputed) — called immediately before every send
/// attempt so retransmits carry fresh timestamps.  `offset_valid` sets or
/// clears kBatchFlagOffsetValid.  Returns false, leaving the bytes
/// untouched, when they are too short or do not start with the batch magic.
[[nodiscard]] bool restamp_batch_send(std::vector<std::uint8_t>& bytes,
                                      std::uint64_t send_ns,
                                      std::int64_t offset_ns,
                                      bool offset_valid);

enum class BatchStatus : std::uint8_t {
  kOk,             // all fed bytes consumed (possibly buffering a partial)
  kBadMagic,       // stream desynchronised or not a TSVB stream
  kBadVersion,     // version this build does not speak
  kBadHeaderCrc,   // header corrupted on the wire
  kOversized,      // claimed payload/frame count above sanity bounds
  kBadFrameBounds  // inner frame lengths disagree with payload_bytes
};

[[nodiscard]] const char* to_string(BatchStatus status);

/// A validated batch header, surfaced to the BatchHandler before any of the
/// batch's frames are emitted.
struct BatchInfo {
  std::uint64_t publisher_id = 0;
  std::uint64_t seq = 0;
  std::uint16_t flags = 0;
  std::uint32_t frame_count = 0;
  std::uint32_t payload_bytes = 0;
  /// Trace-context fields.
  std::uint64_t trace_id = 0;
  std::uint64_t send_ns = 0;
  std::int64_t offset_ns = 0;

  [[nodiscard]] bool heartbeat() const {
    return (flags & kBatchFlagHeartbeat) != 0;
  }
  [[nodiscard]] bool fin() const { return (flags & kBatchFlagFin) != 0; }
  [[nodiscard]] bool offset_valid() const {
    return (flags & kBatchFlagOffsetValid) != 0;
  }
};

/// Spare capacity of every frame a BatchParser emits: room for a receiver
/// to append a trailer (the IngestServer's 16-byte shard-ring trailer)
/// without reallocating and copying the frame again.
inline constexpr std::size_t kFrameHeadroom = 16;

/// Incremental batch stream decoder.  One instance per connection; any
/// status other than kOk is sticky and the connection must be closed.
class BatchParser {
 public:
  using FrameHandler = std::function<void(std::vector<std::uint8_t>&&)>;
  /// Sees every validated batch before its frames; return false to skip
  /// frame emission (the batch still counts in batches()/bytes()).
  using BatchHandler = std::function<bool(const BatchInfo&)>;

  /// Install the per-batch veto seam (dedup, heartbeat/FIN handling).
  void set_batch_handler(BatchHandler handler) {
    on_batch_ = std::move(handler);
  }

  /// Feed `size` received bytes; `on_frame` is invoked once per completed
  /// inner frame, in stream order.  A batch's frames are only emitted after
  /// the whole batch has been validated, so a batch that fails validation
  /// emits nothing.  Each emitted frame has kFrameHeadroom bytes of spare
  /// capacity.
  [[nodiscard]] BatchStatus consume(const std::uint8_t* data,
                                    std::size_t size,
                                    const FrameHandler& on_frame);

  [[nodiscard]] bool failed() const { return status_ != BatchStatus::kOk; }
  [[nodiscard]] BatchStatus status() const { return status_; }

  /// Bytes buffered awaiting a batch's completion; nonzero at disconnect
  /// means the peer died mid-batch (the tail is discarded, not an error).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  /// Frames inside batches a BatchHandler vetoed (dedup skips).
  [[nodiscard]] std::uint64_t frames_skipped() const {
    return frames_skipped_;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  // consumed prefix of buffer_
  BatchStatus status_ = BatchStatus::kOk;
  BatchHandler on_batch_;
  std::uint64_t batches_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t frames_skipped_ = 0;
};

// --- server -> client ack channel ------------------------------------------

inline constexpr std::uint32_t kAckMagic = 0x41565354u;  // "TSVA" LE
inline constexpr std::uint16_t kAckVersion = 2;
inline constexpr std::size_t kAckFrameSize = 48;

// layout: tsva_v2 size=48 crc=[0,44)
inline constexpr std::size_t kAckMagicOffset = 0;        // field: magic size=4
inline constexpr std::size_t kAckVersionOffset = 4;      // field: version size=2
inline constexpr std::size_t kAckFlagsOffset = 6;        // field: flags size=2
inline constexpr std::size_t kAckSeqOffset = 8;          // field: ack_seq size=8
inline constexpr std::size_t kAckNackOffset = 16;        // field: nack size=4
inline constexpr std::size_t kAckEchoSendNsOffset = 20;  // field: echo_send_ns size=8
inline constexpr std::size_t kAckSrvRxNsOffset = 28;     // field: srv_rx_ns size=8
inline constexpr std::size_t kAckSrvTxNsOffset = 36;     // field: srv_tx_ns size=8
inline constexpr std::size_t kAckCrcOffset = 44;         // field: crc size=4
/// Bytes the v2 ack CRC covers.
inline constexpr std::size_t kAckCrcCoverage = 44;

/// The nack field carries a BatchStatus and the connection is being closed.
inline constexpr std::uint16_t kAckFlagNack = 1u << 0;
/// The publisher's FIN seq is covered by ack_seq: it may close cleanly.
inline constexpr std::uint16_t kAckFlagDrained = 1u << 1;

/// One fixed-size ack frame (v2, 48 bytes; any other version poisons the
/// AckParser with kBadVersion):
///   [magic u32 "TSVA"] [version u16 = 2] [flags u16]
///   [ack_seq u64] [nack u32]
///   [echo_send_ns u64] [srv_rx_ns u64] [srv_tx_ns u64]
///   [crc32 u32 over the first 44 bytes]
/// The timestamp trio gives the publisher the full NTP four-tuple: t1 =
/// the departure of the batch whose send stamp echo_send_ns echoes back,
/// t2 = srv_rx_ns (server clock at the batch's arrival), t3 = srv_tx_ns
/// (server clock at ack build), and t4 is the publisher's clock on ack
/// arrival (obs/clock_align.hpp).
struct AckFrame {
  std::uint16_t flags = 0;
  /// Cumulative: the highest batch seq accepted from this publisher (0 =
  /// none yet).  Everything at or below it is durably ingested or was
  /// deliberately skipped by the publisher itself.
  std::uint64_t ack_seq = 0;
  /// BatchStatus (as u32) when kAckFlagNack is set; 0 otherwise.
  std::uint32_t nack = 0;
  /// send_ns of the most recent batch this ack covers, echoed verbatim
  /// (0 = no timestamped batch seen yet).
  std::uint64_t echo_send_ns = 0;
  /// Server steady clock when that batch arrived, ns.
  std::uint64_t srv_rx_ns = 0;
  /// Server steady clock when this ack frame was built, ns.
  std::uint64_t srv_tx_ns = 0;

  [[nodiscard]] bool nacked() const { return (flags & kAckFlagNack) != 0; }
  [[nodiscard]] bool drained() const {
    return (flags & kAckFlagDrained) != 0;
  }
  /// All four NTP timestamps will be available to the receiver.
  [[nodiscard]] bool timestamped() const { return echo_send_ns != 0; }
};

[[nodiscard]] std::vector<std::uint8_t> encode_ack(const AckFrame& ack);
/// Append the encoded ack to `out` (the server's per-connection outbox).
void append_ack(std::vector<std::uint8_t>& out, const AckFrame& ack);

enum class AckStatus : std::uint8_t {
  kOk,
  kBadMagic,    // stream desynchronised or not an ack stream
  kBadVersion,  // version this build does not speak
  kBadCrc       // frame corrupted on the wire
};

[[nodiscard]] const char* to_string(AckStatus status);

/// Incremental decoder for the server->client ack stream.  Same poison
/// discipline as BatchParser: any non-kOk status is sticky and the
/// connection must be dropped (retransmission after reconnect makes that
/// safe under at-least-once delivery).
class AckParser {
 public:
  using AckHandler = std::function<void(const AckFrame&)>;

  [[nodiscard]] AckStatus consume(const std::uint8_t* data, std::size_t size,
                                  const AckHandler& on_ack);

  [[nodiscard]] bool failed() const { return status_ != AckStatus::kOk; }
  [[nodiscard]] AckStatus status() const { return status_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }
  [[nodiscard]] std::uint64_t acks() const { return acks_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  AckStatus status_ = AckStatus::kOk;
  std::uint64_t acks_ = 0;
};

// --- chaos seam -------------------------------------------------------------

inline constexpr std::size_t kNoTruncate =
    std::numeric_limits<std::size_t>::max();

/// What the chaos hook wants done to one outgoing batch.
struct BatchAction {
  double stall_seconds = 0.0;          // sleep before sending (slow consumer)
  std::size_t truncate_to = kNoTruncate;  // send only this many bytes, then
                                          // cut the connection mid-batch
  bool drop_connection = false;        // close after a clean send
  /// Send the batch twice back to back (the server's dedup must drop the
  /// second copy; only at-least-once semantics make this survivable).
  bool duplicate = false;
};

/// What the chaos hook wants done to one incoming ack frame.
struct AckAction {
  bool drop = false;          // swallow the ack (publisher retransmits later)
  double delay_seconds = 0.0; // sleep before delivering it
};

/// Publisher-side fault seam.  on_batch is called once per send attempt from
/// the sending thread; `bytes` may be mutated in place to model wire
/// corruption.  on_ack is called once per decoded ack frame before the
/// publisher's window advances; the default passes acks through untouched.
class TransportHook {
 public:
  virtual ~TransportHook() = default;
  virtual BatchAction on_batch(std::uint64_t batch_index,
                               std::vector<std::uint8_t>& bytes) = 0;
  virtual AckAction on_ack(const AckFrame& ack) {
    (void)ack;
    return {};
  }
};

}  // namespace tsvpt::net
