// Transport framing + socket edge cases: the batch codec must tolerate
// arbitrary read boundaries (TCP promises a byte stream, nothing more),
// reject every structural corruption before trusting a length field, and
// treat a partial batch at disconnect as loss, not as an error.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "net/framing.hpp"
#include "net/socket.hpp"
#include "telemetry/codec_util.hpp"
#include "telemetry/frame.hpp"

namespace tsvpt::net {
namespace {

/// A few valid v2 wire frames of varying sizes (the parser treats inner
/// bytes as opaque, but using real frames keeps the test honest end to end).
std::vector<std::vector<std::uint8_t>> sample_frames(std::size_t count) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t k = 0; k < count; ++k) {
    telemetry::Frame frame;
    frame.stack_id = static_cast<std::uint32_t>(40 + k);
    frame.sequence = k;
    frame.sim_time = Second{1e-3 * static_cast<double>(k)};
    for (std::size_t i = 0; i < 1 + k % 3; ++i) {
      core::StackMonitor::SiteReading r;
      r.site_index = i;
      r.die = i;
      r.sensed = Celsius{50.0 + static_cast<double>(k)};
      r.truth = Celsius{50.1 + static_cast<double>(k)};
      frame.readings.push_back(r);
    }
    frames.push_back(telemetry::encode(frame));
  }
  return frames;
}

std::vector<std::vector<std::uint8_t>> parse_all(
    BatchParser& parser, const std::uint8_t* data, std::size_t size,
    BatchStatus expect = BatchStatus::kOk) {
  std::vector<std::vector<std::uint8_t>> out;
  const BatchStatus status = parser.consume(
      data, size, [&](std::vector<std::uint8_t>&& f) {
        out.push_back(std::move(f));
      });
  EXPECT_EQ(status, expect) << to_string(status);
  return out;
}

TEST(NetFraming, BatchRoundTrip) {
  const auto frames = sample_frames(3);
  const std::vector<std::uint8_t> wire = encode_batch(frames);
  EXPECT_EQ(wire.size(), batch_wire_size(frames));

  BatchParser parser;
  const auto decoded = parse_all(parser, wire.data(), wire.size());
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded[i], frames[i]) << "frame " << i;
  }
  EXPECT_EQ(parser.batches(), 1u);
  EXPECT_EQ(parser.frames(), 3u);
  EXPECT_EQ(parser.bytes(), wire.size());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(NetFraming, FramesCarryTrailerHeadroom) {
  // The IngestServer appends its 16-byte ring trailer to every frame; the
  // headroom lets it do so without reallocating and copying the frame.
  const auto frames = sample_frames(3);
  const std::vector<std::uint8_t> wire = encode_batch(frames);
  BatchParser parser;
  const auto decoded = parse_all(parser, wire.data(), wire.size());
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded[i], frames[i]) << "frame " << i;
    EXPECT_GE(decoded[i].capacity(), frames[i].size() + kFrameHeadroom)
        << "frame " << i;
  }
}

TEST(NetFraming, EmptyBatchRoundTrips) {
  const std::vector<std::uint8_t> wire = encode_batch({});
  BatchParser parser;
  const auto decoded = parse_all(parser, wire.data(), wire.size());
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(parser.batches(), 1u);
}

TEST(NetFraming, SplitAtEveryByteBoundary) {
  const auto frames = sample_frames(2);
  const std::vector<std::uint8_t> wire = encode_batch(frames);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    BatchParser parser;
    std::vector<std::vector<std::uint8_t>> out;
    const auto sink = [&](std::vector<std::uint8_t>&& f) {
      out.push_back(std::move(f));
    };
    ASSERT_EQ(parser.consume(wire.data(), split, sink), BatchStatus::kOk);
    ASSERT_EQ(parser.consume(wire.data() + split, wire.size() - split, sink),
              BatchStatus::kOk);
    ASSERT_EQ(out.size(), frames.size()) << "split at " << split;
    EXPECT_EQ(out.front(), frames.front()) << "split at " << split;
    EXPECT_EQ(out.back(), frames.back()) << "split at " << split;
  }
}

TEST(NetFraming, OneByteAtATime) {
  const auto frames = sample_frames(3);
  // Two batches back to back, dribbled in a byte at a time.
  std::vector<std::uint8_t> wire = encode_batch({frames[0], frames[1]});
  const std::vector<std::uint8_t> second = encode_batch({frames[2]});
  wire.insert(wire.end(), second.begin(), second.end());

  BatchParser parser;
  std::vector<std::vector<std::uint8_t>> out;
  for (const std::uint8_t byte : wire) {
    ASSERT_EQ(parser.consume(&byte, 1,
                             [&](std::vector<std::uint8_t>&& f) {
                               out.push_back(std::move(f));
                             }),
              BatchStatus::kOk);
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], frames[2]);
  EXPECT_EQ(parser.batches(), 2u);
}

TEST(NetFraming, MultipleBatchesInOneChunk) {
  const auto frames = sample_frames(4);
  std::vector<std::uint8_t> wire = encode_batch({frames[0]});
  for (std::size_t i = 1; i < 4; ++i) {
    const auto next = encode_batch({frames[i]});
    wire.insert(wire.end(), next.begin(), next.end());
  }
  BatchParser parser;
  const auto out = parse_all(parser, wire.data(), wire.size());
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(parser.batches(), 4u);
}

TEST(NetFraming, HeaderCorruptionRejected) {
  const auto frames = sample_frames(1);
  const std::vector<std::uint8_t> wire = encode_batch(frames);
  // Any flipped header byte must poison the stream: magic and version
  // mismatches name themselves; everything else trips the header CRC (or,
  // for a flipped CRC field, the CRC check itself).
  for (std::size_t i = 0; i < kBatchHeaderSize; ++i) {
    std::vector<std::uint8_t> bad = wire;
    bad[i] ^= 0x5Au;
    BatchParser parser;
    std::size_t emitted = 0;
    const BatchStatus status =
        parser.consume(bad.data(), bad.size(),
                       [&](std::vector<std::uint8_t>&&) { emitted += 1; });
    EXPECT_NE(status, BatchStatus::kOk) << "header byte " << i;
    EXPECT_TRUE(parser.failed()) << "header byte " << i;
    EXPECT_EQ(emitted, 0u) << "header byte " << i;

    // Poisoned parsers stay poisoned: feeding good bytes cannot revive one.
    EXPECT_EQ(parser.consume(wire.data(), wire.size(),
                             [&](std::vector<std::uint8_t>&&) {
                               emitted += 1;
                             }),
              status);
    EXPECT_EQ(emitted, 0u);
  }
}

TEST(NetFraming, TruncatedBatchEmitsNothingAndIsNotAnError) {
  const auto frames = sample_frames(2);
  const std::vector<std::uint8_t> wire = encode_batch(frames);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    BatchParser parser;
    std::size_t emitted = 0;
    ASSERT_EQ(parser.consume(wire.data(), cut,
                             [&](std::vector<std::uint8_t>&&) {
                               emitted += 1;
                             }),
              BatchStatus::kOk)
        << "cut at " << cut;
    // Frames only appear when the whole batch arrived; a SIGKILL'd client
    // mid-batch must not surface partial garbage.
    EXPECT_EQ(emitted, 0u) << "cut at " << cut;
    EXPECT_FALSE(parser.failed());
    EXPECT_EQ(parser.buffered(), cut);
  }
}

TEST(NetFraming, OversizedClaimsRejected) {
  using telemetry::put_u16;
  using telemetry::put_u32;
  using telemetry::put_u64;
  const auto make_header = [](std::uint32_t frame_count,
                              std::uint32_t payload_bytes) {
    std::vector<std::uint8_t> h;
    put_u32(h, kBatchMagic);
    put_u16(h, kBatchVersion);
    put_u16(h, 0);
    put_u64(h, 1);  // publisher id
    put_u64(h, 1);  // batch seq
    put_u32(h, frame_count);
    put_u32(h, payload_bytes);
    put_u64(h, 0);  // trace id
    put_u64(h, 0);  // send ns
    put_u64(h, 0);  // offset ns
    put_u32(h, telemetry::crc32(h.data(), h.size()));
    return h;
  };
  {
    const auto h = make_header(1, kMaxBatchPayload + 1);
    BatchParser parser;
    EXPECT_EQ(parser.consume(h.data(), h.size(),
                             [](std::vector<std::uint8_t>&&) {}),
              BatchStatus::kOversized);
  }
  {
    const auto h = make_header(kMaxBatchFrames + 1, 64);
    BatchParser parser;
    EXPECT_EQ(parser.consume(h.data(), h.size(),
                             [](std::vector<std::uint8_t>&&) {}),
              BatchStatus::kOversized);
  }
}

TEST(NetFraming, InconsistentFrameLengthsRejected) {
  const auto frames = sample_frames(2);
  std::vector<std::uint8_t> wire = encode_batch(frames);
  // Inflate the first inner length so it overruns the payload; the header
  // CRC does not cover the payload, so this models payload corruption that
  // happens to hit a length prefix.
  wire[kBatchHeaderSize + 3] = 0x7F;
  BatchParser parser;
  std::size_t emitted = 0;
  EXPECT_EQ(parser.consume(wire.data(), wire.size(),
                           [&](std::vector<std::uint8_t>&&) {
                             emitted += 1;
                           }),
            BatchStatus::kBadFrameBounds);
  EXPECT_EQ(emitted, 0u);
}

TEST(NetFraming, BatchMetaRoundTrips) {
  const auto frames = sample_frames(3);
  BatchMeta meta;
  meta.publisher_id = 0xFEEDFACEDEADBEEFull;
  meta.seq = 42;
  meta.flags = kBatchFlagFin;
  const std::vector<std::uint8_t> wire = encode_batch(frames, meta);
  BatchParser parser;
  std::size_t seen = 0;
  parser.set_batch_handler([&](const BatchInfo& info) {
    EXPECT_EQ(info.publisher_id, meta.publisher_id);
    EXPECT_EQ(info.seq, meta.seq);
    EXPECT_TRUE(info.fin());
    EXPECT_FALSE(info.heartbeat());
    EXPECT_EQ(info.frame_count, frames.size());
    seen += 1;
    return true;
  });
  std::size_t emitted = 0;
  EXPECT_EQ(parser.consume(wire.data(), wire.size(),
                           [&](std::vector<std::uint8_t>&&) { emitted += 1; }),
            BatchStatus::kOk);
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(emitted, frames.size());
}

/// Append `size` bytes of `v`, least significant first: the wire's byte
/// order, spelled out one byte at a time.
void append_le(std::vector<std::uint8_t>& out, std::uint64_t v,
               std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(NetFraming, BatchMatchesBytesBuiltByHandFromTheLayout) {
  const auto frames = sample_frames(2);
  BatchMeta meta;
  meta.publisher_id = 0x0102030405060708ull;
  meta.seq = 0x1122334455667788ull;
  meta.flags = kBatchFlagOffsetValid;
  meta.trace_id = 0xA1A2A3A4A5A6A7A8ull;
  meta.send_ns = 987'654'321'000ull;
  meta.offset_ns = -1'234'567;  // two's complement on the wire
  std::vector<std::uint8_t> want = {'T', 'S', 'V', 'B', 3, 0};
  append_le(want, kBatchFlagOffsetValid, 2);
  append_le(want, 0x0102030405060708ull, 8);
  append_le(want, 0x1122334455667788ull, 8);
  append_le(want, 2, 4);  // frame_count
  append_le(want, 4 + frames[0].size() + 4 + frames[1].size(), 4);
  append_le(want, 0xA1A2A3A4A5A6A7A8ull, 8);
  append_le(want, 987'654'321'000ull, 8);
  append_le(want, 0xFFFFFFFFFFED2979ull, 8);  // -1,234,567
  append_le(want, telemetry::crc32(want.data(), 56), 4);
  ASSERT_EQ(want.size(), kBatchHeaderSize);
  for (const auto& f : frames) {
    append_le(want, f.size(), 4);
    want.insert(want.end(), f.begin(), f.end());
  }
  EXPECT_EQ(encode_batch(frames, meta), want);
}

TEST(NetFraming, AckMatchesBytesBuiltByHandFromTheLayout) {
  AckFrame ack;
  ack.flags = kAckFlagDrained;
  ack.ack_seq = 0x0807060504030201ull;
  ack.nack = 0xCAFEF00Du;
  ack.echo_send_ns = 1'000'001;
  ack.srv_rx_ns = 2'000'002;
  ack.srv_tx_ns = 0xFFEEDDCCBBAA9988ull;
  std::vector<std::uint8_t> want = {'T', 'S', 'V', 'A', 2, 0};
  append_le(want, kAckFlagDrained, 2);
  append_le(want, 0x0807060504030201ull, 8);
  append_le(want, 0xCAFEF00Du, 4);
  append_le(want, 1'000'001, 8);
  append_le(want, 2'000'002, 8);
  append_le(want, 0xFFEEDDCCBBAA9988ull, 8);
  append_le(want, telemetry::crc32(want.data(), 44), 4);
  ASSERT_EQ(want.size(), kAckFrameSize);
  EXPECT_EQ(encode_ack(ack), want);

  // Appended to an outbox that already holds bytes, the same 48 follow them.
  std::vector<std::uint8_t> outbox = {0xEE, 0xEE, 0xEE};
  append_ack(outbox, ack);
  want.insert(want.begin(), outbox.begin(), outbox.begin() + 3);
  EXPECT_EQ(outbox, want);
}

TEST(NetFraming, BatchHandlerVetoSkipsFrames) {
  const auto frames = sample_frames(4);
  const std::vector<std::uint8_t> wire =
      encode_batch(frames, BatchMeta{7, 9, 0});
  BatchParser parser;
  parser.set_batch_handler([](const BatchInfo&) { return false; });
  std::size_t emitted = 0;
  EXPECT_EQ(parser.consume(wire.data(), wire.size(),
                           [&](std::vector<std::uint8_t>&&) { emitted += 1; }),
            BatchStatus::kOk);
  // Vetoed: the batch still counts (it was valid wire), its frames do not.
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(parser.batches(), 1u);
  EXPECT_EQ(parser.frames(), 0u);
  EXPECT_EQ(parser.frames_skipped(), frames.size());
}

TEST(NetFraming, AckRoundTripsAtEveryReadBoundary) {
  AckFrame ack;
  ack.flags = kAckFlagDrained;
  ack.ack_seq = 0x0123456789ABCDEFull;
  ack.nack = 0;
  const std::vector<std::uint8_t> wire = encode_ack(ack);
  ASSERT_EQ(wire.size(), kAckFrameSize);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    AckParser parser;
    std::vector<AckFrame> got;
    ASSERT_EQ(parser.consume(wire.data(), cut,
                             [&](const AckFrame& a) { got.push_back(a); }),
              AckStatus::kOk);
    ASSERT_EQ(parser.consume(wire.data() + cut, wire.size() - cut,
                             [&](const AckFrame& a) { got.push_back(a); }),
              AckStatus::kOk);
    ASSERT_EQ(got.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(got[0].ack_seq, ack.ack_seq);
    EXPECT_EQ(got[0].flags, ack.flags);
    EXPECT_TRUE(got[0].drained());
    EXPECT_FALSE(got[0].nacked());
  }
}

TEST(NetFraming, AckEveryByteCorruptionDetected) {
  AckFrame ack;
  ack.ack_seq = 12345;
  const std::vector<std::uint8_t> pristine = encode_ack(ack);
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                    std::uint8_t{0xFF}}) {
      std::vector<std::uint8_t> wire = pristine;
      wire[i] ^= flip;
      AckParser parser;
      std::size_t emitted = 0;
      const AckStatus status = parser.consume(
          wire.data(), wire.size(), [&](const AckFrame&) { emitted += 1; });
      // Flag bytes and the ack_seq/nack payload are CRC-covered, so any
      // single-byte damage must surface as a poisoned parser, never as a
      // silently-wrong cumulative ack.
      EXPECT_NE(status, AckStatus::kOk) << "byte " << i;
      EXPECT_TRUE(parser.failed()) << "byte " << i;
      EXPECT_EQ(emitted, 0u) << "byte " << i;
      // Sticky: more (valid) bytes cannot resurrect the connection.
      EXPECT_NE(parser.consume(pristine.data(), pristine.size(),
                               [&](const AckFrame&) { emitted += 1; }),
                AckStatus::kOk);
      EXPECT_EQ(emitted, 0u) << "byte " << i;
    }
  }
}

TEST(NetFraming, AckTruncationNeverEmits) {
  AckFrame ack;
  ack.ack_seq = 999;
  ack.flags = kAckFlagNack;
  ack.nack = 3;
  const std::vector<std::uint8_t> wire = encode_ack(ack);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    AckParser parser;
    std::size_t emitted = 0;
    EXPECT_EQ(parser.consume(wire.data(), cut,
                             [&](const AckFrame&) { emitted += 1; }),
              AckStatus::kOk)
        << "cut at " << cut;
    EXPECT_EQ(emitted, 0u) << "cut at " << cut;
    EXPECT_FALSE(parser.failed());
    EXPECT_EQ(parser.buffered(), cut);
  }
}

TEST(NetFraming, TraceContextFieldsRoundTrip) {
  const auto frames = sample_frames(2);
  BatchMeta meta;
  meta.publisher_id = 11;
  meta.seq = 3;
  meta.flags = kBatchFlagOffsetValid;
  meta.trace_id = 0xABCDEF0123456789ull;
  meta.send_ns = 987'654'321;
  meta.offset_ns = -250'000;
  const std::vector<std::uint8_t> wire = encode_batch(frames, meta);

  BatchParser parser;
  std::size_t seen = 0;
  parser.set_batch_handler([&](const BatchInfo& info) {
    EXPECT_EQ(info.trace_id, meta.trace_id);
    EXPECT_EQ(info.send_ns, meta.send_ns);
    EXPECT_EQ(info.offset_ns, meta.offset_ns);
    EXPECT_TRUE(info.offset_valid());
    seen += 1;
    return true;
  });
  std::size_t emitted = 0;
  EXPECT_EQ(parser.consume(wire.data(), wire.size(),
                           [&](std::vector<std::uint8_t>&&) { emitted += 1; }),
            BatchStatus::kOk);
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(emitted, frames.size());
}

/// A 36-byte v2 batch (the v3 header without its trace/timestamp trio), as
/// a build that spoke v2 would have written it.
std::vector<std::uint8_t> encode_v2_batch(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  using telemetry::put_u16;
  using telemetry::put_u32;
  using telemetry::put_u64;
  std::size_t payload = 0;
  for (const auto& f : frames) payload += 4 + f.size();
  std::vector<std::uint8_t> out;
  put_u32(out, kBatchMagic);
  put_u16(out, 2);  // version
  put_u16(out, 0);  // flags
  put_u64(out, 21); // publisher id
  put_u64(out, 5);  // seq
  put_u32(out, static_cast<std::uint32_t>(frames.size()));
  put_u32(out, static_cast<std::uint32_t>(payload));
  put_u32(out, telemetry::crc32(out.data(), out.size()));
  for (const auto& f : frames) {
    put_u32(out, static_cast<std::uint32_t>(f.size()));
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

TEST(NetFraming, V2BatchIsRejected) {
  // v3 is the only batch version: a v2 header poisons the stream before a
  // single frame is emitted or a batch reaches the handler.
  const std::vector<std::uint8_t> wire = encode_v2_batch(sample_frames(3));
  BatchParser parser;
  std::size_t seen = 0;
  parser.set_batch_handler([&](const BatchInfo&) {
    seen += 1;
    return true;
  });
  std::size_t emitted = 0;
  EXPECT_EQ(parser.consume(wire.data(), wire.size(),
                           [&](std::vector<std::uint8_t>&&) { emitted += 1; }),
            BatchStatus::kBadVersion);
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(emitted, 0u);
  EXPECT_TRUE(parser.failed());

  // Sticky: a well-formed v3 batch behind it is never parsed.
  const std::vector<std::uint8_t> v3 = encode_batch(sample_frames(1));
  EXPECT_EQ(parser.consume(v3.data(), v3.size(),
                           [&](std::vector<std::uint8_t>&&) { emitted += 1; }),
            BatchStatus::kBadVersion);
  EXPECT_EQ(emitted, 0u);
}

TEST(NetFraming, RestampRefreshesSendTimestampAndOffset) {
  const auto frames = sample_frames(2);
  BatchMeta meta;
  meta.publisher_id = 4;
  meta.seq = 8;
  meta.send_ns = 1111;
  std::vector<std::uint8_t> wire = encode_batch(frames, meta);

  ASSERT_TRUE(restamp_batch_send(wire, 2222, 777, true));
  BatchParser parser;
  parser.set_batch_handler([&](const BatchInfo& info) {
    EXPECT_EQ(info.send_ns, 2222u);
    EXPECT_EQ(info.offset_ns, 777);
    EXPECT_TRUE(info.offset_valid());
    // Restamp must not disturb the delivery-protocol fields.
    EXPECT_EQ(info.publisher_id, 4u);
    EXPECT_EQ(info.seq, 8u);
    return true;
  });
  std::size_t emitted = 0;
  EXPECT_EQ(parser.consume(wire.data(), wire.size(),
                           [&](std::vector<std::uint8_t>&&) { emitted += 1; }),
            BatchStatus::kOk);
  EXPECT_EQ(emitted, frames.size());

  // A later attempt with no offset estimate clears the validity flag (and
  // the header CRC is recomputed each time — the parse would fail if not).
  ASSERT_TRUE(restamp_batch_send(wire, 3333, 0, false));
  BatchParser reparse;
  reparse.set_batch_handler([&](const BatchInfo& info) {
    EXPECT_EQ(info.send_ns, 3333u);
    EXPECT_FALSE(info.offset_valid());
    return true;
  });
  EXPECT_EQ(reparse.consume(wire.data(), wire.size(),
                            [](std::vector<std::uint8_t>&&) {}),
            BatchStatus::kOk);
}

TEST(NetFraming, RestampRefusesGarbage) {
  std::vector<std::uint8_t> tiny(8, 0);
  EXPECT_FALSE(restamp_batch_send(tiny, 999, 0, false));

  std::vector<std::uint8_t> wrong_magic = encode_batch(sample_frames(1));
  wrong_magic[0] ^= 0xFF;
  EXPECT_FALSE(restamp_batch_send(wrong_magic, 999, 0, false));
}

TEST(NetFraming, AckTimestampTrioRoundTrips) {
  AckFrame ack;
  ack.ack_seq = 17;
  ack.echo_send_ns = 1'000'001;
  ack.srv_rx_ns = 2'000'002;
  ack.srv_tx_ns = 3'000'003;
  const std::vector<std::uint8_t> wire = encode_ack(ack);
  ASSERT_EQ(wire.size(), kAckFrameSize);

  AckParser parser;
  std::vector<AckFrame> got;
  ASSERT_EQ(parser.consume(wire.data(), wire.size(),
                           [&](const AckFrame& a) { got.push_back(a); }),
            AckStatus::kOk);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].echo_send_ns, ack.echo_send_ns);
  EXPECT_EQ(got[0].srv_rx_ns, ack.srv_rx_ns);
  EXPECT_EQ(got[0].srv_tx_ns, ack.srv_tx_ns);
  EXPECT_TRUE(got[0].timestamped());

  // No timestamped batch seen yet → echo stays 0 and the publisher must not
  // feed the sample to its clock filter.
  AckFrame bare;
  bare.ack_seq = 18;
  const std::vector<std::uint8_t> bare_wire = encode_ack(bare);
  got.clear();
  ASSERT_EQ(parser.consume(bare_wire.data(), bare_wire.size(),
                           [&](const AckFrame& a) { got.push_back(a); }),
            AckStatus::kOk);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].timestamped());
}

TEST(NetFraming, V1AckIsRejected) {
  // A 24-byte v1 ack (the v2 frame without its timestamp trio): v2 is the
  // only ack version, so the parser poisons instead of delivering it.
  using telemetry::put_u16;
  using telemetry::put_u32;
  using telemetry::put_u64;
  std::vector<std::uint8_t> wire;
  put_u32(wire, kAckMagic);
  put_u16(wire, 1);  // version
  put_u16(wire, kAckFlagDrained);
  put_u64(wire, 99);  // ack_seq
  put_u32(wire, 0);   // nack
  put_u32(wire, telemetry::crc32(wire.data(), wire.size()));

  AckParser parser;
  std::vector<AckFrame> got;
  EXPECT_EQ(parser.consume(wire.data(), wire.size(),
                           [&](const AckFrame& a) { got.push_back(a); }),
            AckStatus::kBadVersion);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(parser.failed());
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TEST(NetSocket, LoopbackSendRecvRoundTrip) {
  Socket listener = tcp_listen("127.0.0.1", 0);
  set_nonblocking(listener, true);
  const std::uint16_t port = local_port(listener);
  ASSERT_NE(port, 0);

  Socket client = tcp_connect("127.0.0.1", port);
  ASSERT_TRUE(client.valid());

  Socket server;
  for (int i = 0; i < 1000 && !server.valid(); ++i) {
    server = tcp_accept(listener);
    if (!server.valid()) std::this_thread::yield();
  }
  ASSERT_TRUE(server.valid());

  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(send_all(client, payload.data(), payload.size()));
  client.close();  // orderly shutdown -> reader sees kClosed after the bytes

  std::vector<std::uint8_t> received;
  std::uint8_t chunk[257];
  for (;;) {
    const IoResult r = recv_some(server, chunk, sizeof(chunk));
    if (r.status == IoStatus::kOk) {
      received.insert(received.end(), chunk, chunk + r.bytes);
      continue;
    }
    ASSERT_EQ(r.status, IoStatus::kClosed);
    break;
  }
  EXPECT_EQ(received, payload);
}

TEST(NetSocket, RecvReportsArrivalNotReadTime) {
  // A byte left unread for 50 ms still reports when it arrived; a socket
  // without receive timestamps reports none.
  Socket listener = tcp_listen("127.0.0.1", 0);
  set_nonblocking(listener, true);
  Socket client = tcp_connect("127.0.0.1", local_port(listener));
  ASSERT_TRUE(client.valid());
  Socket server;
  for (int i = 0; i < 1000 && !server.valid(); ++i) {
    server = tcp_accept(listener);
    if (!server.valid()) std::this_thread::yield();
  }
  ASSERT_TRUE(server.valid());
  enable_rx_timestamps(server);

  constexpr std::uint64_t kMs = 1'000'000;
  std::uint8_t byte = 7;
  // The kernel starts stamping a moment after the first socket asks for it
  // (a deferred switch), so segments sent at once may carry no stamp.
  IoResult warm;
  for (int i = 0; i < 1000 && warm.rx_ns == 0; ++i) {
    ASSERT_TRUE(send_all(client, &byte, 1));
    warm = recv_some(server, &byte, 1);
    ASSERT_EQ(warm.status, IoStatus::kOk);
    if (warm.rx_ns == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_NE(warm.rx_ns, 0u);
  const std::uint64_t sent = steady_ns();
  ASSERT_TRUE(send_all(client, &byte, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t read = steady_ns();
  const IoResult stamped = recv_some(server, &byte, 1);
  ASSERT_EQ(stamped.status, IoStatus::kOk);
  EXPECT_GE(stamped.rx_ns + kMs, sent);
  EXPECT_LT(stamped.rx_ns, read - 25 * kMs);

  ASSERT_TRUE(send_all(server, &byte, 1));
  const IoResult plain = recv_some(client, &byte, 1);
  ASSERT_EQ(plain.status, IoStatus::kOk);
  EXPECT_EQ(plain.rx_ns, 0u);
}

TEST(NetSocket, TxStampsReportDepartureNotHandover) {
  // The peer reads nothing for 30 ms.  A first small send leaves at once;
  // the sends that fill the buffers behind it leave only when the peer
  // makes room, and their stamps say so.
  Socket listener = tcp_listen("127.0.0.1", 0);
  set_nonblocking(listener, true);
  Socket client = tcp_connect("127.0.0.1", local_port(listener));
  ASSERT_TRUE(client.valid());
  Socket server;
  for (int i = 0; i < 1000 && !server.valid(); ++i) {
    server = tcp_accept(listener);
    if (!server.valid()) std::this_thread::yield();
  }
  ASSERT_TRUE(server.valid());
  enable_tx_timestamps(client);
  set_nonblocking(client, true);

  constexpr std::uint64_t kMs = 1'000'000;
  const std::vector<std::uint8_t> payload(100'000, 0x5A);
  IoResult r = send_some(client, payload.data(), 1'000);
  ASSERT_EQ(r.status, IoStatus::kOk);
  ASSERT_EQ(r.bytes, 1'000u);  // its last byte is byte 999
  std::uint64_t total = r.bytes;
  // The first stamp of each byte (a segment sent again is stamped again),
  // drained as the buffers fill so the error queue never overflows.
  std::map<std::uint32_t, std::uint64_t> left;
  const auto drain = [&] {
    TxStamp stamp;
    while (recv_tx_stamp(client, stamp)) {
      left.try_emplace(stamp.last_byte, stamp.tx_ns);
    }
  };
  for (;;) {
    drain();
    r = send_some(client, payload.data(), payload.size());
    if (r.status != IoStatus::kOk) break;
    total += r.bytes;
  }
  ASSERT_EQ(r.status, IoStatus::kWouldBlock);
  const std::uint64_t full = steady_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  std::vector<std::uint8_t> sink(1 << 16);
  for (std::uint64_t read = 0; read < total;) {
    const IoResult got = recv_some(server, sink.data(), sink.size());
    ASSERT_EQ(got.status, IoStatus::kOk);
    read += got.bytes;
  }
  drain();
  ASSERT_EQ(left.count(999), 1u);
  ASSERT_EQ(left.count(static_cast<std::uint32_t>(total - 1)), 1u);
  EXPECT_LE(left[999], full + kMs);
  EXPECT_GE(left[static_cast<std::uint32_t>(total - 1)], full + 25 * kMs);
}

TEST(NetSocket, ConnectToClosedPortFails) {
  // Bind-then-close to get a port that is almost certainly not listening.
  std::uint16_t port = 0;
  {
    const Socket listener = tcp_listen("127.0.0.1", 0);
    port = local_port(listener);
  }
  const Socket client = tcp_connect("127.0.0.1", port);
  EXPECT_FALSE(client.valid());
}

TEST(NetSocket, ChunkedSendsReassembleThroughParser) {
  // A real socket between sender and parser, bytes pushed in awkward
  // 7-byte chunks: partial *writes* at arbitrary boundaries must be
  // invisible to the framing layer.
  Socket listener = tcp_listen("127.0.0.1", 0);
  set_nonblocking(listener, true);
  Socket client = tcp_connect("127.0.0.1", local_port(listener));
  ASSERT_TRUE(client.valid());
  Socket server;
  for (int i = 0; i < 1000 && !server.valid(); ++i) {
    server = tcp_accept(listener);
    if (!server.valid()) std::this_thread::yield();
  }
  ASSERT_TRUE(server.valid());

  const auto frames = sample_frames(3);
  const std::vector<std::uint8_t> wire = encode_batch(frames);
  for (std::size_t off = 0; off < wire.size(); off += 7) {
    const std::size_t n = std::min<std::size_t>(7, wire.size() - off);
    ASSERT_TRUE(send_all(client, wire.data() + off, n));
  }
  client.close();

  BatchParser parser;
  std::vector<std::vector<std::uint8_t>> out;
  std::uint8_t chunk[64];
  for (;;) {
    const IoResult r = recv_some(server, chunk, sizeof(chunk));
    if (r.status == IoStatus::kOk) {
      ASSERT_EQ(parser.consume(chunk, r.bytes,
                               [&](std::vector<std::uint8_t>&& f) {
                                 out.push_back(std::move(f));
                               }),
                BatchStatus::kOk);
      continue;
    }
    ASSERT_EQ(r.status, IoStatus::kClosed);
    break;
  }
  ASSERT_EQ(out.size(), frames.size());
  EXPECT_EQ(out, frames);
}

}  // namespace
}  // namespace tsvpt::net
