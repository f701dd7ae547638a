#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/health_supervisor.hpp"
#include "store/block.hpp"

namespace tsvpt::store {
namespace {

/// Deterministic frame shaped like real fleet traffic: a small site grid,
/// smoothly drifting temperatures, monotone counters.
telemetry::Frame make_frame(std::uint32_t stack, std::uint64_t sequence,
                            double sim_time, std::size_t sites = 4) {
  telemetry::Frame frame;
  frame.stack_id = stack;
  frame.sequence = sequence;
  frame.sim_time = Second{sim_time};
  frame.capture_ns = 1'000'000 * sequence + stack;
  for (std::size_t i = 0; i < sites; ++i) {
    core::StackMonitor::SiteReading r;
    r.site_index = i;
    r.die = i / 2;
    r.location = {0.5e-3 * static_cast<double>(i % 2),
                  0.5e-3 * static_cast<double>(i / 2)};
    // Counter-quantized temperatures: consecutive scans mostly repeat
    // exactly and step occasionally, like a real readout.
    r.sensed = Celsius{40.0 + 0.5 * static_cast<double>(i) +
                       0.25 * static_cast<double>((sequence / 16) % 8)};
    r.truth = Celsius{r.sensed.value() - 0.3};
    r.energy = Joule{2.0e-9};
    r.degraded = (stack + sequence + i) % 7 == 0;
    r.health = static_cast<std::uint8_t>((stack + i) % core::kHealthStateCount);
    frame.readings.push_back(r);
  }
  return frame;
}

std::vector<std::uint8_t> seal_frames(
    const std::vector<telemetry::Frame>& frames) {
  BlockBuilder builder;
  for (const telemetry::Frame& frame : frames) builder.add(frame);
  return builder.seal();
}

// -- Golden bytes, built by hand from block.hpp's layout ----------------

void append_le(std::vector<std::uint8_t>& out, std::uint64_t v,
               std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (; v >= 0x80u; v >>= 7) {
    out.push_back(static_cast<std::uint8_t>((v & 0x7Fu) | 0x80u));
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Signed onto unsigned, small magnitudes small: 0, -1, 1, -2 -> 0, 1, 2, 3.
std::uint64_t zigzag(std::int64_t v) {
  return v >= 0 ? 2 * static_cast<std::uint64_t>(v)
                : 2 * static_cast<std::uint64_t>(-(v + 1)) + 1;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(StoreBlock, SealMatchesBytesBuiltByHandFromTheLayout) {
  // One stack: a key frame of two sites, then a delta frame of the same
  // layout one scan later.
  const telemetry::Frame key = make_frame(9, 5, 1e-3, 2);
  telemetry::Frame delta = make_frame(9, 6, 2e-3, 2);
  delta.capture_ns = key.capture_ns + 1500;
  delta.readings[1].sensed = Celsius{41.25};
  const std::vector<std::uint8_t> sealed = seal_frames({key, delta});

  std::vector<std::uint8_t> payload;
  append_varint(payload, 9);  // stack id
  payload.push_back(1);       // key frame
  append_varint(payload, 2);  // sites
  append_varint(payload, 5);  // sequence
  append_le(payload, bits(1e-3), 8);
  append_varint(payload, key.capture_ns);
  std::uint64_t prev[5] = {0, 0, 0, 0, 0};  // x, y, sensed, truth, energy
  for (const auto& r : key.readings) {
    append_varint(payload, r.site_index);
    append_varint(payload, r.die);
    const std::uint64_t now[5] = {bits(r.location.x), bits(r.location.y),
                                  bits(r.sensed.value()),
                                  bits(r.truth.value()),
                                  bits(r.energy.value())};
    for (std::size_t f = 0; f < 5; ++f) {
      append_varint(payload, now[f] ^ prev[f]);
      prev[f] = now[f];
    }
    payload.push_back(static_cast<std::uint8_t>((r.degraded ? 1 : 0) |
                                                (r.health << 1)));
  }
  append_varint(payload, 9);
  payload.push_back(0);  // delta frame
  append_varint(payload, 2);
  append_varint(payload, zigzag(1 - 1));  // sequence: +1 after +1
  append_varint(payload, zigzag(static_cast<std::int64_t>(
                             bits(2e-3) - bits(1e-3))));
  append_varint(payload, zigzag(1500));
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& was = key.readings[i];
    const auto& r = delta.readings[i];
    append_varint(payload, bits(r.sensed.value()) ^ bits(was.sensed.value()));
    append_varint(payload, bits(r.truth.value()) ^ bits(was.truth.value()));
    append_varint(payload, bits(r.energy.value()) ^ bits(was.energy.value()));
    const auto flags = [](const core::StackMonitor::SiteReading& s) {
      return static_cast<std::uint64_t>((s.degraded ? 1 : 0) |
                                        (s.health << 1));
    };
    append_varint(payload, flags(r) ^ flags(was));
  }

  std::vector<std::uint8_t> want = {'T', 'S', 'V', 'B'};
  append_le(want, payload.size(), 4);
  append_le(want, 2, 4);  // frames
  append_le(want, 1, 4);  // stacks
  append_le(want, bits(1e-3), 8);
  append_le(want, bits(2e-3), 8);
  append_le(want, 2 * (40 + 2 * 50 + 4), 8);  // two raw 2-site wire frames
  append_le(want, 9, 4);
  append_le(want, telemetry::crc32(want.data(), want.size()), 4);
  want.insert(want.end(), payload.begin(), payload.end());
  append_le(want, telemetry::crc32(payload.data(), payload.size()), 4);
  EXPECT_EQ(sealed, want);
}

TEST(StoreBlock, RoundTripMultiStackInterleaved) {
  // Stacks interleave in arrival order, exactly as concurrent fleet workers
  // produce them; decode must reproduce every frame bit-for-bit, in order.
  std::vector<telemetry::Frame> frames;
  for (std::uint64_t scan = 0; scan < 5; ++scan) {
    for (std::uint32_t stack : {7u, 3u, 11u}) {
      frames.push_back(make_frame(stack, 100 + scan, 1e-3 * double(scan)));
    }
  }
  const std::vector<std::uint8_t> record = seal_frames(frames);

  std::vector<telemetry::Frame> decoded;
  ASSERT_EQ(decode_block(record.data(), record.size(), decoded),
            BlockStatus::kOk);
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(decoded[i] == frames[i]) << "frame " << i;
  }
}

TEST(StoreBlock, HeaderDescribesContents) {
  std::vector<telemetry::Frame> frames;
  std::uint64_t raw = 0;
  for (std::uint64_t scan = 0; scan < 4; ++scan) {
    frames.push_back(make_frame(9, scan, 2e-3 + 1e-3 * double(scan)));
    frames.push_back(make_frame(2, scan, 2e-3 + 1e-3 * double(scan)));
    raw += 2 * telemetry::encoded_size(frames.back().readings.size());
  }
  const std::vector<std::uint8_t> record = seal_frames(frames);

  BlockHeader header;
  ASSERT_EQ(parse_block_header(record.data(), record.size(), header),
            BlockStatus::kOk);
  EXPECT_EQ(header.record_size(), record.size());
  EXPECT_EQ(header.frame_count, frames.size());
  EXPECT_EQ(header.raw_bytes, raw);
  EXPECT_DOUBLE_EQ(header.t_min, 2e-3);
  EXPECT_DOUBLE_EQ(header.t_max, 5e-3);
  EXPECT_EQ(header.stack_ids, (std::vector<std::uint32_t>{2, 9}));
  EXPECT_TRUE(header.contains_stack(9));
  EXPECT_FALSE(header.contains_stack(4));
  EXPECT_TRUE(header.overlaps(4e-3, 10.0));
  EXPECT_FALSE(header.overlaps(6e-3, 10.0));
  // Closed-interval edges: touching the span counts as overlap.
  EXPECT_TRUE(header.overlaps(5e-3, 10.0));
  EXPECT_TRUE(header.overlaps(-1.0, 2e-3));
}

TEST(StoreBlock, LayoutChangeMidBlockForcesKeyFrameAndRoundTrips) {
  // A stack whose site layout changes mid-block (site dropped by the health
  // supervisor, say) cannot be delta-coded against the old layout; the codec
  // must fall back to a key frame and still reproduce everything exactly.
  std::vector<telemetry::Frame> frames;
  frames.push_back(make_frame(5, 0, 0.0, 4));
  frames.push_back(make_frame(5, 1, 1e-3, 4));
  frames.push_back(make_frame(5, 2, 2e-3, 3));  // layout shrinks
  frames.push_back(make_frame(5, 3, 3e-3, 3));
  telemetry::Frame moved = make_frame(5, 4, 4e-3, 3);
  moved.readings[1].location.x += 0.25e-3;  // same count, different layout
  frames.push_back(moved);
  frames.push_back(make_frame(5, 5, 5e-3, 4));  // layout grows back

  const std::vector<std::uint8_t> record = seal_frames(frames);
  std::vector<telemetry::Frame> decoded;
  ASSERT_EQ(decode_block(record.data(), record.size(), decoded),
            BlockStatus::kOk);
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(decoded[i] == frames[i]) << "frame " << i;
  }
}

TEST(StoreBlock, EmptyReadingsFrameRoundTrips) {
  std::vector<telemetry::Frame> frames;
  frames.push_back(make_frame(1, 0, 0.0));
  telemetry::Frame empty;
  empty.stack_id = 1;
  empty.sequence = 1;
  empty.sim_time = Second{1e-3};
  frames.push_back(empty);  // zero-site scan between normal ones
  frames.push_back(make_frame(1, 2, 2e-3));

  const std::vector<std::uint8_t> record = seal_frames(frames);
  std::vector<telemetry::Frame> decoded;
  ASSERT_EQ(decode_block(record.data(), record.size(), decoded),
            BlockStatus::kOk);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_TRUE(decoded[1] == empty);
  EXPECT_TRUE(decoded[2] == frames[2]);
}

TEST(StoreBlock, SealResetsBuilderForIndependentBlocks) {
  // seal() must reset all per-stack context: the second block has to decode
  // standalone (readers jump straight to any block via the sparse index).
  BlockBuilder builder;
  builder.add(make_frame(4, 0, 0.0));
  builder.add(make_frame(4, 1, 1e-3));
  const std::vector<std::uint8_t> first = builder.seal();
  EXPECT_TRUE(builder.empty());

  const telemetry::Frame later = make_frame(4, 2, 2e-3);
  builder.add(later);
  const std::vector<std::uint8_t> second = builder.seal();

  std::vector<telemetry::Frame> decoded;
  ASSERT_EQ(decode_block(second.data(), second.size(), decoded),
            BlockStatus::kOk);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(decoded[0] == later);  // a key frame again, not a delta

  decoded.clear();
  ASSERT_EQ(decode_block(first.data(), first.size(), decoded),
            BlockStatus::kOk);
  EXPECT_EQ(decoded.size(), 2u);
}

TEST(StoreBlock, TruncationAtEveryByteExactAllocations) {
  // Every prefix is copied into an exactly-sized heap allocation so the
  // sanitizer CI job turns any read past `len` into a heap-buffer-overflow;
  // in all builds no prefix may decode as a complete block.
  const std::vector<std::uint8_t> record = seal_frames(
      {make_frame(6, 0, 0.0), make_frame(8, 0, 0.0), make_frame(6, 1, 1e-3)});
  std::vector<telemetry::Frame> sink;
  for (std::size_t len = 0; len < record.size(); ++len) {
    std::unique_ptr<std::uint8_t[]> exact{new std::uint8_t[len]};
    std::memcpy(exact.get(), record.data(), len);
    sink.clear();
    EXPECT_NE(decode_block(exact.get(), len, sink), BlockStatus::kOk)
        << "length " << len;
    EXPECT_TRUE(sink.empty()) << "length " << len;
  }
}

TEST(StoreBlock, EveryBitFlipRejected) {
  const std::vector<std::uint8_t> record =
      seal_frames({make_frame(6, 0, 0.0), make_frame(6, 1, 1e-3)});
  std::vector<telemetry::Frame> sink;
  for (std::size_t pos = 0; pos < record.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = record;
    corrupt[pos] ^= 0x04;
    sink.clear();
    EXPECT_NE(decode_block(corrupt.data(), corrupt.size(), sink),
              BlockStatus::kOk)
        << "byte " << pos;
    EXPECT_TRUE(sink.empty()) << "byte " << pos;
  }
}

TEST(StoreBlock, HeaderVsPayloadCorruptionDistinguished) {
  std::vector<std::uint8_t> record =
      seal_frames({make_frame(6, 0, 0.0), make_frame(6, 1, 1e-3)});
  std::vector<telemetry::Frame> sink;

  std::vector<std::uint8_t> bad_magic = record;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(decode_block(bad_magic.data(), bad_magic.size(), sink),
            BlockStatus::kBadMagic);

  // The t_min field is covered by the header CRC, not the payload CRC.
  std::vector<std::uint8_t> bad_header = record;
  bad_header[16] ^= 0xFF;
  EXPECT_EQ(decode_block(bad_header.data(), bad_header.size(), sink),
            BlockStatus::kBadHeaderCrc);

  BlockHeader header;
  ASSERT_EQ(parse_block_header(record.data(), record.size(), header),
            BlockStatus::kOk);
  const std::size_t payload_start =
      kBlockFixedHeaderSize + header.stack_ids.size() * 4 + kBlockCrcSize;
  std::vector<std::uint8_t> bad_payload = record;
  bad_payload[payload_start + header.payload_size / 2] ^= 0xFF;
  EXPECT_EQ(decode_block(bad_payload.data(), bad_payload.size(), sink),
            BlockStatus::kBadPayloadCrc);
  EXPECT_TRUE(sink.empty());
}

TEST(StoreBlock, SteadyStreamCompressesWellPastRaw) {
  // The historian's whole reason to exist: a steady per-stack stream (one
  // key frame, then deltas) must land far below the raw wire footprint.
  BlockBuilder builder;
  for (std::uint64_t scan = 0; scan < 64; ++scan) {
    builder.add(make_frame(1, scan, 1e-3 * double(scan)));
  }
  const std::uint64_t raw = builder.raw_bytes();
  const std::vector<std::uint8_t> record = builder.seal();
  EXPECT_GT(static_cast<double>(raw) / static_cast<double>(record.size()),
            3.0)
      << record.size() << " bytes on disk vs " << raw << " raw";
}

TEST(StoreBlock, StatusStringsCoverEveryCode) {
  for (const BlockStatus status :
       {BlockStatus::kOk, BlockStatus::kTruncated, BlockStatus::kBadMagic,
        BlockStatus::kBadHeader, BlockStatus::kBadHeaderCrc,
        BlockStatus::kBadPayloadCrc, BlockStatus::kBadFrame}) {
    EXPECT_STRNE(to_string(status), "unknown");
  }
}

}  // namespace
}  // namespace tsvpt::store
