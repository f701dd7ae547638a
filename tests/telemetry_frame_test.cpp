#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/health_supervisor.hpp"
#include "telemetry/frame.hpp"

namespace tsvpt::telemetry {
namespace {

// Wire header offsets (see frame.hpp layout).
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kSiteCountOffset = 12;

Frame sample_frame() {
  Frame frame;
  frame.stack_id = 17;
  frame.sequence = 0xDEADBEEF01ull;
  frame.sim_time = Second{12.5e-3};
  frame.capture_ns = 123456789;
  for (std::size_t i = 0; i < 5; ++i) {
    core::StackMonitor::SiteReading r;
    r.site_index = i;
    r.die = i % 3;
    r.location = {1.25e-3 * static_cast<double>(i), 3.75e-3};
    r.sensed = Celsius{25.0 + 7.3 * static_cast<double>(i)};
    r.truth = Celsius{25.1 + 7.3 * static_cast<double>(i)};
    r.energy = Joule{-1.0e-12 * static_cast<double>(i)};  // sign survives
    r.degraded = (i == 4);
    // Exercise every health state the wire can carry.
    r.health = static_cast<std::uint8_t>(i % core::kHealthStateCount);
    frame.readings.push_back(r);
  }
  return frame;
}

/// Rewrite the trailing CRC so a deliberately edited buffer is otherwise
/// self-consistent (isolates the field check under test from the CRC check).
void refresh_crc(std::vector<std::uint8_t>& buffer) {
  const std::uint32_t crc = crc32(buffer.data(), buffer.size() - 4);
  for (int i = 0; i < 4; ++i) {
    buffer[buffer.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

TEST(TelemetryFrame, Crc32KnownVector) {
  // The canonical IEEE CRC-32 check value.
  const char* data = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(data), 9),
            0xCBF43926u);
}

/// Byte-at-a-time CRC-32, the reference the table-driven crc32 must equal.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(TelemetryFrame, Crc32MatchesByteAtATimeReference) {
  // Every length across several 8-byte steps plus each tail, at every
  // alignment of the start.
  std::vector<std::uint8_t> bytes(8 + 67);
  std::uint32_t x = 0x12345678u;
  for (std::uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 67; ++length) {
      const std::uint8_t* data = bytes.data() + offset;
      EXPECT_EQ(crc32(data, length), reference_crc32(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

/// Append `size` bytes of `v`, least significant first: the wire's byte
/// order, spelled out one byte at a time.
void append_le(std::vector<std::uint8_t>& out, std::uint64_t v,
               std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(TelemetryFrame, EncodeMatchesBytesBuiltByHandFromTheLayout) {
  const Frame frame = sample_frame();
  std::vector<std::uint8_t> want = {'T', 'S', 'V', 'T', 2, 0, 0, 0};
  append_le(want, 17, 4);  // stack_id
  append_le(want, frame.readings.size(), 4);
  append_le(want, 0xDEADBEEF01ull, 8);
  append_le(want, double_bits(12.5e-3), 8);
  append_le(want, 123456789, 8);
  for (const core::StackMonitor::SiteReading& r : frame.readings) {
    append_le(want, r.site_index, 4);
    append_le(want, r.die, 4);
    append_le(want, double_bits(r.location.x), 8);
    append_le(want, double_bits(r.location.y), 8);
    append_le(want, double_bits(r.sensed.value()), 8);
    append_le(want, double_bits(r.truth.value()), 8);
    append_le(want, double_bits(r.energy.value()), 8);
    want.push_back(r.degraded ? 1 : 0);
    want.push_back(r.health);
  }
  append_le(want, reference_crc32(want.data(), want.size()), 4);
  EXPECT_EQ(encode(frame), want);

  // The byte order itself, spelled out: sequence 0xDEADBEEF01 and the
  // sim_time 12.5e-3 = 0x3F8999999999999A.
  const std::vector<std::uint8_t> wire = encode(frame);
  const std::vector<std::uint8_t> sequence(wire.begin() + 16,
                                           wire.begin() + 24);
  EXPECT_EQ(sequence, (std::vector<std::uint8_t>{0x01, 0xEF, 0xBE, 0xAD,
                                                 0xDE, 0, 0, 0}));
  const std::vector<std::uint8_t> sim_time(wire.begin() + 24,
                                           wire.begin() + 32);
  EXPECT_EQ(sim_time, (std::vector<std::uint8_t>{0x9A, 0x99, 0x99, 0x99,
                                                 0x99, 0x99, 0x89, 0x3F}));
}

TEST(TelemetryFrame, RoundTrip) {
  const Frame original = sample_frame();
  const std::vector<std::uint8_t> wire = encode(original);
  EXPECT_EQ(wire.size(), encoded_size(original.readings.size()));

  const DecodeResult result = decode(wire);
  ASSERT_EQ(result.status, DecodeStatus::kOk);
  EXPECT_TRUE(result.frame == original);
}

TEST(TelemetryFrame, EmptyScanRoundTrips) {
  Frame frame;
  frame.stack_id = 3;
  const DecodeResult result = decode(encode(frame));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.frame.stack_id, 3u);
  EXPECT_TRUE(result.frame.readings.empty());
}

TEST(TelemetryFrame, EveryTruncationRejected) {
  const std::vector<std::uint8_t> wire = encode(sample_frame());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const DecodeResult result = decode(wire.data(), len);
    EXPECT_NE(result.status, DecodeStatus::kOk) << "length " << len;
  }
  // Trailing garbage is not a valid frame either.
  std::vector<std::uint8_t> longer = wire;
  longer.push_back(0);
  EXPECT_EQ(decode(longer).status, DecodeStatus::kTruncated);
  EXPECT_EQ(decode(nullptr, 0).status, DecodeStatus::kTruncated);
}

TEST(TelemetryFrame, TruncationFuzzExactAllocations) {
  // EveryTruncationRejected passes a short length over the *full* buffer, so
  // a decoder bug that reads past `len` would land in valid memory and go
  // unnoticed.  Here every prefix is copied into an exactly-sized heap
  // allocation: under the sanitizer CI job any out-of-bounds read is a
  // heap-buffer-overflow, and in all builds the status must be non-kOk.
  const Frame multi = sample_frame();
  const std::vector<std::uint8_t> wire = encode(multi);
  ASSERT_GT(multi.readings.size(), 1u);  // multi-site, per the threat model
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::unique_ptr<std::uint8_t[]> exact{new std::uint8_t[len]};
    std::memcpy(exact.get(), wire.data(), len);
    const DecodeResult result = decode(exact.get(), len);
    EXPECT_NE(result.status, DecodeStatus::kOk) << "length " << len;
  }
}

TEST(TelemetryFrame, EveryBitFlipRejected) {
  const std::vector<std::uint8_t> wire = encode(sample_frame());
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = wire;
    corrupt[pos] ^= 0x10;
    EXPECT_NE(decode(corrupt).status, DecodeStatus::kOk) << "byte " << pos;
  }
}

TEST(TelemetryFrame, PayloadCorruptionIsBadCrc) {
  std::vector<std::uint8_t> wire = encode(sample_frame());
  wire[wire.size() / 2] ^= 0xFF;
  EXPECT_EQ(decode(wire).status, DecodeStatus::kBadCrc);
}

TEST(TelemetryFrame, UnknownVersionRejected) {
  // A well-formed frame from a *future* codec revision (valid CRC) must be
  // refused, not misparsed.
  std::vector<std::uint8_t> wire = encode(sample_frame());
  wire[kVersionOffset] = static_cast<std::uint8_t>(kWireVersion + 1);
  refresh_crc(wire);
  EXPECT_EQ(decode(wire).status, DecodeStatus::kUnsupportedVersion);
}

TEST(TelemetryFrame, BadMagicRejected) {
  std::vector<std::uint8_t> wire = encode(sample_frame());
  wire[0] ^= 0xFF;
  refresh_crc(wire);
  EXPECT_EQ(decode(wire).status, DecodeStatus::kBadMagic);
}

TEST(TelemetryFrame, AbsurdSiteCountRejected) {
  // A hostile/corrupt length field must be caught before any allocation is
  // sized from it.
  std::vector<std::uint8_t> wire = encode(sample_frame());
  const std::uint32_t absurd = kMaxSiteCount + 1;
  for (int i = 0; i < 4; ++i) {
    wire[kSiteCountOffset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(absurd >> (8 * i));
  }
  refresh_crc(wire);
  EXPECT_EQ(decode(wire).status, DecodeStatus::kBadSiteCount);
}

TEST(TelemetryFrame, OutOfRangeSiteIndexRejected) {
  // A CRC-valid frame whose reading claims a site outside [0, site_count)
  // must be refused: consumers index scan-shaped arrays by site_index.
  constexpr std::size_t kHeaderSize = 40;  // first reading's site_index field
  std::vector<std::uint8_t> wire = encode(sample_frame());
  const std::uint32_t rogue = 5;  // == site_count, first invalid value
  for (int i = 0; i < 4; ++i) {
    wire[kHeaderSize + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(rogue >> (8 * i));
  }
  refresh_crc(wire);
  EXPECT_EQ(decode(wire).status, DecodeStatus::kBadSiteIndex);
}

TEST(TelemetryFrame, PeekStackId) {
  const Frame frame = sample_frame();
  const std::vector<std::uint8_t> wire = encode(frame);
  ASSERT_TRUE(peek_stack_id(wire).has_value());
  EXPECT_EQ(*peek_stack_id(wire), frame.stack_id);
  EXPECT_FALSE(peek_stack_id(std::vector<std::uint8_t>(8)).has_value());
}

TEST(TelemetryFrame, HealthBytesSurviveRoundTrip) {
  const Frame original = sample_frame();
  const DecodeResult result = decode(encode(original));
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < original.readings.size(); ++i) {
    EXPECT_EQ(result.frame.readings[i].health, original.readings[i].health)
        << "site " << i;
  }
}

TEST(TelemetryFrame, BogusHealthStateRejected) {
  // A CRC-valid frame whose health byte names no core::HealthState must be
  // refused: collectors cast the byte straight into the enum.
  constexpr std::size_t kHeaderSize = 40;
  constexpr std::size_t kSiteSize = 50;  // health is the site's last byte
  std::vector<std::uint8_t> wire = encode(sample_frame());
  wire[kHeaderSize + kSiteSize - 1] = core::kHealthStateCount;
  refresh_crc(wire);
  EXPECT_EQ(decode(wire).status, DecodeStatus::kBadHealthState);
}

TEST(TelemetryFrame, StatusStringsCoverEveryCode) {
  for (const DecodeStatus status :
       {DecodeStatus::kOk, DecodeStatus::kTruncated, DecodeStatus::kBadMagic,
        DecodeStatus::kUnsupportedVersion, DecodeStatus::kBadSiteCount,
        DecodeStatus::kBadSiteIndex, DecodeStatus::kBadHealthState,
        DecodeStatus::kBadCrc}) {
    EXPECT_STRNE(to_string(status), "unknown");
  }
}

}  // namespace
}  // namespace tsvpt::telemetry
