#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "store/block.hpp"
#include "store/segment.hpp"
#include "telemetry/codec_util.hpp"

namespace tsvpt::store {
namespace {

telemetry::Frame make_frame(std::uint32_t stack, std::uint64_t sequence,
                            double sim_time) {
  telemetry::Frame frame;
  frame.stack_id = stack;
  frame.sequence = sequence;
  frame.sim_time = Second{sim_time};
  frame.capture_ns = 1'000'000 * sequence;
  for (std::size_t i = 0; i < 3; ++i) {
    core::StackMonitor::SiteReading r;
    r.site_index = i;
    r.die = i;
    r.location = {0.25e-3 * static_cast<double>(i), 0.75e-3};
    r.sensed = Celsius{35.0 + 0.02 * static_cast<double>(sequence)};
    r.truth = Celsius{r.sensed.value() + 0.1};
    r.energy = Joule{1.5e-9};
    frame.readings.push_back(r);
  }
  return frame;
}

std::vector<std::uint8_t> sealed_block(std::uint32_t stack,
                                       std::uint64_t first_sequence,
                                       double t0, std::size_t frames = 4) {
  BlockBuilder builder;
  for (std::size_t i = 0; i < frames; ++i) {
    builder.add(make_frame(stack, first_sequence + i,
                           t0 + 1e-3 * static_cast<double>(i)));
  }
  return builder.seal();
}

std::string temp_path(const char* name) {
  // Per-process root: sanitizer jobs may run this binary concurrently.
  const std::filesystem::path dir =
      std::filesystem::path{testing::TempDir()} /
      ("tsvpt_segment_tests_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes, std::size_t count) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (count > 0) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, count, file), count);
  }
  ASSERT_EQ(std::fclose(file), 0);
}

TEST(StoreSegment, CreateAppendScanRoundTrip) {
  const std::string path = temp_path("roundtrip.tsl");
  {
    RecordLog log = RecordLog::create(path, kSegmentFormat, 8);
    log.append(sealed_block(1, 0, 0.0));
    log.append(sealed_block(2, 0, 4e-3));
    log.append(sealed_block(1, 4, 8e-3));
    log.close();
  }
  const SegmentIndex index = scan_segment(path);
  EXPECT_TRUE(index.valid_header);
  EXPECT_FALSE(index.torn_tail());
  ASSERT_EQ(index.blocks.size(), 3u);
  EXPECT_EQ(index.blocks[0].offset, kLogHeaderSize);
  EXPECT_EQ(index.blocks[1].offset,
            index.blocks[0].offset + index.blocks[0].size);
  EXPECT_EQ(index.frames(), 12u);
  EXPECT_EQ(index.valid_bytes, index.file_bytes);
  EXPECT_GT(index.raw_bytes(), index.valid_bytes);  // compression held
}

/// Append `value` as `bytes` little-endian bytes.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

TEST(StoreSegment, GoldenBytesMatchTheDocumentedLayout) {
  // One two-frame block written through the log.  Every byte except the
  // compressed payload is rebuilt here from the layouts documented in
  // segment.hpp (file header) and block.hpp (record header and CRCs).
  const std::vector<telemetry::Frame> frames{make_frame(5, 0, 0.0),
                                             make_frame(5, 1, 1e-3)};
  BlockBuilder builder;
  for (const telemetry::Frame& frame : frames) builder.add(frame);
  const std::vector<std::uint8_t> record = builder.seal();
  const std::string path = temp_path("golden-bytes.tsl");
  {
    RecordLog log = RecordLog::create(path, kSegmentFormat, 8);
    log.append(record);
    log.close();
  }

  const std::size_t record_header = kBlockFixedHeaderSize + 4 + kBlockCrcSize;
  const std::vector<std::uint8_t> payload(
      record.begin() + static_cast<long>(record_header),
      record.end() - static_cast<long>(kBlockCrcSize));
  std::vector<std::uint8_t> expect{'T', 'S', 'V', 'S', 1, 0, 0, 0};
  const std::size_t block_at = expect.size();
  expect.insert(expect.end(), {'T', 'S', 'V', 'B'});
  put_le(expect, payload.size(), 4);
  put_le(expect, 2, 4);  // frame_count
  put_le(expect, 1, 4);  // stack_count
  put_le(expect, std::bit_cast<std::uint64_t>(0.0), 8);   // t_min
  put_le(expect, std::bit_cast<std::uint64_t>(1e-3), 8);  // t_max
  put_le(expect, 2 * telemetry::encoded_size(3), 8);      // raw_bytes
  put_le(expect, 5, 4);                                   // stack id
  put_le(expect,
         telemetry::crc32(expect.data() + block_at, expect.size() - block_at),
         4);
  expect.insert(expect.end(), payload.begin(), payload.end());
  put_le(expect, telemetry::crc32(payload.data(), payload.size()), 4);

  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(path, bytes));
  EXPECT_EQ(bytes, expect);

  // The hand-built file recovers: its one block is indexed, reads back
  // through the log, and decodes to the frames.
  const std::string hand = temp_path("hand-built.tsl");
  write_bytes(hand, expect, expect.size());
  SegmentIndex recovered;
  RecordLog log = RecordLog::recover(hand, kSegmentFormat, 8,
                                     block_check(recovered.blocks), recovered);
  EXPECT_FALSE(log.tail_truncated());
  EXPECT_EQ(log.bytes(), expect.size());
  ASSERT_EQ(recovered.blocks.size(), 1u);
  EXPECT_EQ(recovered.blocks[0].offset, kLogHeaderSize);
  EXPECT_EQ(recovered.blocks[0].header.frame_count, 2u);
  std::vector<std::uint8_t> again;
  ASSERT_TRUE(log.read(recovered.blocks[0].offset,
                       static_cast<std::size_t>(recovered.blocks[0].size),
                       again));
  std::vector<telemetry::Frame> decoded;
  ASSERT_EQ(decode_block(again.data(), again.size(), decoded),
            BlockStatus::kOk);
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(telemetry::encode(decoded[i]), telemetry::encode(frames[i]));
  }
}

TEST(StoreSegment, RecoveryAtEveryTruncationOffset) {
  // The crash model: a SIGKILL mid-write leaves an arbitrary prefix of the
  // segment.  For EVERY prefix length, the scan must index exactly the
  // golden blocks that fit completely, recovery must truncate to that
  // boundary, and appending must resume cleanly after the survivors.
  const std::string golden_path = temp_path("golden.tsl");
  {
    RecordLog log = RecordLog::create(golden_path, kSegmentFormat, 8);
    log.append(sealed_block(1, 0, 0.0, 2));
    log.append(sealed_block(2, 0, 2e-3, 2));
    log.append(sealed_block(1, 2, 4e-3, 2));
    log.close();
  }
  const SegmentIndex golden = scan_segment(golden_path);
  ASSERT_EQ(golden.blocks.size(), 3u);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(golden_path, bytes));

  const std::vector<std::uint8_t> extra = sealed_block(3, 0, 9e-3, 2);
  const std::string torn_path = temp_path("torn.tsl");
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    write_bytes(torn_path, bytes, len);

    // How many golden blocks fit completely in this prefix?
    std::size_t expect_blocks = 0;
    std::uint64_t expect_valid = kLogHeaderSize;
    if (len >= kLogHeaderSize) {
      for (const BlockIndexEntry& block : golden.blocks) {
        if (block.offset + block.size > len) break;
        expect_blocks += 1;
        expect_valid = block.offset + block.size;
      }
    }

    const SegmentIndex scanned = scan_segment(torn_path);
    if (len < kLogHeaderSize) {
      EXPECT_FALSE(scanned.valid_header) << "length " << len;
    } else {
      ASSERT_TRUE(scanned.valid_header) << "length " << len;
      EXPECT_EQ(scanned.blocks.size(), expect_blocks) << "length " << len;
      EXPECT_EQ(scanned.valid_bytes, expect_valid) << "length " << len;
      EXPECT_EQ(scanned.torn_tail(), expect_valid < len) << "length " << len;
      for (std::size_t i = 0; i < scanned.blocks.size(); ++i) {
        EXPECT_EQ(scanned.blocks[i].offset, golden.blocks[i].offset);
        EXPECT_EQ(scanned.blocks[i].size, golden.blocks[i].size);
      }
    }

    // Recover, then keep going: the resumed segment must hold the surviving
    // prefix plus the new block, with no torn bytes left behind.
    {
      SegmentIndex recovered;
      RecordLog log =
          RecordLog::recover(torn_path, kSegmentFormat, 8,
                             block_check(recovered.blocks), recovered);
      EXPECT_EQ(log.tail_truncated(),
                len > 0 && (len < kLogHeaderSize || expect_valid < len))
          << "length " << len;
      EXPECT_EQ(recovered.blocks.size(),
                len < kLogHeaderSize ? 0u : expect_blocks)
          << "length " << len;
      log.append(extra);
      log.close();
    }
    const SegmentIndex resumed = scan_segment(torn_path);
    ASSERT_TRUE(resumed.valid_header) << "length " << len;
    EXPECT_FALSE(resumed.torn_tail()) << "length " << len;
    const std::size_t survivors = len < kLogHeaderSize ? 0 : expect_blocks;
    ASSERT_EQ(resumed.blocks.size(), survivors + 1) << "length " << len;
    EXPECT_EQ(resumed.blocks.back().size, extra.size()) << "length " << len;
    EXPECT_TRUE(resumed.blocks.back().header.contains_stack(3));
  }
}

TEST(StoreSegment, GarbageFileIsNotASegment) {
  const std::string path = temp_path("garbage.tsl");
  write_bytes(path, {'n', 'o', 'p', 'e', 0, 1, 2, 3, 4, 5}, 10);
  const SegmentIndex index = scan_segment(path);
  EXPECT_FALSE(index.valid_header);
  EXPECT_TRUE(index.blocks.empty());
  EXPECT_TRUE(index.torn_tail());

  // Recovery starts the segment over rather than appending after junk.
  SegmentIndex recovered;
  RecordLog log = RecordLog::recover(path, kSegmentFormat, 8,
                                     block_check(recovered.blocks), recovered);
  EXPECT_TRUE(log.tail_truncated());
  log.append(sealed_block(1, 0, 0.0));
  log.close();
  const SegmentIndex after = scan_segment(path);
  EXPECT_TRUE(after.valid_header);
  EXPECT_EQ(after.blocks.size(), 1u);
  EXPECT_FALSE(after.torn_tail());
}

TEST(StoreSegment, MissingFileScansEmpty) {
  const SegmentIndex index = scan_segment(temp_path("does-not-exist.tsl"));
  EXPECT_FALSE(index.valid_header);
  EXPECT_EQ(index.file_bytes, 0u);
  EXPECT_TRUE(index.blocks.empty());
}

TEST(StoreSegment, FsyncBatchingPolicy) {
  const std::string path = temp_path("fsync.tsl");
  RecordLog log = RecordLog::create(path, kSegmentFormat, 2);
  const std::uint64_t after_create = log.fsync_count();
  for (std::uint64_t i = 0; i < 5; ++i) {
    log.append(sealed_block(1, 4 * i, 1e-2 * static_cast<double>(i)));
  }
  // Five appends at a batch of two -> exactly two batched syncs; the odd
  // block waits for close().
  EXPECT_EQ(log.fsync_count(), after_create + 2);
  log.close();
  EXPECT_EQ(log.fsync_count(), after_create + 3);
  log.close();  // idempotent, no further syncs
  EXPECT_EQ(log.fsync_count(), after_create + 3);
  EXPECT_EQ(log.records_appended(), 5u);
}

TEST(StoreSegment, ZeroBatchSyncsOnlyOnClose) {
  const std::string path = temp_path("fsync0.tsl");
  RecordLog log = RecordLog::create(path, kSegmentFormat, 0);
  const std::uint64_t after_create = log.fsync_count();
  for (std::uint64_t i = 0; i < 4; ++i) {
    log.append(sealed_block(1, 4 * i, 1e-2 * static_cast<double>(i)));
  }
  EXPECT_EQ(log.fsync_count(), after_create);
  log.close();
  EXPECT_EQ(log.fsync_count(), after_create + 1);
}

TEST(StoreSegment, ReplaceFileSyncIsAtomicSwap) {
  const std::string path = temp_path("swap.tsl");
  write_bytes(path, {1, 2, 3}, 3);
  const std::vector<std::uint8_t> fresh{9, 8, 7, 6};
  replace_file_sync(path, fresh);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(path, bytes));
  EXPECT_EQ(bytes, fresh);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace tsvpt::store
