// At-least-once delivery end-to-end: spill-queue crash recovery (torn
// tails, stale markers), kill-and-resume with server-side dedup keeping the
// FleetView exactly-once, ack-loss and duplicate-batch chaos, the FIN drain
// handshake, heartbeat keepalive vs idle reaping, and deterministic
// reconnect jitter.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "ingest/fleet_view.hpp"
#include "ingest/publisher.hpp"
#include "ingest/server.hpp"
#include "ingest/spill.hpp"
#include "inject/fault_plan.hpp"
#include "inject/injectors.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/codec_util.hpp"
#include "telemetry/frame.hpp"

namespace tsvpt::ingest {
namespace {

/// Deterministic synthetic frame: contents depend only on (stack, seq).
std::vector<std::uint8_t> make_wire_frame(std::uint32_t stack,
                                          std::uint64_t seq) {
  telemetry::Frame frame;
  frame.stack_id = stack;
  frame.sequence = seq;
  frame.sim_time = Second{1e-3 * static_cast<double>(seq)};
  for (std::size_t i = 0; i < 4; ++i) {
    core::StackMonitor::SiteReading r;
    r.site_index = i;
    r.die = i / 2;
    r.location = {1e-3 * static_cast<double>(i), 2e-3};
    r.sensed = Celsius{55.0 + static_cast<double>(stack % 7) +
                       0.25 * static_cast<double>(i) +
                       0.01 * static_cast<double>(seq % 17)};
    r.truth = Celsius{r.sensed.value() - 0.2};
    frame.readings.push_back(r);
  }
  return telemetry::encode(frame);
}

std::vector<std::vector<std::uint8_t>> make_fleet(std::size_t stacks,
                                                  std::size_t frames_each) {
  std::vector<std::vector<std::uint8_t>> wire;
  wire.reserve(stacks * frames_each);
  for (std::uint64_t seq = 0; seq < frames_each; ++seq) {
    for (std::uint32_t s = 0; s < stacks; ++s) {
      wire.push_back(make_wire_frame(s, seq));
    }
  }
  return wire;
}

/// Single-process ground truth for digest comparison.
FleetView baseline_view(const std::vector<std::vector<std::uint8_t>>& wire) {
  std::vector<telemetry::Alert> alerts;
  telemetry::Aggregator agg({}, [&](const telemetry::Alert& alert) {
    alerts.push_back(alert);
  });
  for (const auto& frame : wire) agg.ingest(frame);
  FleetView view;
  view.add_shard(agg.summary(), alerts);
  view.finalize();
  return view;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path{testing::TempDir()} / name;
  std::filesystem::remove_all(dir);
  return dir;
}

void wait_for_frames(IngestServer& server, std::uint64_t expect) {
  for (int i = 0; i < 5000 && server.stats().frames < expect; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SpillQueue, AppendReadAckReopenRoundTrip) {
  const auto dir = fresh_dir("spill-roundtrip");
  const std::vector<std::uint8_t> payload_a(100, 0xAB);
  const std::vector<std::uint8_t> payload_b(50, 0xCD);
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    EXPECT_FALSE(info.marker_found);
    EXPECT_TRUE(info.unacked_seqs.empty());
    q.append(1, 8, payload_a);
    q.append(2, 4, payload_b);
    q.append(3, 2, payload_a);
    q.note_next_seq(4);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(q.read(2, out));
    EXPECT_EQ(out, payload_b);
    EXPECT_EQ(q.frame_count_of(1), 8u);
    q.ack(1);
    EXPECT_EQ(q.depth(), 2u);
    EXPECT_FALSE(q.read(1, out));  // retired by the cumulative ack
    q.close();
  }
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    EXPECT_TRUE(info.marker_found);
    EXPECT_EQ(info.acked_seq, 1u);
    EXPECT_EQ(info.next_seq, 4u);
    ASSERT_EQ(info.unacked_seqs, (std::vector<std::uint64_t>{2, 3}));
    EXPECT_FALSE(info.tail_truncated);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(q.read(3, out));
    EXPECT_EQ(out, payload_a);
    EXPECT_EQ(q.frame_count_of(2), 4u);
  }
}

TEST(SpillQueue, TornTailIsTruncatedNotFatal) {
  const auto dir = fresh_dir("spill-torn");
  const std::vector<std::uint8_t> payload(200, 0x5A);
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    q.append(1, 8, payload);
    q.append(2, 8, payload);
    q.close();
  }
  // A SIGKILL mid-append leaves a partial record at the tail: emulate the
  // torn write with half a record header of garbage.
  {
    std::ofstream log((dir / "spill.log").string(),
                      std::ios::binary | std::ios::app);
    const char torn[] = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66};
    log.write(torn, sizeof(torn));
  }
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    EXPECT_TRUE(info.tail_truncated);
    ASSERT_EQ(info.unacked_seqs, (std::vector<std::uint64_t>{1, 2}));
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(q.read(2, out));
    EXPECT_EQ(out, payload);
    // The log was truncated back to the last intact record, so appends
    // continue from a clean tail.
    q.append(3, 8, payload);
    ASSERT_TRUE(q.read(3, out));
    EXPECT_EQ(out, payload);
  }
}

TEST(SpillQueue, TornPayloadDropsOnlyFinalRecord) {
  const auto dir = fresh_dir("spill-torn-payload");
  const std::vector<std::uint8_t> payload(300, 0x77);
  std::uintmax_t full_size = 0;
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    q.append(1, 8, payload);
    q.append(2, 8, payload);
    q.close();
    full_size = std::filesystem::file_size(dir / "spill.log");
  }
  // Cut into record 2's payload: its header is intact but the payload CRC
  // cannot be, so recovery must drop exactly that record.
  std::filesystem::resize_file(dir / "spill.log", full_size - 100);
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    EXPECT_TRUE(info.tail_truncated);
    ASSERT_EQ(info.unacked_seqs, (std::vector<std::uint64_t>{1}));
    // Seq allocation still clears the dropped record: seq 2 was seen in
    // the log header before the tear, and next_seq must never reuse it...
    EXPECT_GE(info.next_seq, 2u);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(q.read(1, out));
    EXPECT_EQ(out, payload);
  }
}

TEST(SpillQueue, MissingMarkerReplaysConservatively) {
  const auto dir = fresh_dir("spill-stale-marker");
  const std::vector<std::uint8_t> payload(64, 0x3C);
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    q.append(1, 8, payload);
    q.append(2, 8, payload);
    q.ack(2);
    q.close();
  }
  // Lose the marker (a crash before its first persist): recovery must fall
  // back to replaying everything in the log — the safe direction, since
  // the server's dedup absorbs the replays.
  std::filesystem::remove(dir / "spill.ack");
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    EXPECT_FALSE(info.marker_found);
    EXPECT_EQ(info.acked_seq, 0u);
    EXPECT_EQ(info.unacked_seqs, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(info.next_seq, 3u);  // high-water mark from the log itself
  }
}

TEST(SpillQueue, CompactionTruncatesFullyAckedLog) {
  const auto dir = fresh_dir("spill-compact");
  // Three half-MiB batches put the log past the compaction threshold.
  const std::vector<std::uint8_t> payload(512u << 10, 0x42);
  SpillQueue::RecoverInfo info;
  SpillQueue q = SpillQueue::open(dir.string(), {}, info);
  q.append(1, 8, payload);
  q.append(2, 8, payload);
  q.append(3, 8, payload);
  EXPECT_GT(q.log_bytes(), store::kLogHeaderSize + kSpillCompactMinBytes);
  q.ack(2);  // a live record keeps the log whole
  EXPECT_EQ(q.compactions(), 0u);
  q.ack(3);
  EXPECT_EQ(q.compactions(), 1u);
  EXPECT_EQ(q.log_bytes(), store::kLogHeaderSize);
  EXPECT_EQ(q.depth(), 0u);
  // Still writable after compaction.
  q.append(4, 8, payload);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(q.read(4, out));
  EXPECT_EQ(out, payload);
}

/// Append `value` as `bytes` little-endian bytes.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

/// One spill.log record built from the layout documented in spill.hpp.
void put_spill_record(std::vector<std::uint8_t>& out, std::uint64_t seq,
                      std::uint32_t frames,
                      const std::vector<std::uint8_t>& payload) {
  const std::size_t head = out.size();
  put_le(out, seq, 8);
  put_le(out, payload.size(), 4);
  put_le(out, frames, 4);
  put_le(out, telemetry::crc32(out.data() + head, 16), 4);
  out.insert(out.end(), payload.begin(), payload.end());
  put_le(out, telemetry::crc32(payload.data(), payload.size()), 4);
}

std::vector<std::uint8_t> read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_all(const std::filesystem::path& path,
               const std::vector<std::uint8_t>& bytes, std::size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(count));
}

TEST(SpillQueue, GoldenBytesMatchTheDocumentedLayout) {
  const auto dir = fresh_dir("spill-golden");
  const std::vector<std::uint8_t> payload_a{1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> payload_b(40, 0xE7);
  {
    SpillQueue::RecoverInfo info;
    SpillQueue q = SpillQueue::open(dir.string(), {}, info);
    q.append(1, 8, payload_a);
    q.append(2, 3, payload_b);
    q.close();
  }
  std::vector<std::uint8_t> expect{'T', 'S', 'V', 'Q', 1, 0, 0, 0};
  put_spill_record(expect, 1, 8, payload_a);
  put_spill_record(expect, 2, 3, payload_b);
  EXPECT_EQ(read_all(dir / "spill.log"), expect);

  // The hand-built log recovers in a fresh directory (no marker).
  const auto hand = fresh_dir("spill-hand-built");
  std::filesystem::create_directories(hand);
  write_all(hand / "spill.log", expect, expect.size());
  SpillQueue::RecoverInfo info;
  SpillQueue q = SpillQueue::open(hand.string(), {}, info);
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_FALSE(info.marker_found);
  EXPECT_EQ(info.unacked_seqs, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(info.next_seq, 3u);
  EXPECT_EQ(q.frame_count_of(2), 3u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(q.read(1, out));
  EXPECT_EQ(out, payload_a);
  ASSERT_TRUE(q.read(2, out));
  EXPECT_EQ(out, payload_b);
}

TEST(SpillQueue, RecoveryAtEveryTruncationOffset) {
  // The crash model: a SIGKILL mid-append leaves an arbitrary prefix of the
  // log.  For EVERY prefix length, reopening must recover exactly the
  // records that lie wholly inside it, report the cut, and resume appending
  // on a clean tail.
  const std::vector<std::vector<std::uint8_t>> payloads{
      {0x10, 0x11, 0x12}, std::vector<std::uint8_t>(9, 0x20), {0x30}};
  std::vector<std::uint8_t> golden{'T', 'S', 'V', 'Q', 1, 0, 0, 0};
  std::vector<std::size_t> record_end;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    put_spill_record(golden, i + 1, 1, payloads[i]);
    record_end.push_back(golden.size());
  }
  const std::vector<std::uint8_t> extra(6, 0x99);
  const auto dir = fresh_dir("spill-every-offset");
  for (std::size_t len = 0; len <= golden.size(); ++len) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    write_all(dir / "spill.log", golden, len);

    std::vector<std::uint64_t> expect_seqs;
    std::size_t expect_valid = store::kLogHeaderSize;
    for (std::size_t i = 0; i < record_end.size(); ++i) {
      if (record_end[i] > len) break;
      expect_seqs.push_back(i + 1);
      expect_valid = record_end[i];
    }
    SpillQueue::RecoverInfo info;
    std::uint64_t next = 0;
    {
      SpillQueue q = SpillQueue::open(dir.string(), {}, info);
      EXPECT_EQ(info.unacked_seqs, expect_seqs) << "length " << len;
      EXPECT_EQ(info.tail_truncated,
                len > 0 && (len < store::kLogHeaderSize || expect_valid < len))
          << "length " << len;
      EXPECT_EQ(q.log_bytes(), expect_valid) << "length " << len;
      next = info.next_seq;
      q.append(next, 1, extra);
      std::vector<std::uint8_t> out;
      ASSERT_TRUE(q.read(next, out)) << "length " << len;
      EXPECT_EQ(out, extra) << "length " << len;
    }
    // Reopened, the log holds the survivors plus the new record and no
    // torn bytes.
    SpillQueue::RecoverInfo reopened;
    SpillQueue q = SpillQueue::open(dir.string(), {}, reopened);
    EXPECT_FALSE(reopened.tail_truncated) << "length " << len;
    expect_seqs.push_back(next);
    EXPECT_EQ(reopened.unacked_seqs, expect_seqs) << "length " << len;
    std::vector<std::uint8_t> out;
    for (const std::uint64_t seq : expect_seqs) {
      ASSERT_TRUE(q.read(seq, out)) << "length " << len;
      EXPECT_EQ(out, seq == next ? extra : payloads[seq - 1])
          << "length " << len;
    }
  }
}

TEST(IngestResume, KilledPublisherResumesFromSpillWithoutLoss) {
  // The headline gate in miniature: a publisher that never learns what the
  // server received (every ack dropped), "SIGKILL'd" mid-stream, restarted
  // against its spill dir — the FleetView must match the single-process
  // baseline bit for bit, with zero frame loss and zero double counting.
  const auto wire = make_fleet(6, 32);
  const auto spill_dir = fresh_dir("resume-spill");

  IngestServer::Config server_config;
  server_config.shard_count = 2;
  IngestServer server(server_config);
  server.start();

  FleetPublisher::Config config;
  config.port = server.port();
  config.batch_max_frames = 16;
  config.spill_dir = spill_dir.string();
  config.backoff_initial = Second{0.0};

  // Incarnation 1: acks never arrive, so nothing is ever retired from the
  // spill log or the unacked window.
  inject::FaultPlan drop_acks;
  drop_acks.add({inject::FaultKind::kAckDrop, 0, 0, 0, 1u << 20, 0.0});
  inject::NetChaos chaos(std::move(drop_acks));
  std::uint64_t publisher_id = 0;
  {
    FleetPublisher::Config first = config;
    first.hook = &chaos;
    FleetPublisher pub(first);
    publisher_id = pub.publisher_id();
    for (const auto& frame : wire) pub.offer(frame);
    pub.flush();
    for (int i = 0; i < 2000 && !pub.pump(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(pub.stats().frames_sent, wire.size());
    // Keep polling until the server's acks have arrived (and been eaten by
    // the chaos hook): the window must never advance.
    for (int i = 0; i < 2000 && pub.stats().hook_acks_dropped == 0; ++i) {
      (void)pub.pump();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(pub.acked_seq(), 0u);  // every ack was dropped
    EXPECT_GT(pub.stats().hook_acks_dropped, 0u);
    // Destroyed without drain: the process dies here.  Everything it sent
    // is also still in the spill log, unacked.
  }
  wait_for_frames(server, wire.size());

  // Incarnation 2: same spill dir, same derived identity.  It replays the
  // whole unacked window; the server already ingested every batch, so
  // dedup must veto all of them.
  {
    FleetPublisher pub(config);
    EXPECT_EQ(pub.publisher_id(), publisher_id);
    EXPECT_EQ(pub.stats().resumed_batches, 12u);  // 192 frames / 16 per batch
    EXPECT_EQ(pub.stats().resumed_frames, wire.size());
    for (int i = 0; i < 2000 && !pub.pump(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(pub.drain(Second{5.0}));
    EXPECT_EQ(pub.stats().retransmitted_frames, wire.size());
    EXPECT_EQ(pub.stats().frames_sent, 0u);  // nothing new, only replays
    EXPECT_GT(pub.acked_seq(), 0u);
  }
  server.stop();

  const auto stats = server.stats();
  EXPECT_EQ(stats.frames, wire.size());
  EXPECT_EQ(stats.duplicate_frames, wire.size());
  EXPECT_GT(stats.duplicate_batches, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.fin_drains, 1u);

  const FleetView view = server.fleet_view();
  const FleetView baseline = baseline_view(wire);
  EXPECT_EQ(view.frames(), wire.size());
  EXPECT_EQ(view.missed(), 0u);
  EXPECT_EQ(view.digest(), baseline.digest());
}

TEST(IngestResume, MidStreamDisconnectRetransmitsAndServerDedups) {
  // kNetDrop cuts the connection right after batch 2 reaches the kernel;
  // kAckDrop covering the same seqs guarantees the publisher never saw the
  // ack, so the reconnect MUST retransmit and the server MUST dedup.
  const auto wire = make_fleet(4, 16);
  IngestServer server({});
  server.start();

  inject::FaultPlan plan;
  plan.add({inject::FaultKind::kNetDrop, 0, 0, 2, 3, 0.0});
  plan.add({inject::FaultKind::kAckDrop, 0, 0, 0, 3, 0.0});
  inject::NetChaos chaos(std::move(plan));

  FleetPublisher::Config config;
  config.port = server.port();
  config.batch_max_frames = 8;
  config.backoff_initial = Second{0.0};
  config.hook = &chaos;
  FleetPublisher pub(config);
  for (const auto& frame : wire) pub.offer(frame);
  pub.flush();
  for (int i = 0; i < 2000 && !pub.pump(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pub.drain(Second{5.0}));
  server.stop();

  EXPECT_EQ(chaos.stats().connections_dropped, 1u);
  EXPECT_GE(pub.stats().retransmitted_batches, 1u);
  EXPECT_EQ(pub.stats().frames_sent, wire.size());

  const auto stats = server.stats();
  EXPECT_GE(stats.duplicate_batches, 1u);
  EXPECT_EQ(stats.frames, wire.size());  // dedup kept it exactly-once
  EXPECT_EQ(stats.protocol_errors, 0u);

  const FleetView view = server.fleet_view();
  EXPECT_EQ(view.frames(), wire.size());
  EXPECT_EQ(view.missed(), 0u);
  EXPECT_EQ(view.digest(), baseline_view(wire).digest());
}

TEST(IngestResume, DuplicateBatchChaosIsAbsorbedByDedup) {
  const auto wire = make_fleet(4, 16);
  IngestServer server({});
  server.start();

  inject::FaultPlan plan;
  plan.add({inject::FaultKind::kDupBatch, 0, 0, 1, 3, 0.0});
  inject::NetChaos chaos(std::move(plan));

  FleetPublisher::Config config;
  config.port = server.port();
  config.batch_max_frames = 8;
  config.hook = &chaos;
  FleetPublisher pub(config);
  for (const auto& frame : wire) pub.offer(frame);
  pub.flush();
  for (int i = 0; i < 2000 && !pub.pump(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pub.drain(Second{5.0}));
  server.stop();

  EXPECT_EQ(chaos.stats().batches_duplicated, 2u);
  EXPECT_EQ(pub.stats().hook_duplicated_batches, 2u);

  const auto stats = server.stats();
  EXPECT_EQ(stats.duplicate_batches, 2u);
  EXPECT_EQ(stats.frames, wire.size());
  const FleetView view = server.fleet_view();
  EXPECT_EQ(view.frames(), wire.size());
  EXPECT_EQ(view.missed(), 0u);
  EXPECT_EQ(view.digest(), baseline_view(wire).digest());
}

TEST(IngestResume, FinDrainHandshakeCompletesAndLeavesAnEmptySpillWindow) {
  const auto wire = make_fleet(3, 8);
  const auto spill_dir = fresh_dir("drain-spill");
  IngestServer server({});
  server.start();

  FleetPublisher::Config config;
  config.port = server.port();
  config.batch_max_frames = 8;
  config.spill_dir = spill_dir.string();
  FleetPublisher pub(config);
  for (const auto& frame : wire) pub.offer(frame);
  EXPECT_TRUE(pub.drain(Second{5.0}));
  EXPECT_TRUE(pub.stats().drained);
  EXPECT_EQ(pub.stats().fin_sent, 1u);
  EXPECT_EQ(pub.stats().unacked_batches, 0u);
  server.stop();
  EXPECT_EQ(server.stats().fin_drains, 1u);
  EXPECT_EQ(server.stats().frames, wire.size());

  // Everything acked: a later incarnation finds an empty window.
  pub.disconnect();
  SpillQueue::RecoverInfo info;
  SpillQueue q = SpillQueue::open(spill_dir.string(), {}, info);
  (void)q;
  EXPECT_TRUE(info.unacked_seqs.empty());
  EXPECT_GE(info.acked_seq, 1u);
}

TEST(IngestResume, HeartbeatKeepsConnectionAliveAndSilenceIsReaped) {
  IngestServer::Config server_config;
  server_config.idle_conn_timeout = Second{0.25};
  IngestServer server(server_config);
  server.start();

  FleetPublisher::Config config;
  config.port = server.port();
  FleetPublisher pub(config);
  // Establish the connection with one real batch.
  pub.offer(make_wire_frame(0, 0));
  pub.flush();
  for (int i = 0; i < 2000 && !pub.pump(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pub.connected());

  // Heartbeats well inside the timeout: the server must keep us.
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pub.heartbeat();
    (void)pub.pump();
  }
  EXPECT_GE(pub.stats().heartbeats_sent, 8u);
  auto stats = server.stats();
  EXPECT_EQ(stats.reaped_connections, 0u);
  EXPECT_GE(stats.heartbeats, 7u);
  EXPECT_EQ(stats.open_connections, 1u);

  // Go silent: the idle reaper must close us within a few timeouts.
  for (int i = 0; i < 5000 && server.stats().reaped_connections == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().reaped_connections, 1u);
  server.stop();
}

TEST(IngestResume, BackoffJitterIsSeedDeterministic) {
  // Two publishers with the same jitter seed draw identical backoff
  // schedules; different seeds diverge.  Observable consequence: identical
  // failed-connect counts over a fixed pump cadence would be timing-flaky,
  // so assert on the deterministic surface instead — the jitter stream.
  Rng a{derive_seed(1234, 0xB0FFu)};
  Rng b{derive_seed(1234, 0xB0FFu)};
  Rng c{derive_seed(5678, 0xB0FFu)};
  bool diverged = false;
  for (int i = 0; i < 32; ++i) {
    const double draw_a = a.uniform();
    EXPECT_EQ(draw_a, b.uniform());
    if (draw_a != c.uniform()) diverged = true;
  }
  EXPECT_TRUE(diverged);

  // And the publisher path actually survives jittered backoff against a
  // dead endpoint without shedding anything (spill-less, under the queue
  // bound).
  FleetPublisher::Config config;
  config.port = 1;  // nothing listens here
  config.batch_max_frames = 4;
  config.backoff_initial = Second{0.0001};
  config.backoff_jitter = 0.5;
  config.jitter_seed = 1234;
  FleetPublisher pub(config);
  for (std::uint64_t i = 0; i < 16; ++i) pub.offer(make_wire_frame(0, i));
  pub.flush();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(pub.pump());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pub.stats().frames_sent, 0u);
  EXPECT_EQ(pub.stats().queue_dropped_batches, 0u);
  EXPECT_FALSE(pub.stats().connected_once);
}

}  // namespace
}  // namespace tsvpt::ingest
