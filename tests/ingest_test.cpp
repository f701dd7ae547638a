// Distributed ingestion end-to-end: shard hashing stability, publisher
// batching/backpressure, loopback digest equality against the
// single-process Aggregator, reconnect-with-resume accounting, and
// deterministic transport chaos replay.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "ingest/fleet_view.hpp"
#include "ingest/publisher.hpp"
#include "ingest/server.hpp"
#include "inject/fault_plan.hpp"
#include "inject/injectors.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/fleet_sampler.hpp"
#include "telemetry/frame.hpp"

namespace tsvpt::ingest {
namespace {

/// Deterministic synthetic frame: contents depend only on (stack, seq).
std::vector<std::uint8_t> make_wire_frame(std::uint32_t stack,
                                          std::uint64_t seq,
                                          std::size_t sites = 4,
                                          double base_c = 55.0) {
  telemetry::Frame frame;
  frame.stack_id = stack;
  frame.sequence = seq;
  frame.sim_time = Second{1e-3 * static_cast<double>(seq)};
  for (std::size_t i = 0; i < sites; ++i) {
    core::StackMonitor::SiteReading r;
    r.site_index = i;
    r.die = i / 2;
    r.location = {1e-3 * static_cast<double>(i), 2e-3};
    r.sensed = Celsius{base_c + static_cast<double>(stack % 7) +
                       0.25 * static_cast<double>(i) +
                       0.01 * static_cast<double>(seq % 17)};
    r.truth = Celsius{r.sensed.value() - 0.2};
    frame.readings.push_back(r);
  }
  return telemetry::encode(frame);
}

/// The whole synthetic fleet, per-stack sequences interleaved round-robin
/// (the arrival pattern a multi-stack sampler produces).
std::vector<std::vector<std::uint8_t>> make_fleet(std::size_t stacks,
                                                  std::size_t frames_each,
                                                  double base_c = 55.0) {
  std::vector<std::vector<std::uint8_t>> wire;
  wire.reserve(stacks * frames_each);
  for (std::uint64_t seq = 0; seq < frames_each; ++seq) {
    for (std::uint32_t s = 0; s < stacks; ++s) {
      wire.push_back(make_wire_frame(s, seq, 4, base_c));
    }
  }
  return wire;
}

/// Single-process ground truth: one Aggregator ingesting every frame in
/// order, folded into a finalized FleetView.
FleetView baseline_view(const std::vector<std::vector<std::uint8_t>>& wire,
                        const telemetry::Aggregator::Config& config) {
  std::vector<telemetry::Alert> alerts;
  telemetry::Aggregator agg(config, [&](const telemetry::Alert& alert) {
    alerts.push_back(alert);
  });
  for (const auto& frame : wire) agg.ingest(frame);
  FleetView view;
  view.add_shard(agg.summary(), alerts);
  view.finalize();
  return view;
}

/// Publish `wire` to a running server in caller-driven mode and wait until
/// the server has routed everything (or `expect_frames` arrived).
void publish_and_wait(IngestServer& server,
                      const std::vector<std::vector<std::uint8_t>>& wire,
                      FleetPublisher::Config config,
                      std::uint64_t expect_frames) {
  config.port = server.port();
  FleetPublisher pub(std::move(config));
  for (const auto& frame : wire) pub.offer(frame);
  pub.flush();
  for (int i = 0; i < 2000 && !pub.pump(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 5000; ++i) {
    if (server.stats().frames >= expect_frames) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().frames, expect_frames);
}

TEST(IngestHash, ShardMapIsStableAcrossRunsAndPlatforms) {
  // Pinned golden values: splitmix64(stack_id) % shards.  If these move,
  // every deployed fleet's shard assignment moves with them — that is a
  // wire-compatibility break, not a refactor.
  EXPECT_EQ(IngestServer::shard_of(0, 4), 3u);
  EXPECT_EQ(IngestServer::shard_of(1, 4), 1u);
  EXPECT_EQ(IngestServer::shard_of(2, 4), 2u);
  EXPECT_EQ(IngestServer::shard_of(3, 4), 1u);
  EXPECT_EQ(IngestServer::shard_of(12345, 16),
            IngestServer::shard_of(12345, 16));
  for (std::uint32_t id = 0; id < 1000; ++id) {
    EXPECT_LT(IngestServer::shard_of(id, 8), 8u);
    EXPECT_EQ(IngestServer::shard_of(id, 1), 0u);
  }
}

TEST(IngestHash, SpreadsStacksAcrossShards) {
  std::vector<std::size_t> load(8, 0);
  for (std::uint32_t id = 0; id < 4096; ++id) {
    load[IngestServer::shard_of(id, 8)] += 1;
  }
  for (std::size_t s = 0; s < 8; ++s) {
    // Uniform would be 512; a badly skewed hash concentrates load.
    EXPECT_GT(load[s], 512u / 2) << "shard " << s;
    EXPECT_LT(load[s], 512u * 2) << "shard " << s;
  }
}

TEST(IngestPublisher, BatchesSealBySizeAndQueueDropsOldest) {
  FleetPublisher::Config config;
  config.port = 1;  // never connected: pure batching/queue behaviour
  config.batch_max_frames = 4;
  config.queue_max_batches = 2;
  FleetPublisher pub(config);

  // 5 batches' worth of frames into a 2-batch queue.
  for (std::uint64_t i = 0; i < 20; ++i) {
    pub.offer(make_wire_frame(7, i));
  }
  const auto stats = pub.stats();
  EXPECT_EQ(stats.frames_enqueued, 20u);
  EXPECT_EQ(stats.queue_dropped_batches, 3u);
  EXPECT_EQ(stats.queue_dropped_frames, 12u);
  EXPECT_EQ(stats.frames_sent, 0u);
}

TEST(IngestPublisher, PumpWithoutServerFailsWithoutLosingQueuedBatches) {
  FleetPublisher::Config config;
  // Bind-then-close for a port that refuses connections.
  {
    const net::Socket probe = net::tcp_listen("127.0.0.1", 0);
    config.port = net::local_port(probe);
  }
  config.backoff_initial = Second{0.0};
  FleetPublisher pub(config);
  pub.offer(make_wire_frame(1, 0));
  pub.flush();
  EXPECT_FALSE(pub.pump());
  const auto stats = pub.stats();
  EXPECT_FALSE(stats.connected_once);
  EXPECT_EQ(stats.frames_sent, 0u);
  EXPECT_EQ(stats.queue_dropped_batches, 0u);
}

TEST(IngestLoopback, ShardedDigestMatchesSingleProcessAggregator) {
  // The acceptance property in miniature: same frames, any shard count,
  // byte-identical canonical fleet view.  A low threshold makes stacks
  // with base >= 60C alert, so the merge is exercised with alerts present.
  telemetry::Aggregator::Config agg;
  agg.alert_threshold = Celsius{58.0};
  const auto wire = make_fleet(13, 24);
  const FleetView baseline = baseline_view(wire, agg);
  ASSERT_GT(baseline.alerts(), 0u);
  ASSERT_EQ(baseline.frames(), wire.size());

  for (const std::size_t shard_count : {1u, 2u, 4u}) {
    IngestServer::Config config;
    config.shard_count = shard_count;
    config.aggregator = agg;
    IngestServer server(config);
    server.start();
    publish_and_wait(server, wire, {}, wire.size());
    server.stop();

    const FleetView view = server.fleet_view();
    EXPECT_EQ(view.frames(), baseline.frames()) << shard_count << " shards";
    EXPECT_EQ(view.alerts(), baseline.alerts()) << shard_count << " shards";
    EXPECT_EQ(view.missed(), 0u);
    EXPECT_EQ(view.canonical_bytes(), baseline.canonical_bytes())
        << shard_count << " shards";
    EXPECT_EQ(view.digest(), baseline.digest()) << shard_count << " shards";

    if (shard_count > 1) {
      // Frames actually spread: no shard got everything.
      const auto stats = server.stats();
      for (const std::uint64_t per : stats.frames_per_shard) {
        EXPECT_LT(per, wire.size());
      }
    }
  }
}

TEST(IngestLoopback, ReconnectResumesWithoutLoss) {
  IngestServer::Config config;
  config.shard_count = 2;
  IngestServer server(config);
  server.start();

  FleetPublisher::Config pub_config;
  pub_config.port = server.port();
  pub_config.backoff_initial = Second{0.001};
  FleetPublisher pub(pub_config);

  const auto wire = make_fleet(4, 10);
  std::uint64_t offered = 0;
  for (const auto& frame : wire) {
    pub.offer(frame);
    offered += 1;
    if (offered % 8 == 0) {
      pub.flush();
      while (!pub.pump()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Let the server ingest everything sent so far before cutting the
      // connection: TCP orders bytes within one connection only, so a
      // reconnect while the old connection still has queued bytes would
      // interleave frames across the boundary (no loss, but digest
      // equality needs arrival order preserved).
      for (int i = 0; i < 5000 && server.stats().frames < offered; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      pub.disconnect();  // clean drop between batches: nothing in flight
    }
  }
  pub.flush();
  while (!pub.pump()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 5000 && server.stats().frames < wire.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();

  const auto pub_stats = pub.stats();
  EXPECT_GE(pub_stats.connects, 2u);
  EXPECT_EQ(pub_stats.frames_sent, wire.size());

  const FleetView view = server.fleet_view();
  EXPECT_EQ(view.frames(), wire.size());
  EXPECT_EQ(view.missed(), 0u);  // clean drops lose nothing
  EXPECT_EQ(view.digest(), baseline_view(wire, {}).digest());
}

TEST(IngestLoopback, ClockOffsetIgnoresLateAckReads) {
  // Publisher and server read one steady clock, so the true offset is 0.
  // Every ack waits 40 ms in the publisher's socket before a pump reads
  // it; an offset built on the read time would sit near -20 ms.
  IngestServer server(IngestServer::Config{});
  server.start();
  FleetPublisher::Config config;
  config.port = server.port();
  FleetPublisher pub(config);
  constexpr std::uint64_t kBatches = 4;
  for (std::uint64_t seq = 0; seq < kBatches; ++seq) {
    pub.offer(make_wire_frame(1, seq));
    pub.flush();
    ASSERT_TRUE(pub.pump());
    for (int i = 0; i < 5000 && server.stats().acks_sent <= seq; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(server.stats().acks_sent, seq);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    (void)pub.pump();
  }
  const FleetPublisher::Stats stats = pub.stats();
  server.stop();
  EXPECT_EQ(stats.clock_samples, kBatches);
  EXPECT_LT(std::llabs(stats.clock_offset_ns), 5'000'000);
}

TEST(IngestLoopback, ClockOffsetIgnoresBatchesWaitingForTheServer) {
  // Publisher B sends one small batch just after A's batch of 50,000
  // frames, which the server IO thread then spends tens of ms decoding
  // into the historian.  B's batch waits in its socket meanwhile; counting
  // that wait as wire time would put B's estimate well above 0.
  const auto store_dir =
      std::filesystem::path{testing::TempDir()} / "clock_offset_store";
  std::filesystem::remove_all(store_dir);
  IngestServer::Config server_cfg;
  server_cfg.store_dir = store_dir.string();
  IngestServer server(server_cfg);
  server.start();
  FleetPublisher::Config config;
  config.port = server.port();
  config.batch_max_frames = 1 << 20;
  config.batch_max_bytes = std::size_t{64} << 20;
  FleetPublisher a(config);
  FleetPublisher b(config);
  constexpr std::uint64_t kFrames = 50'000;
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    a.offer(make_wire_frame(1, seq));
  }
  a.flush();
  EXPECT_TRUE(a.pump());
  b.offer(make_wire_frame(2, 0));
  b.flush();
  EXPECT_TRUE(b.pump());
  for (int i = 0; i < 10'000 && b.stats().clock_samples == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (void)b.pump();
  }
  const FleetPublisher::Stats stats = b.stats();
  server.stop();
  std::filesystem::remove_all(store_dir);
  EXPECT_EQ(server.stats().frames, kFrames + 1);
  EXPECT_GE(stats.clock_samples, 1u);
  EXPECT_LT(std::llabs(stats.clock_offset_ns), 5'000'000);
}

TEST(IngestLoopback, ClockOffsetIgnoresBatchesQueuedInTheSocket) {
  // A stand-in server reads nothing for 40 ms, so most of a ~1 MB batch
  // waits in the publisher's socket behind a closed window, then acks it
  // with its arrival stamp.  Counting that wait as wire time would put the
  // estimate near +20 ms; the true offset is 0.
  const auto steady_ns = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  net::Socket listener = net::tcp_listen("127.0.0.1", 0);
  net::set_nonblocking(listener, true);
  const std::uint16_t port = net::local_port(listener);
  std::thread stand_in([&] {
    net::Socket conn;
    for (int i = 0; i < 5000 && !conn.valid(); ++i) {
      conn = net::tcp_accept(listener);
      if (!conn.valid()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_TRUE(conn.valid());
    net::enable_rx_timestamps(conn);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    net::BatchParser parser;
    net::AckFrame ack;
    parser.set_batch_handler([&](const net::BatchInfo& info) {
      ack.ack_seq = info.seq;
      ack.echo_send_ns = info.send_ns;
      return true;
    });
    std::vector<std::uint8_t> chunk(1 << 16);
    while (parser.batches() == 0) {
      const net::IoResult r = net::recv_some(conn, chunk.data(), chunk.size());
      ASSERT_EQ(r.status, net::IoStatus::kOk);
      ack.srv_rx_ns = r.rx_ns != 0 ? r.rx_ns : steady_ns();
      ASSERT_EQ(parser.consume(chunk.data(), r.bytes,
                               [](std::vector<std::uint8_t>&&) {}),
                net::BatchStatus::kOk);
    }
    ack.srv_tx_ns = steady_ns();
    const std::vector<std::uint8_t> wire = net::encode_ack(ack);
    ASSERT_TRUE(net::send_all(conn, wire.data(), wire.size()));
    while (net::recv_some(conn, chunk.data(), chunk.size()).status ==
           net::IoStatus::kOk) {
    }
  });

  FleetPublisher::Config config;
  config.port = port;
  config.batch_max_bytes = std::size_t{4} << 20;
  FleetPublisher pub(config);
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    pub.offer(make_wire_frame(1, seq, 1000));
  }
  pub.flush();
  EXPECT_TRUE(pub.pump());
  for (int i = 0; i < 5000 && pub.stats().clock_samples == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (void)pub.pump();
  }
  const FleetPublisher::Stats stats = pub.stats();
  pub.disconnect();
  stand_in.join();
  EXPECT_EQ(stats.clock_samples, 1u);
  EXPECT_LT(std::llabs(stats.clock_offset_ns), 5'000'000);
}

TEST(IngestLoopback, PartialBatchAtDisconnectIsDiscardedNotAnError) {
  IngestServer::Config config;
  IngestServer server(config);
  server.start();

  // Hand-roll a client that dies mid-batch (a SIGKILL in miniature).
  const auto frames = make_fleet(2, 3);
  const std::vector<std::uint8_t> batch = net::encode_batch(frames);
  {
    net::Socket client = net::tcp_connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(net::send_all(client, batch.data(), batch.size() / 2));
  }  // closed with half a batch on the wire

  for (int i = 0; i < 5000 && server.stats().disconnects < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();

  const auto stats = server.stats();
  EXPECT_EQ(stats.partial_disconnects, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.frames, 0u);  // nothing partial ever surfaced
}

TEST(IngestLoopback, CorruptHeaderDropsConnectionAsProtocolError) {
  IngestServer::Config config;
  IngestServer server(config);
  server.start();

  std::vector<std::uint8_t> batch = net::encode_batch(make_fleet(1, 2));
  batch[0] ^= 0xFFu;  // bad magic
  {
    net::Socket client = net::tcp_connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(net::send_all(client, batch.data(), batch.size()));
  }
  for (int i = 0; i < 5000 && server.stats().disconnects < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  EXPECT_EQ(server.stats().frames, 0u);
}

TEST(IngestLoopback, FailoverSplitsStackAndMergeKeepsCounts) {
  // Fail shard mid-stream: a stack's frames land on two aggregators, yet
  // the merged frame/missed accounting stays exact (next_sequence-based
  // recompute).  Per-stack stats are no longer bit-identical to a
  // single-process run — order within the stack was preserved but the
  // Welford folds happened in two separate accumulators — so this test
  // checks counts, not the digest.
  IngestServer::Config config;
  config.shard_count = 2;
  IngestServer server(config);
  server.start();

  const std::uint32_t stack = 2;  // shard_of(2, 2) is deterministic
  const std::size_t home = IngestServer::shard_of(stack, 2);

  FleetPublisher::Config pub_config;
  pub_config.port = server.port();
  FleetPublisher pub(pub_config);

  for (std::uint64_t seq = 0; seq < 10; ++seq) pub.offer(make_wire_frame(stack, seq));
  pub.flush();
  while (!pub.pump()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 0; i < 5000 && server.stats().frames < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server.fail_shard(home);
  for (std::uint64_t seq = 10; seq < 20; ++seq) pub.offer(make_wire_frame(stack, seq));
  pub.flush();
  while (!pub.pump()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 0; i < 5000 && server.stats().frames < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();

  const auto stats = server.stats();
  EXPECT_GT(stats.frames_per_shard[home], 0u);
  EXPECT_GT(stats.frames_per_shard[1 - home], 0u);

  const FleetView view = server.fleet_view();
  ASSERT_EQ(view.stacks().count(stack), 1u);
  const FleetView::StackView& sv = view.stacks().at(stack);
  EXPECT_EQ(sv.frames, 20u);
  EXPECT_EQ(sv.next_sequence, 20u);
  EXPECT_EQ(sv.missed, 0u);  // split across shards, but nothing lost
}

TEST(IngestChaos, NetFaultReplayIsDeterministic) {
  // Same plan + same frames -> identical publisher-side chaos stats and an
  // identical server-side fleet digest, run after run.  This is the replay
  // property the scan-level chaos tests already pin, extended to the four
  // transport fault kinds.
  inject::FaultPlan plan;
  plan.add({inject::FaultKind::kNetCorrupt, 0, 0, 2, 4, 0.0});
  plan.add({inject::FaultKind::kNetDrop, 0, 0, 5, 6, 0.0});
  plan.add({inject::FaultKind::kNetStall, 0, 0, 1, 2, 0.001});

  const auto wire = make_fleet(6, 16);

  auto run_once = [&](std::uint32_t* digest,
                      inject::NetChaos::Stats* chaos_stats,
                      IngestServer::Stats* server_stats) {
    inject::NetChaos chaos(plan);
    IngestServer::Config config;
    config.shard_count = 2;
    IngestServer server(config);
    server.start();

    FleetPublisher::Config pub_config;
    pub_config.port = server.port();
    pub_config.batch_max_frames = 8;
    pub_config.backoff_initial = Second{0.001};
    pub_config.hook = &chaos;
    FleetPublisher pub(pub_config);
    for (const auto& frame : wire) pub.offer(frame);
    pub.flush();
    for (int i = 0; i < 5000 && !pub.pump(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t sent = pub.stats().frames_sent;
    for (int i = 0; i < 5000 && server.stats().frames < sent; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.stop();
    *digest = server.fleet_view().digest();
    *chaos_stats = chaos.stats();
    *server_stats = server.stats();
  };

  std::uint32_t digest_a = 0, digest_b = 0;
  inject::NetChaos::Stats chaos_a, chaos_b;
  IngestServer::Stats server_a, server_b;
  run_once(&digest_a, &chaos_a, &server_a);
  run_once(&digest_b, &chaos_b, &server_b);

  EXPECT_EQ(chaos_a.batches_corrupted, 2u);
  EXPECT_EQ(chaos_a.connections_dropped, 1u);
  EXPECT_EQ(chaos_a.stalls_injected, 1u);
  EXPECT_EQ(chaos_a.batches_corrupted, chaos_b.batches_corrupted);
  EXPECT_EQ(chaos_a.connections_dropped, chaos_b.connections_dropped);
  EXPECT_EQ(chaos_a.stalls_injected, chaos_b.stalls_injected);
  EXPECT_EQ(digest_a, digest_b);
  EXPECT_EQ(server_a.frames, server_b.frames);
  // Each corrupted batch costs exactly one inner-frame CRC failure at the
  // shard aggregators (the corrupt fault targets the trailing frame's CRC).
  const FleetView baseline = baseline_view(wire, {});
  (void)baseline;
  EXPECT_EQ(server_a.protocol_errors, 0u);  // framing stayed intact
}

TEST(IngestChaos, TruncatedBatchSurfacesAsSequenceGap) {
  inject::FaultPlan plan;
  // Truncate batch index 1: its 8 frames are lost mid-wire.
  plan.add({inject::FaultKind::kNetTruncate, 0, 0, 1, 2, 0.5});

  IngestServer::Config config;
  IngestServer server(config);
  server.start();

  inject::NetChaos chaos(plan);
  FleetPublisher::Config pub_config;
  pub_config.port = server.port();
  pub_config.batch_max_frames = 8;
  pub_config.backoff_initial = Second{0.001};
  pub_config.hook = &chaos;
  FleetPublisher pub(pub_config);

  // One stack, 32 sequential frames -> 4 batches of 8.
  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    pub.offer(make_wire_frame(9, seq));
  }
  pub.flush();
  for (int i = 0; i < 5000 && !pub.pump(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 5000 && server.stats().frames < 24; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();

  EXPECT_EQ(chaos.stats().batches_truncated, 1u);
  EXPECT_EQ(pub.stats().hook_truncated_batches, 1u);
  EXPECT_EQ(pub.stats().frames_sent, 24u);

  const FleetView view = server.fleet_view();
  EXPECT_EQ(view.frames(), 24u);
  // The 8 truncated frames are a visible gap, not silent loss.
  EXPECT_EQ(view.missed(), 8u);
  EXPECT_EQ(view.stacks().at(9).next_sequence, 32u);
}

TEST(IngestLoopback, ThreadedSamplerToServerEndToEnd) {
  // Full production wiring: FleetSampler workers -> publisher thread ->
  // TCP -> sharded server, two publisher processes' worth of stacks in
  // disjoint id ranges (stack_id_base).
  IngestServer::Config server_config;
  server_config.shard_count = 2;
  IngestServer server(server_config);
  server.start();

  std::uint64_t produced = 0;
  for (const std::uint32_t base : {0u, 8u}) {
    telemetry::FleetSampler::Config fleet;
    fleet.stack_count = 3;
    fleet.thread_count = 1;
    fleet.scans_per_stack = 12;
    fleet.ring_capacity = 1024;
    fleet.seed = 7 + base;
    fleet.stack_id_base = base;
    telemetry::FleetSampler sampler(fleet);

    FleetPublisher::Config pub_config;
    pub_config.port = server.port();
    pub_config.flush_interval = Second{0.001};
    FleetPublisher pub(pub_config);
    pub.start(sampler.rings());
    sampler.run();
    pub.stop();

    EXPECT_EQ(pub.stats().frames_enqueued, sampler.total_frames());
    EXPECT_EQ(pub.stats().frames_sent, pub.stats().frames_enqueued);
    produced += sampler.total_frames();
  }

  for (int i = 0; i < 5000 && server.stats().frames < produced; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();

  EXPECT_EQ(server.stats().frames, produced);
  const FleetView view = server.fleet_view();
  EXPECT_EQ(view.frames(), produced);
  EXPECT_EQ(view.missed(), 0u);
  // Both id ranges visible, disjoint: 0..2 and 8..10.
  EXPECT_EQ(view.stacks().size(), 6u);
  EXPECT_EQ(view.stacks().count(0), 1u);
  EXPECT_EQ(view.stacks().count(8), 1u);
  EXPECT_EQ(view.stacks().count(5), 0u);
}

}  // namespace
}  // namespace tsvpt::ingest
