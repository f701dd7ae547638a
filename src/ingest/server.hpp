// Multi-shard telemetry ingest service.  One poll()-driven IO thread
// accepts publisher connections, feeds each connection's bytes through an
// incremental BatchParser, and routes every inner wire frame — by a stable
// hash of its stack id, peeked without a full decode — into one of N shard
// rings.  Each shard is a full Aggregator pipeline (the same collector the
// single-process fleet path uses) draining its ring on its own thread, so
// the scale-out layer reuses the alerting/stats machinery verbatim.
//
// Delivery protocol (server half): every validated TSVB v3 batch advances a
// per-publisher cumulative position keyed on the batch header's publisher
// id — a peer table that outlives individual connections, so a publisher
// that reconnects (or is killed and restarted against its spill queue) and
// retransmits its unacked window has the already-ingested copies vetoed
// before any frame is emitted (dedup makes at-least-once delivery look
// exactly-once downstream).  After each consumed chunk the server pushes a
// TSVA cumulative ack back on the same connection; a framing violation gets
// a best-effort nack before the close.  Zero-frame heartbeat batches
// refresh liveness without touching sequencing, and a FIN batch naming the
// publisher's highest seq turns into a drained ack once the cumulative
// position covers it — the graceful-drain handshake.
//
// Partitioning invariant: shard_of() depends only on (stack_id,
// shard_count), so every frame of a stack lands on the same shard and that
// shard's per-stack statistics are bit-identical to a single-process run —
// the property FleetView's digest comparison checks end to end.  fail_shard
// reroutes a failed shard's stacks to the next live shard (linear probe);
// the merge stays exact in counts because sequence accounting travels with
// the frames (StackStats::next_sequence).
//
// Backpressure at this stage is the shard ring's drop-oldest policy: a slow
// shard sheds its own oldest frames without stalling the IO thread or the
// other shards, and the loss is visible as sequence gaps.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ingest/fleet_view.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "ptsim/units.hpp"
#include "store/store.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/ring.hpp"

namespace tsvpt::ingest {

class IngestServer {
 public:
  struct Config {
    std::string bind_host = "127.0.0.1";
    /// 0 = ephemeral; read the bound port back with port().
    std::uint16_t port = 0;
    std::size_t shard_count = 1;
    /// Capacity of each shard's drop-oldest frame ring.
    std::size_t shard_ring_capacity = 4096;
    /// Reap a connection that has been silent this long (publishers send
    /// heartbeats to stay alive when idle).  0 disables.
    Second idle_conn_timeout{0.0};
    /// Template for every shard's Aggregator (alert thresholds etc.).  Each
    /// shard records its alerts internally for the cross-shard merge.
    telemetry::Aggregator::Config aggregator;
    /// Non-empty: persist every decodable frame to this historian directory
    /// (the server-side --store sink).
    std::string store_dir;
    /// Serve `GET /metrics` (Prometheus text) and `GET /healthz` (JSON) on
    /// a side port from the same poll loop.  Scrapes share the IO thread,
    /// so a slow scraper can add at most one response write per poll round.
    bool http_enabled = false;
    /// 0 = ephemeral; read back with http_port().
    std::uint16_t http_port = 0;
  };

  explicit IngestServer(Config config);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Bind the listener (throws on failure), start the shard aggregators and
  /// the IO thread.  port() is valid once this returns.
  void start();

  /// Stop accepting, close connections, drain the shard rings, close the
  /// store.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    // mo: acquire pairs with the stop()/start() release stores so a caller
    // seeing "stopped" also sees the drained shard summaries.
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Bound scrape port (0 when http_enabled is false).
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Stable stack -> shard map (splitmix64 finalizer mod shard_count):
  /// deterministic across runs, processes and platforms.
  [[nodiscard]] static std::size_t shard_of(std::uint32_t stack_id,
                                            std::size_t shard_count);

  /// Mark a shard failed: frames hashing to it reroute to the next live
  /// shard (linear probe).  Its aggregator keeps whatever it already
  /// ingested — the cross-shard merge folds both halves of a split stack.
  void fail_shard(std::size_t shard);

  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t disconnects = 0;
    /// Peers that died mid-batch (discarded tail; not a protocol error).
    std::uint64_t partial_disconnects = 0;
    /// Connections dropped for framing violations (bad magic/CRC/bounds).
    std::uint64_t protocol_errors = 0;
    std::uint64_t batches = 0;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    /// Frames shed by shard rings (slow consumer, drop-oldest).
    std::uint64_t ring_drops = 0;
    /// Inner frames too short to even peek a stack id from.
    std::uint64_t unroutable_frames = 0;
    /// Store-sink decodes that failed (frame still counted + routed).
    std::uint64_t store_decode_errors = 0;
    /// Delivery-protocol bookkeeping.
    std::uint64_t acks_sent = 0;
    std::uint64_t nacks_sent = 0;
    /// Retransmitted batches vetoed by per-publisher dedup (and the frames
    /// inside them, which were never emitted downstream).
    std::uint64_t duplicate_batches = 0;
    std::uint64_t duplicate_frames = 0;
    std::uint64_t heartbeats = 0;
    /// Sequence numbers skipped between accepted batches (publisher-side
    /// deliberate loss, e.g. drop-oldest overflow or a truncated send).
    std::uint64_t batch_gaps = 0;
    /// FIN handshakes completed (drained ack emitted).
    std::uint64_t fin_drains = 0;
    /// Connections closed by the idle timeout.
    std::uint64_t reaped_connections = 0;
    /// HTTP requests answered on the scrape port (any path or status).
    std::uint64_t http_requests = 0;
    /// Distinct publisher ids ever seen.
    std::uint64_t publishers = 0;
    std::size_t open_connections = 0;
    std::vector<std::uint64_t> frames_per_shard;
  };
  /// Safe from any thread while the server runs (relaxed counters).
  [[nodiscard]] Stats stats() const;

  /// Seconds since the server last accepted bytes or a connection (or since
  /// start).  What the CLI's --idle-exit-s watches.
  [[nodiscard]] Second idle_for() const;

  /// Merge every shard's summary + alert log into one finalized FleetView.
  /// Call after stop().
  [[nodiscard]] FleetView fleet_view() const;

  /// Per-shard summaries (valid after stop()), for reporting.
  [[nodiscard]] const telemetry::Aggregator& shard_aggregator(
      std::size_t shard) const {
    return *shards_[shard]->aggregator;
  }

 private:
  struct Shard {
    std::unique_ptr<telemetry::FrameRing> ring;
    std::unique_ptr<telemetry::Aggregator> aggregator;
    /// Filled by the shard's collector thread via the alert callback;
    /// read after stop().
    std::vector<telemetry::Alert> alerts;
  };

  struct Connection {
    net::Socket socket;
    net::BatchParser parser;
    /// Publisher id from the last sequenced/control batch (0 = none yet).
    std::uint64_t publisher_id = 0;
    /// Ack bytes not yet accepted by the kernel (flushed opportunistically,
    /// then via POLLOUT).
    std::vector<std::uint8_t> outbox;
    /// An ack is owed after the current consume chunk.
    bool ack_pending = false;
    std::chrono::steady_clock::time_point last_rx;
    /// Arrival of the chunk being parsed (the kernel's stamp of its last
    /// segment): the receive time of every batch that completes in it.
    std::uint64_t chunk_rx_ns = 0;
    /// Echo material for ack v2: the send stamp of the newest timestamped
    /// batch on this connection, and the server clock when it arrived.
    std::uint64_t echo_send_ns = 0;
    std::uint64_t echo_rx_ns = 0;
  };

  /// Per-publisher delivery state; outlives connections (IO thread only).
  struct Peer {
    std::uint64_t acked = 0;
    std::uint64_t fin_seq = 0;
    bool has_fin = false;
    bool drain_counted = false;
  };

  void run();
  void route_frame(std::vector<std::uint8_t>&& wire);
  /// Body + status for one scrape-port request (IO thread: peers_ and shard
  /// rings are safe to read here).
  [[nodiscard]] std::string http_respond(const std::string& method,
                                         const std::string& path);
  [[nodiscard]] std::string healthz_json() const;
  [[nodiscard]] std::size_t live_shard_for(std::uint32_t stack_id) const;
  void touch_activity();
  /// BatchParser veto seam: dedup/heartbeat/FIN handling.  True = emit the
  /// batch's frames downstream.
  [[nodiscard]] bool handle_batch_info(Connection& conn,
                                       const net::BatchInfo& info);
  /// Append the owed cumulative ack for conn's publisher to its outbox.
  void queue_ack(Connection& conn);
  /// Push outbox bytes to the kernel; false when the connection died.
  [[nodiscard]] bool flush_outbox(Connection& conn);

  Config config_;
  net::Socket listener_;
  std::uint16_t port_ = 0;
  net::Socket http_listener_;
  std::uint16_t http_port_ = 0;
  /// Current batch's clock-offset context (IO thread only): set by
  /// handle_batch_info, consumed by route_frame for the ring trailer.
  std::int64_t cur_offset_ns_ = 0;
  bool cur_offset_valid_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<store::StoreWriter> store_;
  std::thread io_thread_;
  std::map<std::uint64_t, Peer> peers_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  /// Bit i set = shard i failed (bounds shard_count to 64).
  std::atomic<std::uint64_t> failed_mask_{0};
  std::atomic<std::int64_t> last_activity_ns_{0};

  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> partial_disconnects_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> batches_total_{0};
  std::atomic<std::uint64_t> frames_total_{0};
  std::atomic<std::uint64_t> bytes_total_{0};
  std::atomic<std::uint64_t> ring_drops_{0};
  std::atomic<std::uint64_t> unroutable_frames_{0};
  std::atomic<std::uint64_t> store_decode_errors_{0};
  std::atomic<std::uint64_t> acks_sent_{0};
  std::atomic<std::uint64_t> nacks_sent_{0};
  std::atomic<std::uint64_t> duplicate_batches_{0};
  std::atomic<std::uint64_t> duplicate_frames_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
  std::atomic<std::uint64_t> batch_gaps_{0};
  std::atomic<std::uint64_t> fin_drains_{0};
  std::atomic<std::uint64_t> reaped_connections_{0};
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> publishers_{0};
  std::atomic<std::size_t> open_connections_{0};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> frames_per_shard_;
};

}  // namespace tsvpt::ingest
