// Client side of the fleet telemetry service: FleetPublisher drains the
// sampler's lock-free rings into size/time-bounded batches and ships them
// over framed TCP (net/framing.hpp) with at-least-once delivery, surviving
// a flaky or absent server — and, with a spill directory, surviving its own
// SIGKILL.
//
// Delivery protocol (TSVB v3): every sealed data batch consumes a
// per-publisher sequence number (starting at 1).  Sent batches wait in an
// unacked window until the server's cumulative TSVA ack covers them; a
// reconnect retransmits the whole window in seq order before anything new,
// and the server's dedup (keyed on publisher id + seq) makes retransmits
// idempotent.  A nack poisons nothing: the publisher drops the connection
// and retransmits after reconnect.
//
// Backpressure has two modes:
//   - no spill_dir: bounded batch queue with drop-oldest overflow — the
//     same policy as the telemetry ring, applied one stage later.  Dropped
//     batches consumed seqs, so the server sees honest batch gaps and the
//     frames surface as sequence gaps downstream.
//   - spill_dir set: every sealed batch is appended to a crash-safe on-disk
//     spill queue (spill.hpp) *before* its first send, so memory overflow
//     evicts only the in-memory bytes (re-read from the log when the
//     batch's turn comes) and nothing is ever shed.  A publisher killed
//     mid-stream and reconstructed on the same spill_dir resumes from the
//     log: unacked batches are replayed in order, already-acked replays are
//     dedup'd server-side, and sequence allocation continues past the
//     persisted high-water mark.
//
// Reconnect is exponential backoff (initial * 2^n, capped) with
// deterministic seed-derived jitter, so a fleet of publishers does not
// stampede a restarted server in lockstep.  Idle connections send
// zero-frame heartbeat batches (threaded mode) so the server can tell an
// idle peer from a dead one.
//
// Drain is a handshake: flush everything, send a FIN batch naming the
// highest allocated seq, and wait (bounded) for the server's drained ack.
//
// Two driving modes share all of the batching/sending logic:
//   - start(rings)/stop(): a sender thread polls the rings — production.
//   - offer()/flush()/pump(): caller-driven, single-threaded — what the
//     deterministic chaos-replay tests and the benchmark use.
// The modes are exclusive; do not mix them on one instance.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ingest/spill.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "obs/clock_align.hpp"
#include "ptsim/rng.hpp"
#include "ptsim/units.hpp"
#include "telemetry/ring.hpp"

namespace tsvpt::ingest {

class FleetPublisher {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Stable identity for ack/dedup bookkeeping server-side.  0 derives a
    /// deterministic id from (host, port, spill_dir) — fine for tests, but
    /// a real fleet should assign distinct ids explicitly.
    std::uint64_t publisher_id = 0;
    /// A batch seals when it holds this many frames...
    std::size_t batch_max_frames = 64;
    /// ...or this many payload bytes, whichever comes first.
    std::size_t batch_max_bytes = 256 * 1024;
    /// An open batch also seals after this long, so a trickle of frames
    /// still reaches the server promptly.
    Second flush_interval{0.005};
    /// Bound on in-memory batches (pending + unacked).  Without a spill
    /// dir, overflow drops the oldest unsent batch; with one, overflow
    /// evicts batch bytes to the log instead (nothing is lost).
    std::size_t queue_max_batches = 64;
    Second backoff_initial{0.010};
    Second backoff_max{1.0};
    /// Deterministic reconnect jitter: each backoff is scaled into
    /// [1-jitter, 1] by a seed-derived draw.  0 disables (tests that count
    /// exact reconnect timing).
    double backoff_jitter = 0.5;
    /// Seed for the jitter stream; 0 derives it from publisher_id.
    std::uint64_t jitter_seed = 0;
    /// After stop() is requested, keep retrying queued batches (and wait
    /// for the drain handshake) for at most this long (threaded mode only).
    Second drain_deadline{2.0};
    /// Threaded mode: send a zero-frame heartbeat batch after this long
    /// with nothing else to send, so the server sees a live idle peer.
    /// 0 disables.
    Second heartbeat_interval{0.0};
    /// Non-empty: crash-safe spill queue directory (see spill.hpp).  The
    /// publisher resumes any unacked window found there at construction.
    std::string spill_dir;
    SpillQueue::Options spill;
    /// Chaos seam; may be null.  Called from the sending thread.
    net::TransportHook* hook = nullptr;
  };

  explicit FleetPublisher(Config config);
  ~FleetPublisher();

  FleetPublisher(const FleetPublisher&) = delete;
  FleetPublisher& operator=(const FleetPublisher&) = delete;

  // --- threaded mode ---

  /// Spawn the sender thread draining `rings` (must outlive stop()).
  void start(std::vector<telemetry::FrameRing*> rings);

  /// Drain rings and queued batches, run the FIN handshake (all bounded by
  /// drain_deadline), then join.
  void stop();

  // --- caller-driven mode ---

  /// Enqueue one encoded wire frame into the open batch (sealing it when
  /// full).  Does no socket IO.
  void offer(std::vector<std::uint8_t> wire);

  /// Seal the open batch regardless of size.
  void flush();

  /// Attempt to send every queued batch (connecting as needed, honouring
  /// backoff) and process any acks the server pushed back.  Returns true
  /// when the unsent queue was fully drained (the unacked window may still
  /// be waiting on acks).
  bool pump();

  /// Send the FIN batch and pump until the server reports drained or
  /// `deadline` passes.  Returns true when drained.
  bool drain(Second deadline);

  /// Send one zero-frame heartbeat batch now (connected publishers only;
  /// a no-op when there is no connection).
  void heartbeat();

  /// Drop the connection (next pump reconnects).  Backoff is reset: the
  /// caller asked for the drop, so it is not evidence the server is down.
  void disconnect();

  struct Stats {
    std::uint64_t frames_enqueued = 0;
    /// First-time sends only; retransmits are counted separately.
    std::uint64_t frames_sent = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t connects = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t send_failures = 0;
    /// Batches (and the frames inside them) shed by queue overflow
    /// (spill-less mode only — with a spill dir these stay zero).
    std::uint64_t queue_dropped_batches = 0;
    std::uint64_t queue_dropped_frames = 0;
    /// Delivery-guarantee bookkeeping.
    std::uint64_t acks_received = 0;
    std::uint64_t frames_acked = 0;
    std::uint64_t batches_acked = 0;
    std::uint64_t retransmitted_batches = 0;
    std::uint64_t retransmitted_frames = 0;
    std::uint64_t nacks_received = 0;
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t fin_sent = 0;
    /// Batches whose bytes were evicted to the spill log under memory
    /// pressure, and batches replayed from the log at construction.
    std::uint64_t spilled_batches = 0;
    std::uint64_t resumed_batches = 0;
    std::uint64_t resumed_frames = 0;
    /// Current depth of the unacked window (sent, not yet acked).
    std::uint64_t unacked_batches = 0;
    /// Chaos-hook effects actually applied.
    std::uint64_t hook_stalls = 0;
    std::uint64_t hook_truncated_batches = 0;
    std::uint64_t hook_dropped_connections = 0;
    std::uint64_t hook_acks_dropped = 0;
    std::uint64_t hook_duplicated_batches = 0;
    /// ClockAlign state for the current connection: estimated server clock
    /// minus publisher clock (ns), the RTT of the sample it came from, and
    /// how many round trips fed the window.  Zero until the first ack v2.
    std::int64_t clock_offset_ns = 0;
    std::int64_t clock_rtt_ns = 0;
    std::uint64_t clock_samples = 0;
    bool connected_once = false;
    bool drained = false;
  };
  /// Safe from any thread while the sender runs (relaxed counters).
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] bool connected() const { return socket_.valid(); }
  [[nodiscard]] std::uint64_t publisher_id() const {
    return config_.publisher_id;
  }
  /// Highest batch seq the server has cumulatively acked.
  [[nodiscard]] std::uint64_t acked_seq() const {
    return acked_seq_observed_.load(std::memory_order_relaxed);
  }

 private:
  struct Batch {
    std::vector<std::uint8_t> bytes;
    std::size_t frames = 0;
    std::uint64_t seq = 0;
    std::uint16_t flags = 0;
    /// Trace-context id stamped into the v3 header at seal time.
    std::uint64_t trace_id = 0;
    /// Steady clock at seal, ns — seal_to_wire is measured from here on the
    /// first send (0 for batches resumed from a spill log).
    std::uint64_t seal_ns = 0;
    /// bytes were evicted; re-read from the spill log before sending.
    bool spilled = false;
    /// Already sent at least once (its next send is a retransmit).
    bool sent_before = false;
    std::chrono::steady_clock::time_point sent_at{};
    /// Header send stamp of the latest send: t1 as the server echoes it.
    std::uint64_t send_ns = 0;
    /// Offset one past the batch's last byte in its connection's stream.
    std::uint64_t stream_end = 0;
    /// When that last byte left this host (kernel TX stamp); 0 = not known.
    std::uint64_t departed_ns = 0;
  };

  void run(std::vector<telemetry::FrameRing*> rings);
  void seal_locked();
  void enforce_memory_bound();
  bool ensure_connected();
  /// Send queued batches until drained or blocked; true on progress.
  bool try_send_pending();
  bool send_batch(Batch& batch);
  void send_control(std::uint16_t flags, std::uint64_t seq);
  /// Hand `size` bytes to the socket.  While its buffer is full, keep
  /// reading acks and TX stamps; false when the connection died.
  bool send_wire(const std::uint8_t* data, std::size_t size);
  /// Drain the TX stamps and acks sitting in the socket; false when the
  /// connection died.
  bool poll_acks();
  /// Record a TX stamp on the unacked batch whose last byte it names.
  void note_departure(const net::TxStamp& stamp);
  /// t1 of the clock exchange for the batch stamped `send_ns`: when it
  /// left this host if the kernel said so, else its header stamp.
  [[nodiscard]] std::uint64_t departure_of(std::uint64_t send_ns) const;
  /// `rx_ns`: when the ack arrived (t4 of the clock exchange).
  void handle_ack(const net::AckFrame& ack, std::uint64_t rx_ns);
  void on_connection_lost();
  void arm_backoff();

  Config config_;

  // Batching state — touched only by the driving thread (sender thread in
  // threaded mode, caller in manual mode).
  std::vector<std::vector<std::uint8_t>> open_frames_;
  std::size_t open_bytes_ = 0;
  bool open_deadline_armed_ = false;
  std::chrono::steady_clock::time_point open_deadline_;
  /// Sealed, not yet sent this connection (front = next to send).
  std::deque<Batch> pending_;
  /// Sent, awaiting ack (front = oldest seq).
  std::deque<Batch> unacked_;
  std::uint64_t next_seq_ = 1;
  std::optional<SpillQueue> spill_;
  net::AckParser ack_parser_;
  /// Per-connection NTP-style offset estimator fed by ack v2 timestamps
  /// (reset on reconnect — new socket, new queues).
  obs::ClockAlign clock_align_;
  /// Bytes handed to the current connection (TX stamps name a byte by its
  /// offset in this stream).
  std::uint64_t stream_bytes_ = 0;
  bool fin_inflight_ = false;
  std::chrono::steady_clock::time_point last_send_;

  net::Socket socket_;
  bool backoff_armed_ = false;
  std::chrono::steady_clock::time_point next_attempt_;
  Second backoff_{0.0};
  Rng jitter_rng_{0};

  std::thread sender_;
  std::atomic<bool> stop_requested_{false};

  std::atomic<std::uint64_t> frames_enqueued_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> batches_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> send_failures_{0};
  std::atomic<std::uint64_t> queue_dropped_batches_{0};
  std::atomic<std::uint64_t> queue_dropped_frames_{0};
  std::atomic<std::uint64_t> acks_received_{0};
  std::atomic<std::uint64_t> frames_acked_{0};
  std::atomic<std::uint64_t> batches_acked_{0};
  std::atomic<std::uint64_t> retransmitted_batches_{0};
  std::atomic<std::uint64_t> retransmitted_frames_{0};
  std::atomic<std::uint64_t> nacks_received_{0};
  std::atomic<std::uint64_t> heartbeats_sent_{0};
  std::atomic<std::uint64_t> fin_sent_{0};
  std::atomic<std::uint64_t> spilled_batches_{0};
  std::atomic<std::uint64_t> resumed_batches_{0};
  std::atomic<std::uint64_t> resumed_frames_{0};
  std::atomic<std::uint64_t> unacked_depth_{0};
  std::atomic<std::uint64_t> hook_stalls_{0};
  std::atomic<std::uint64_t> hook_truncated_{0};
  std::atomic<std::uint64_t> hook_dropped_{0};
  std::atomic<std::uint64_t> hook_acks_dropped_{0};
  std::atomic<std::uint64_t> hook_duplicated_{0};
  std::atomic<std::uint64_t> acked_seq_observed_{0};
  std::atomic<std::int64_t> clock_offset_ns_{0};
  std::atomic<std::int64_t> clock_rtt_ns_{0};
  std::atomic<std::uint64_t> clock_samples_{0};
  std::atomic<bool> connected_once_{false};
  std::atomic<bool> drained_{false};
};

}  // namespace tsvpt::ingest
