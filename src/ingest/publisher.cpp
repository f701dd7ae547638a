#include "ingest/publisher.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "telemetry/codec_util.hpp"

namespace tsvpt::ingest {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] Clock::duration to_duration(Second s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s.value()));
}

struct PublisherMetrics {
  obs::Counter frames = obs::counter("tsvpt_pub_frames_total");
  obs::Counter batches = obs::counter("tsvpt_pub_batches_total");
  obs::Counter bytes = obs::counter("tsvpt_pub_bytes_total");
  obs::Counter reconnects = obs::counter("tsvpt_pub_reconnects_total");
  obs::Counter queue_drops = obs::counter("tsvpt_pub_queue_drops_total");
  obs::Counter stalls = obs::counter("tsvpt_pub_backpressure_stalls_total");
  obs::Counter acks = obs::counter("tsvpt_pub_acks_total");
  obs::Counter retransmits = obs::counter("tsvpt_pub_retransmits_total");
  obs::Counter heartbeats = obs::counter("tsvpt_pub_heartbeats_total");
  obs::Histogram batch_bytes = obs::histogram("tsvpt_pub_batch_bytes");
  obs::Histogram send_seconds = obs::histogram("tsvpt_pub_send_seconds");
  obs::Histogram ack_rtt = obs::histogram("tsvpt_pub_ack_rtt_seconds");
  obs::Histogram ring_to_seal = obs::stage_latency(obs::kStageRingToSeal);
  obs::Histogram seal_to_wire = obs::stage_latency(obs::kStageSealToWire);
};

[[nodiscard]] PublisherMetrics& metrics_of() {
  static PublisherMetrics metrics;
  return metrics;
}

/// Fallback identity when the caller did not assign one.  Two regimes:
///   - spill_dir set: the id must be STABLE across restarts of the same
///     publisher (resume + dedup is keyed on it), so it is derived from the
///     spill path alone — the same durable identity the log embodies.
///   - no spill dir: the id must be DISTINCT per publisher instance (the
///     server's dedup would otherwise veto a second publisher's seq 1..N
///     as retransmits of the first's), so fold in the pid and a
///     process-wide instance counter.
[[nodiscard]] std::uint64_t derive_publisher_id(
    const FleetPublisher::Config& config) {
  std::vector<std::uint8_t> key(config.host.begin(), config.host.end());
  key.push_back(static_cast<std::uint8_t>(config.port));
  key.push_back(static_cast<std::uint8_t>(config.port >> 8));
  key.insert(key.end(), config.spill_dir.begin(), config.spill_dir.end());
  std::uint64_t id = derive_seed(telemetry::crc32(key.data(), key.size()),
                                 0x1Du);
  if (config.spill_dir.empty()) {
    static std::atomic<std::uint64_t> instance_counter{0};
    id = derive_seed(id, static_cast<std::uint64_t>(::getpid()));
    id = derive_seed(
        id, instance_counter.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  return id == 0 ? 1 : id;
}

}  // namespace

FleetPublisher::FleetPublisher(Config config) : config_(std::move(config)) {
  if (config_.batch_max_frames == 0) config_.batch_max_frames = 1;
  if (config_.queue_max_batches == 0) config_.queue_max_batches = 1;
  if (config_.publisher_id == 0) {
    config_.publisher_id = derive_publisher_id(config_);
  }
  backoff_ = config_.backoff_initial;
  jitter_rng_ = Rng{config_.jitter_seed != 0
                        ? config_.jitter_seed
                        : derive_seed(config_.publisher_id, 0xB0FFu)};
  last_send_ = Clock::now();

  if (!config_.spill_dir.empty()) {
    SpillQueue::RecoverInfo info;
    spill_.emplace(SpillQueue::open(config_.spill_dir, config_.spill, info));
    next_seq_ = info.next_seq;
    // Resume: the recovered unacked window becomes the head of the pending
    // queue, bytes left on disk until each batch's turn to (re)send.  Their
    // sends count as retransmits — a crash cannot tell what reached the
    // server, which is exactly what dedup absorbs.
    for (const std::uint64_t seq : info.unacked_seqs) {
      Batch batch;
      batch.seq = seq;
      batch.frames = spill_->frame_count_of(seq);
      batch.spilled = true;
      batch.sent_before = true;
      resumed_batches_.fetch_add(1, std::memory_order_relaxed);
      resumed_frames_.fetch_add(batch.frames, std::memory_order_relaxed);
      pending_.push_back(std::move(batch));
    }
  }
}

FleetPublisher::~FleetPublisher() { stop(); }

void FleetPublisher::start(std::vector<telemetry::FrameRing*> rings) {
  stop_requested_.store(false, std::memory_order_relaxed);
  sender_ = std::thread([this, rings = std::move(rings)]() mutable {
    run(std::move(rings));
  });
}

void FleetPublisher::stop() {
  if (!sender_.joinable()) return;
  // mo: release pairs with the sender loop's acquire load so everything the
  // stopping thread did (e.g. final ring pushes) is visible to the drain.
  stop_requested_.store(true, std::memory_order_release);
  sender_.join();
}

void FleetPublisher::run(std::vector<telemetry::FrameRing*> rings) {
  bool draining = false;
  Clock::time_point drain_deadline{};
  for (;;) {
    bool progressed = false;
    std::vector<std::uint8_t> wire;
    for (telemetry::FrameRing* ring : rings) {
      while (ring->try_pop(wire)) {
        offer(std::move(wire));
        wire.clear();
        progressed = true;
      }
    }
    if (open_deadline_armed_ && Clock::now() >= open_deadline_) flush();
    if (!poll_acks()) on_connection_lost();
    if (try_send_pending()) progressed = true;

    if (config_.heartbeat_interval.value() > 0.0 && socket_.valid() &&
        Clock::now() - last_send_ >=
            to_duration(config_.heartbeat_interval)) {
      heartbeat();
    }

    // mo: acquire pairs with stop()'s release store (see above).
    if (stop_requested_.load(std::memory_order_acquire)) {
      if (!draining) {
        draining = true;
        drain_deadline = Clock::now() + to_duration(config_.drain_deadline);
        flush();
      }
      const bool rings_empty = std::all_of(
          rings.begin(), rings.end(),
          [](telemetry::FrameRing* r) { return r->empty(); });
      // Spill mode always runs the handshake (drain() reconnects if needed:
      // even an empty resumed window needs the server's confirmation);
      // best-effort mode only bothers when a connection is up.
      if (rings_empty && open_frames_.empty() && pending_.empty() &&
          (socket_.valid() || spill_.has_value())) {
        // Everything handed to the kernel: run the FIN handshake with
        // whatever deadline budget remains, then leave.
        const double left = std::chrono::duration<double>(
                                drain_deadline - Clock::now())
                                .count();
        if (left > 0.0) drain(Second{left});
        break;
      }
      if (rings_empty && open_frames_.empty() &&
          (pending_.empty() || Clock::now() >= drain_deadline)) {
        break;
      }
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

void FleetPublisher::offer(std::vector<std::uint8_t> wire) {
  if (open_frames_.empty()) {
    open_deadline_ = Clock::now() + to_duration(config_.flush_interval);
    open_deadline_armed_ = true;
  }
  open_bytes_ += wire.size();
  open_frames_.push_back(std::move(wire));
  frames_enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (open_frames_.size() >= config_.batch_max_frames ||
      open_bytes_ >= config_.batch_max_bytes) {
    seal_locked();
  }
}

void FleetPublisher::flush() {
  if (!open_frames_.empty()) seal_locked();
}

bool FleetPublisher::pump() {
  if (!poll_acks()) on_connection_lost();
  try_send_pending();
  return pending_.empty();
}

void FleetPublisher::seal_locked() {
  Batch batch;
  net::BatchMeta meta;
  meta.publisher_id = config_.publisher_id;
  meta.seq = next_seq_++;
  // Trace context: a deterministic function of (publisher, seq), so the
  // server derives the same id for the same batch without negotiation.
  meta.trace_id = derive_seed(config_.publisher_id, meta.seq);
  batch.seq = meta.seq;
  batch.trace_id = meta.trace_id;
  const Clock::time_point now = Clock::now();
  batch.seal_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());
  batch.bytes = net::encode_batch(open_frames_, meta);
  batch.frames = open_frames_.size();
  metrics_of().batch_bytes.observe(static_cast<double>(batch.bytes.size()));
  // ring_to_seal: how long the oldest frame sat in the open batch.  The
  // batch opened flush_interval before its deadline, so the open time is
  // recoverable without a clock read at offer().
  if (open_deadline_armed_) {
    const double waited =
        std::chrono::duration<double>(
            now - (open_deadline_ - to_duration(config_.flush_interval)))
            .count();
    if (waited >= 0.0) metrics_of().ring_to_seal.observe(waited);
  }
  open_frames_.clear();
  open_bytes_ = 0;
  open_deadline_armed_ = false;
  if (spill_) {
    // WAL discipline: on disk before the first send attempt, so a SIGKILL
    // any time after seal_locked() returns cannot lose the batch.
    spill_->append(batch.seq, static_cast<std::uint32_t>(batch.frames),
                   batch.bytes);
    spill_->note_next_seq(next_seq_);
  }
  pending_.push_back(std::move(batch));
  enforce_memory_bound();
}

void FleetPublisher::enforce_memory_bound() {
  const auto in_memory = [this] {
    std::size_t n = 0;
    for (const Batch& b : pending_) n += b.bytes.empty() ? 0 : 1;
    for (const Batch& b : unacked_) n += b.bytes.empty() ? 0 : 1;
    return n;
  };
  if (!spill_) {
    // Best-effort mode: bounded queue, drop-oldest (the telemetry ring's
    // policy, one stage later).  The dropped batches consumed seqs, so the
    // loss is visible server-side as honest batch gaps rather than silence.
    while (pending_.size() > config_.queue_max_batches) {
      queue_dropped_batches_.fetch_add(1, std::memory_order_relaxed);
      queue_dropped_frames_.fetch_add(pending_.front().frames,
                                      std::memory_order_relaxed);
      metrics_of().queue_drops.add(1);
      metrics_of().stalls.add(1);
      pending_.pop_front();
    }
    // The unacked window is also bounded; evicted batches were already
    // sent, they just lose retransmit coverage (best-effort has no better
    // answer — use a spill dir for the real guarantee).
    while (unacked_.size() > config_.queue_max_batches) {
      unacked_.pop_front();
      unacked_depth_.store(unacked_.size(), std::memory_order_relaxed);
    }
    return;
  }
  // Durable mode: never shed — evict batch *bytes* back to the log,
  // retransmit-coverage first (unacked retransmits are rare; the pending
  // front is about to be sent, so it is evicted last).
  if (in_memory() <= config_.queue_max_batches) return;
  const auto evict = [this](Batch& b) {
    if (b.bytes.empty()) return false;
    b.bytes = {};
    b.bytes.shrink_to_fit();
    b.spilled = true;
    spilled_batches_.fetch_add(1, std::memory_order_relaxed);
    metrics_of().stalls.add(1);
    return true;
  };
  std::size_t live = in_memory();
  for (auto it = unacked_.rbegin();
       it != unacked_.rend() && live > config_.queue_max_batches; ++it) {
    if (evict(*it)) live -= 1;
  }
  for (auto it = pending_.rbegin();
       it != pending_.rend() && live > config_.queue_max_batches; ++it) {
    if (std::next(it) == pending_.rend()) break;  // keep the send head hot
    if (evict(*it)) live -= 1;
  }
}

void FleetPublisher::arm_backoff() {
  backoff_armed_ = true;
  // Deterministic jitter: scale this wait into [1-jitter, 1] with the next
  // seed-derived draw, so a fleet restarted together fans out instead of
  // reconnecting in lockstep — and a replay with the same seed waits the
  // same.
  double scale = 1.0;
  if (config_.backoff_jitter > 0.0) {
    const double jitter = std::min(config_.backoff_jitter, 1.0);
    scale = 1.0 - jitter * jitter_rng_.uniform();
  }
  next_attempt_ =
      Clock::now() + to_duration(Second{backoff_.value() * scale});
  backoff_ = Second{
      std::min(backoff_.value() * 2.0, config_.backoff_max.value())};
}

bool FleetPublisher::ensure_connected() {
  if (socket_.valid()) return true;
  if (backoff_armed_ && Clock::now() < next_attempt_) return false;
  socket_ = net::tcp_connect(config_.host, config_.port);
  if (!socket_.valid()) {
    arm_backoff();
    return false;
  }
  net::set_nodelay(socket_);
  net::set_nonblocking(socket_, true);
  net::enable_rx_timestamps(socket_);
  net::enable_tx_timestamps(socket_);
  stream_bytes_ = 0;
  backoff_armed_ = false;
  backoff_ = config_.backoff_initial;
  ack_parser_ = net::AckParser{};  // ack frames never span connections
  clock_align_.reset();            // new socket, new queueing regime
  fin_inflight_ = false;
  const std::uint64_t prior =
      connects_.fetch_add(1, std::memory_order_relaxed);
  if (prior > 0) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    metrics_of().reconnects.add(1);
  }
  connected_once_.store(true, std::memory_order_relaxed);
  // Retransmit-on-reconnect: the unacked window goes back to the head of
  // the queue, in seq order, ahead of anything not yet sent.
  if (!unacked_.empty()) {
    pending_.insert(pending_.begin(),
                    std::make_move_iterator(unacked_.begin()),
                    std::make_move_iterator(unacked_.end()));
    unacked_.clear();
    unacked_depth_.store(0, std::memory_order_relaxed);
  }
  return true;
}

void FleetPublisher::on_connection_lost() {
  if (!socket_.valid()) return;
  socket_.close();
  arm_backoff();
}

void FleetPublisher::handle_ack(const net::AckFrame& ack,
                                std::uint64_t rx_ns) {
  acks_received_.fetch_add(1, std::memory_order_relaxed);
  metrics_of().acks.inc();
  if (ack.timestamped()) {
    // The four NTP timestamps: when the echoed batch left (t1), the
    // server's receive/transmit stamps (t2, t3), and the ack's arrival (t4).
    // Done before the retire loop below, which drops the echoed batch.
    clock_align_.update(departure_of(ack.echo_send_ns), ack.srv_rx_ns,
                        ack.srv_tx_ns, rx_ns);
    clock_offset_ns_.store(clock_align_.offset_ns(),
                           std::memory_order_relaxed);
    clock_rtt_ns_.store(clock_align_.min_rtt_ns(), std::memory_order_relaxed);
    clock_samples_.store(clock_align_.samples(), std::memory_order_relaxed);
  }
  if (ack.nacked()) {
    // The server is closing this connection over a framing violation it
    // attributes to us; reconnect and retransmit — at-least-once makes the
    // crossover harmless.
    nacks_received_.fetch_add(1, std::memory_order_relaxed);
    on_connection_lost();
  }
  const std::uint64_t seen =
      acked_seq_observed_.load(std::memory_order_relaxed);
  if (ack.ack_seq > seen) {
    acked_seq_observed_.store(ack.ack_seq, std::memory_order_relaxed);
    const auto now = Clock::now();
    while (!unacked_.empty() && unacked_.front().seq <= ack.ack_seq) {
      const Batch& done = unacked_.front();
      frames_acked_.fetch_add(done.frames, std::memory_order_relaxed);
      batches_acked_.fetch_add(1, std::memory_order_relaxed);
      metrics_of().ack_rtt.observe(
          std::chrono::duration<double>(now - done.sent_at).count());
      unacked_.pop_front();
    }
    unacked_depth_.store(unacked_.size(), std::memory_order_relaxed);
    if (spill_) spill_->ack(ack.ack_seq);
  }
  if (ack.drained() && fin_inflight_) {
    drained_.store(true, std::memory_order_relaxed);
  }
}

void FleetPublisher::note_departure(const net::TxStamp& stamp) {
  if (stream_bytes_ == 0) return;
  // The stamp names its byte mod 2^32 and unacked_ spans far less of the
  // stream than that, so the byte is the latest offset with those low bits.
  const std::uint64_t last = stream_bytes_ - 1;
  const std::uint64_t byte =
      last - static_cast<std::uint32_t>(static_cast<std::uint32_t>(last) -
                                        stamp.last_byte);
  // unacked_ is in send order, so its stream ends ascend.  A stamp that
  // ends no batch (a partial write, a control batch) matches nothing.  A
  // byte sent twice (a retransmitted segment) keeps its first stamp, so a
  // forward leg is never shortened.
  const auto it = std::lower_bound(
      unacked_.begin(), unacked_.end(), byte + 1,
      [](const Batch& b, std::uint64_t end) { return b.stream_end < end; });
  if (it != unacked_.end() && it->stream_end == byte + 1 &&
      it->departed_ns == 0) {
    it->departed_ns = stamp.tx_ns;
  }
}

std::uint64_t FleetPublisher::departure_of(std::uint64_t send_ns) const {
  // Send stamps ascend along unacked_ as well.
  const auto it = std::lower_bound(
      unacked_.begin(), unacked_.end(), send_ns,
      [](const Batch& b, std::uint64_t ns) { return b.send_ns < ns; });
  if (it != unacked_.end() && it->send_ns == send_ns && it->departed_ns != 0) {
    return it->departed_ns;
  }
  return send_ns;
}

bool FleetPublisher::poll_acks() {
  if (!socket_.valid()) return true;
  // TX stamps first: a batch leaves before its ack can come back, so the
  // acks read below find their batches' departures already recorded.
  net::TxStamp stamp;
  while (net::recv_tx_stamp(socket_, stamp)) note_departure(stamp);
  std::uint8_t chunk[512];
  for (;;) {
    const net::IoResult r = net::recv_some(socket_, chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kWouldBlock) return true;
    if (r.status != net::IoStatus::kOk) return false;  // peer gone
    // The kernel's arrival stamp, not the read time: acks wait unread while
    // the caller is busy between pumps or blocked in a send, and a late t4
    // would bias the clock offset by half that wait.
    const std::uint64_t rx_ns = r.rx_ns != 0 ? r.rx_ns : obs::monotonic_ns();
    const net::AckStatus status = ack_parser_.consume(
        chunk, r.bytes, [this, rx_ns](const net::AckFrame& ack) {
          net::AckAction action;
          if (config_.hook != nullptr) action = config_.hook->on_ack(ack);
          if (action.delay_seconds > 0.0) {
            std::this_thread::sleep_for(
                to_duration(Second{action.delay_seconds}));
          }
          if (action.drop) {
            hook_acks_dropped_.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          handle_ack(ack, rx_ns);
        });
    if (status != net::AckStatus::kOk) return false;  // poisoned: reconnect
    if (!socket_.valid()) return true;  // a nack closed it mid-chunk
  }
}

bool FleetPublisher::send_batch(Batch& batch) {
  if (batch.bytes.empty() && batch.spilled && spill_) {
    if (!spill_->read(batch.seq, batch.bytes)) {
      // Compacted or unreadable: it must have been acked already; drop it.
      return true;
    }
  }
  // Fresh send stamp on every attempt (retransmits included), plus the
  // current clock-offset estimate for server-side re-basing.  Before the
  // hook, so chaos corruption of the header is not CRC-healed.
  const std::uint64_t send_ns = obs::monotonic_ns();
  // False means the bytes carry no batch header to stamp: they still go
  // out (the server will refuse them), but without a fresh send stamp the
  // seal-to-wire latency observation below would be fiction.
  const bool restamped = net::restamp_batch_send(
      batch.bytes, send_ns, clock_align_.offset_ns(), clock_align_.valid());
  if (restamped && !batch.sent_before && batch.seal_ns != 0 &&
      send_ns >= batch.seal_ns) {
    metrics_of().seal_to_wire.observe(
        static_cast<double>(send_ns - batch.seal_ns) * 1e-9);
  }
  net::BatchAction action;
  if (config_.hook != nullptr) {
    action = config_.hook->on_batch(batch.seq, batch.bytes);
  }
  if (action.stall_seconds > 0.0) {
    hook_stalls_.fetch_add(1, std::memory_order_relaxed);
    metrics_of().stalls.add(1);
    std::this_thread::sleep_for(to_duration(Second{action.stall_seconds}));
  }
  const std::size_t limit = std::min(action.truncate_to, batch.bytes.size());
  const bool truncated = limit < batch.bytes.size();
  // Paired trace span: the server records a "batch_rx" instant with the
  // same trace_id, which TraceMerge lines up on one timeline.
  const obs::ObsSpan span{"pub", "batch_send", metrics_of().send_seconds,
                          batch.trace_id};
  if (!send_wire(batch.bytes.data(), limit)) {
    // Connection died mid-send: the batch stays queued for retransmit
    // after reconnect (the server discards whatever partial tail it saw).
    send_failures_.fetch_add(1, std::memory_order_relaxed);
    on_connection_lost();
    return false;
  }
  last_send_ = Clock::now();
  if (truncated) {
    // Deliberate mid-batch cut: the server must treat the partial batch
    // as lost frames, so drop the connection and do NOT retransmit.  The
    // seq it consumed becomes an honest batch gap; a later cumulative ack
    // retires it from the spill log.
    hook_truncated_.fetch_add(1, std::memory_order_relaxed);
    socket_.close();
    arm_backoff();
    return true;  // batch disposed (by design)
  }
  if (action.duplicate) {
    // Chaos: the same fully-sent batch again, back to back.  The server's
    // dedup must swallow the copy; any frame double-count is a bug this
    // seam exists to catch.
    hook_duplicated_.fetch_add(1, std::memory_order_relaxed);
    if (!send_wire(batch.bytes.data(), batch.bytes.size())) {
      send_failures_.fetch_add(1, std::memory_order_relaxed);
      on_connection_lost();
      // The original send completed: fall through to bookkeeping.
    }
  }
  if (batch.sent_before) {
    retransmitted_batches_.fetch_add(1, std::memory_order_relaxed);
    retransmitted_frames_.fetch_add(batch.frames, std::memory_order_relaxed);
    metrics_of().retransmits.inc();
  } else {
    frames_sent_.fetch_add(batch.frames, std::memory_order_relaxed);
    batches_sent_.fetch_add(1, std::memory_order_relaxed);
    metrics_of().frames.add(batch.frames);
    metrics_of().batches.add(1);
  }
  bytes_sent_.fetch_add(batch.bytes.size(), std::memory_order_relaxed);
  metrics_of().bytes.add(batch.bytes.size());
  batch.sent_before = true;
  batch.sent_at = Clock::now();
  // The server echoes the copy it parsed last, so the stream end is that
  // of the last copy sent.
  batch.send_ns = send_ns;
  batch.stream_end = stream_bytes_;
  batch.departed_ns = 0;
  unacked_.push_back(std::move(batch));
  unacked_depth_.store(unacked_.size(), std::memory_order_relaxed);
  if (action.drop_connection) {
    hook_dropped_.fetch_add(1, std::memory_order_relaxed);
    socket_.close();
  }
  return true;
}

bool FleetPublisher::send_wire(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const net::IoResult r = net::send_some(socket_, data + sent, size - sent);
    if (r.status == net::IoStatus::kOk) {
      sent += r.bytes;
      stream_bytes_ += r.bytes;
      continue;
    }
    if (r.status != net::IoStatus::kWouldBlock) return false;
    // Full kernel buffer: wait for room, but read acks and TX stamps as
    // they come rather than after the whole send.  An unread stamp alone
    // wakes poll() with POLLERR, so it is drained here, not spun on.
    pollfd pfd{socket_.fd(), POLLIN | POLLOUT, 0};
    ::poll(&pfd, 1, 50);
    if ((pfd.revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
        (!poll_acks() || !socket_.valid())) {
      return false;
    }
  }
  return true;
}

bool FleetPublisher::try_send_pending() {
  bool progressed = false;
  while (!pending_.empty()) {
    if (!ensure_connected()) return progressed;
    Batch batch = std::move(pending_.front());
    pending_.pop_front();
    if (!send_batch(batch)) {
      // Send failed: back to the head, retried after reconnect.
      pending_.push_front(std::move(batch));
      return progressed;
    }
    progressed = true;
  }
  return progressed;
}

void FleetPublisher::send_control(std::uint16_t flags, std::uint64_t seq) {
  if (!socket_.valid()) return;
  net::BatchMeta meta;
  meta.publisher_id = config_.publisher_id;
  meta.seq = seq;
  meta.flags = flags;
  const std::vector<std::uint8_t> wire = net::encode_batch({}, meta);
  if (!send_wire(wire.data(), wire.size())) {
    send_failures_.fetch_add(1, std::memory_order_relaxed);
    on_connection_lost();
    return;
  }
  last_send_ = Clock::now();
  bytes_sent_.fetch_add(wire.size(), std::memory_order_relaxed);
}

void FleetPublisher::heartbeat() {
  if (!socket_.valid()) return;
  send_control(net::kBatchFlagHeartbeat, 0);
  if (socket_.valid()) {
    heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
    metrics_of().heartbeats.inc();
  }
}

bool FleetPublisher::drain(Second deadline) {
  const Clock::time_point until = Clock::now() + to_duration(deadline);
  flush();
  while (Clock::now() < until) {
    if (!poll_acks()) on_connection_lost();
    try_send_pending();
    if (drained_.load(std::memory_order_relaxed)) break;
    // Connect for the FIN even when there was nothing to (re)send: a
    // resume-only run whose whole window was already acked still needs the
    // server's positive "drained" confirmation to exit clean.
    if (pending_.empty() && !fin_inflight_ && ensure_connected()) {
      // FIN carries the highest allocated data seq (not a fresh one):
      // "drained" means your cumulative ack reached it.  Idempotent, so a
      // reconnect simply resends it.
      send_control(net::kBatchFlagFin, next_seq_ - 1);
      if (socket_.valid()) {
        fin_inflight_ = true;
        fin_sent_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!drained_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (spill_) spill_->sync();
  return drained_.load(std::memory_order_relaxed);
}

void FleetPublisher::disconnect() {
  socket_.close();
  backoff_armed_ = false;
  backoff_ = config_.backoff_initial;
}

FleetPublisher::Stats FleetPublisher::stats() const {
  Stats s;
  s.frames_enqueued = frames_enqueued_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.connects = connects_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.send_failures = send_failures_.load(std::memory_order_relaxed);
  s.queue_dropped_batches =
      queue_dropped_batches_.load(std::memory_order_relaxed);
  s.queue_dropped_frames =
      queue_dropped_frames_.load(std::memory_order_relaxed);
  s.acks_received = acks_received_.load(std::memory_order_relaxed);
  s.frames_acked = frames_acked_.load(std::memory_order_relaxed);
  s.batches_acked = batches_acked_.load(std::memory_order_relaxed);
  s.retransmitted_batches =
      retransmitted_batches_.load(std::memory_order_relaxed);
  s.retransmitted_frames =
      retransmitted_frames_.load(std::memory_order_relaxed);
  s.nacks_received = nacks_received_.load(std::memory_order_relaxed);
  s.heartbeats_sent = heartbeats_sent_.load(std::memory_order_relaxed);
  s.fin_sent = fin_sent_.load(std::memory_order_relaxed);
  s.spilled_batches = spilled_batches_.load(std::memory_order_relaxed);
  s.resumed_batches = resumed_batches_.load(std::memory_order_relaxed);
  s.resumed_frames = resumed_frames_.load(std::memory_order_relaxed);
  s.unacked_batches = unacked_depth_.load(std::memory_order_relaxed);
  s.hook_stalls = hook_stalls_.load(std::memory_order_relaxed);
  s.hook_truncated_batches = hook_truncated_.load(std::memory_order_relaxed);
  s.hook_dropped_connections = hook_dropped_.load(std::memory_order_relaxed);
  s.hook_acks_dropped =
      hook_acks_dropped_.load(std::memory_order_relaxed);
  s.hook_duplicated_batches =
      hook_duplicated_.load(std::memory_order_relaxed);
  s.clock_offset_ns = clock_offset_ns_.load(std::memory_order_relaxed);
  s.clock_rtt_ns = clock_rtt_ns_.load(std::memory_order_relaxed);
  s.clock_samples = clock_samples_.load(std::memory_order_relaxed);
  s.connected_once = connected_once_.load(std::memory_order_relaxed);
  s.drained = drained_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tsvpt::ingest
