#include "ingest/server.hpp"

#include <poll.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "telemetry/codec_util.hpp"
#include "telemetry/frame.hpp"

namespace tsvpt::ingest {

namespace {

constexpr int kPollTimeoutMs = 10;
constexpr std::size_t kRecvChunk = 64 * 1024;

// route_frame appends the shard-ring trailer in the parser's headroom, so a
// frame is not reallocated and copied on its way into the ring.
static_assert(telemetry::kRingTrailerSize <= net::kFrameHeadroom);

struct ServerMetrics {
  obs::Counter connections = obs::counter("tsvpt_ingest_connections_total");
  obs::Counter batches = obs::counter("tsvpt_ingest_batches_total");
  obs::Counter frames = obs::counter("tsvpt_ingest_frames_total");
  obs::Counter bytes = obs::counter("tsvpt_ingest_bytes_total");
  obs::Counter ring_drops = obs::counter("tsvpt_ingest_ring_drops_total");
  obs::Counter protocol_errors =
      obs::counter("tsvpt_ingest_protocol_errors_total");
  obs::Counter acks = obs::counter("tsvpt_ingest_acks_total");
  obs::Counter duplicates = obs::counter("tsvpt_ingest_duplicates_total");
  obs::Counter heartbeats = obs::counter("tsvpt_ingest_heartbeats_total");
  obs::Counter reaped = obs::counter("tsvpt_ingest_reaped_total");
  obs::Counter http_requests =
      obs::counter("tsvpt_ingest_http_requests_total");
  obs::Histogram wire_to_shard = obs::stage_latency(obs::kStageWireToShard);
};

[[nodiscard]] ServerMetrics& metrics_of() {
  static ServerMetrics metrics;
  return metrics;
}

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

IngestServer::IngestServer(Config config) : config_(std::move(config)) {
  if (config_.shard_count == 0) config_.shard_count = 1;
  if (config_.shard_count > 64) {
    throw std::invalid_argument("ingest: shard_count is capped at 64");
  }
}

IngestServer::~IngestServer() { stop(); }

std::size_t IngestServer::shard_of(std::uint32_t stack_id,
                                   std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(splitmix64(stack_id) % shard_count);
}

void IngestServer::fail_shard(std::size_t shard) {
  if (shard >= shards_.size()) return;
  // mo: release pairs with live_shard_for's relaxed read being on the same
  // (IO) thread in steady state; release covers the cross-thread caller so
  // the failover decision is not reordered before whatever prompted it.
  failed_mask_.fetch_or(1ull << shard, std::memory_order_release);
}

std::size_t IngestServer::live_shard_for(std::uint32_t stack_id) const {
  const std::size_t count = shards_.size();
  const std::size_t home = shard_of(stack_id, count);
  // mo: acquire pairs with fail_shard's release (see there).
  const std::uint64_t failed = failed_mask_.load(std::memory_order_acquire);
  if (failed == 0) return home;
  for (std::size_t probe = 0; probe < count; ++probe) {
    const std::size_t candidate = (home + probe) % count;
    if ((failed & (1ull << candidate)) == 0) return candidate;
  }
  return home;  // everything failed: keep routing home, rings still absorb
}

void IngestServer::start() {
  // mo: acquire pairs with stop()/start()'s release stores (see running()).
  if (running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(false, std::memory_order_relaxed);
  listener_ = net::tcp_listen(config_.bind_host, config_.port);
  net::set_nonblocking(listener_, true);
  port_ = net::local_port(listener_);
  if (config_.http_enabled) {
    http_listener_ = net::tcp_listen(config_.bind_host, config_.http_port);
    net::set_nonblocking(http_listener_, true);
    http_port_ = net::local_port(http_listener_);
  }
  // A scrape must always expose the complete stage family, even before
  // traffic has reached every stage (stable schema for grep gates).
  obs::register_stage_histograms();

  if (!config_.store_dir.empty()) {
    store_ = std::make_unique<store::StoreWriter>(config_.store_dir);
  }

  shards_.clear();
  frames_per_shard_.clear();
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->ring = std::make_unique<telemetry::FrameRing>(
        config_.shard_ring_capacity);
    telemetry::Aggregator::Config agg = config_.aggregator;
    // Server-side shard rings always carry the attribution trailer.
    agg.shard_trailer = true;
    Shard* raw = shard.get();
    shard->aggregator = std::make_unique<telemetry::Aggregator>(
        std::move(agg), [raw](const telemetry::Alert& alert) {
          raw->alerts.push_back(alert);
        });
    shard->aggregator->start({shard->ring.get()});
    shards_.push_back(std::move(shard));
    frames_per_shard_.push_back(
        std::make_unique<std::atomic<std::uint64_t>>(0));
  }

  touch_activity();
  io_thread_ = std::thread([this] { run(); });
  // mo: release pairs with running()'s acquire load.
  running_.store(true, std::memory_order_release);
}

void IngestServer::stop() {
  if (!io_thread_.joinable()) return;
  // mo: release pairs with the IO loop's acquire load, ordering anything
  // the stopping thread did (e.g. fail_shard) before the final drain.
  stop_requested_.store(true, std::memory_order_release);
  io_thread_.join();
  for (auto& shard : shards_) shard->aggregator->stop();
  if (store_) store_->close();
  // mo: release pairs with running()'s acquire load: "not running" implies
  // the shard summaries are fully drained and safe to read.
  running_.store(false, std::memory_order_release);
}

void IngestServer::touch_activity() {
  last_activity_ns_.store(now_ns(), std::memory_order_relaxed);
}

Second IngestServer::idle_for() const {
  const std::int64_t last = last_activity_ns_.load(std::memory_order_relaxed);
  return Second{static_cast<double>(now_ns() - last) * 1e-9};
}

void IngestServer::route_frame(std::vector<std::uint8_t>&& wire) {
  const auto stack_id = telemetry::peek_stack_id(wire);
  if (!stack_id) {
    unroutable_frames_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (store_) {
    // Store sink decodes the bare frame — before the trailer goes on.
    const telemetry::DecodeResult decoded = telemetry::decode(wire);
    if (decoded.ok()) {
      store_->append(decoded.frame);
    } else {
      store_decode_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const std::size_t shard = live_shard_for(*stack_id);
  frames_total_.fetch_add(1, std::memory_order_relaxed);
  frames_per_shard_[shard]->fetch_add(1, std::memory_order_relaxed);
  metrics_of().frames.add(1);
  // Attribution trailer for the shard aggregator: when this frame entered
  // the shard queue, and the batch's publisher clock offset (sentinel when
  // the publisher had no estimate).
  {
    using telemetry::put_u64;
    const std::int64_t offset = cur_offset_valid_
                                    ? cur_offset_ns_
                                    : telemetry::kRingTrailerInvalidOffset;
    put_u64(wire, static_cast<std::uint64_t>(now_ns()));
    put_u64(wire, static_cast<std::uint64_t>(offset));
  }
  const std::size_t evicted =
      shards_[shard]->ring->push_overwrite(std::move(wire));
  if (evicted > 0) {
    ring_drops_.fetch_add(evicted, std::memory_order_relaxed);
    metrics_of().ring_drops.add(evicted);
  }
}

bool IngestServer::handle_batch_info(Connection& conn,
                                     const net::BatchInfo& info) {
  if (info.publisher_id != 0) conn.publisher_id = info.publisher_id;
  auto [it, inserted] = peers_.try_emplace(info.publisher_id);
  if (inserted && info.publisher_id != 0) {
    publishers_.fetch_add(1, std::memory_order_relaxed);
  }
  Peer& peer = it->second;
  conn.ack_pending = true;

  // Timestamped data batch: capture the NTP echo pair for the next
  // ack, stage the publisher's clock offset for route_frame's trailer, and
  // attribute the wire leg when the offset lets us compare clocks.
  if (info.send_ns != 0) {
    const std::uint64_t rx = static_cast<std::uint64_t>(now_ns());
    conn.echo_send_ns = info.send_ns;
    // t2 is the batch's arrival, not this parse: a batch queued in the
    // socket while the IO thread was busy would add its wait to the
    // forward leg and bias the publisher's offset by half of it.
    conn.echo_rx_ns = conn.chunk_rx_ns;
    cur_offset_ns_ = info.offset_ns;
    cur_offset_valid_ = info.offset_valid();
    obs::instant("ingest", "batch_rx", info.trace_id);
    if (info.offset_valid()) {
      const std::int64_t wire_ns =
          static_cast<std::int64_t>(rx) -
          (static_cast<std::int64_t>(info.send_ns) + info.offset_ns);
      if (wire_ns >= 0) {
        metrics_of().wire_to_shard.observe(static_cast<double>(wire_ns) *
                                           1e-9);
      }
    }
  } else {
    // Control batch (heartbeat, FIN): no send stamp, so no offset context.
    cur_offset_valid_ = false;
  }

  if (info.heartbeat()) {
    heartbeats_.fetch_add(1, std::memory_order_relaxed);
    metrics_of().heartbeats.add(1);
    return false;  // zero frames by construction; nothing to emit
  }
  if (info.fin()) {
    // FIN names the highest data seq this publisher ever allocated; it
    // consumes no sequence itself, so a resend after reconnect is a no-op.
    peer.has_fin = true;
    peer.fin_seq = info.seq;
    return false;
  }
  if (info.seq == 0) return true;  // unsequenced producer: no dedup possible
  if (info.seq <= peer.acked) {
    // Retransmit of something already ingested (the ack that retired it
    // raced the publisher's resend, or a crashed publisher replayed its
    // spill log past a stale marker).  Veto the frames; the cumulative ack
    // below tells the sender to move on.
    duplicate_batches_.fetch_add(1, std::memory_order_relaxed);
    duplicate_frames_.fetch_add(info.frame_count, std::memory_order_relaxed);
    metrics_of().duplicates.add(1);
    return false;
  }
  if (info.seq > peer.acked + 1) {
    // The publisher skipped seqs on purpose (drop-oldest overflow or a
    // deliberately-abandoned truncated batch).  Advance past the hole —
    // the frame loss is already visible downstream as sequence gaps.
    batch_gaps_.fetch_add(info.seq - peer.acked - 1,
                          std::memory_order_relaxed);
  }
  peer.acked = info.seq;
  return true;
}

void IngestServer::queue_ack(Connection& conn) {
  conn.ack_pending = false;
  const auto it = peers_.find(conn.publisher_id);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  net::AckFrame ack;
  ack.ack_seq = peer.acked;
  // NTP echo: t1 (publisher send) and t2 (our parse time) from the newest
  // timestamped batch, t3 stamped now — as close to the send as we get.
  ack.echo_send_ns = conn.echo_send_ns;
  ack.srv_rx_ns = conn.echo_rx_ns;
  ack.srv_tx_ns = static_cast<std::uint64_t>(now_ns());
  if (peer.has_fin && peer.acked >= peer.fin_seq) {
    ack.flags |= net::kAckFlagDrained;
    if (!peer.drain_counted) {
      peer.drain_counted = true;
      fin_drains_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  net::append_ack(conn.outbox, ack);
  acks_sent_.fetch_add(1, std::memory_order_relaxed);
  metrics_of().acks.add(1);
}

bool IngestServer::flush_outbox(Connection& conn) {
  while (!conn.outbox.empty()) {
    const net::IoResult r = net::send_some(conn.socket, conn.outbox.data(),
                                           conn.outbox.size());
    if (r.status == net::IoStatus::kOk) {
      conn.outbox.erase(conn.outbox.begin(),
                        conn.outbox.begin() +
                            static_cast<std::ptrdiff_t>(r.bytes));
      continue;
    }
    if (r.status == net::IoStatus::kWouldBlock) return true;  // POLLOUT waits
    return false;
  }
  return true;
}

// hot(lock): the shard event loop owns all of its state; every cross-thread
// handoff goes through the lock-free shard queue, so any mutex acquired here
// is a regression that can stall every connection on the shard.
void IngestServer::run() {
  // Scrape-port connections: parse one request, write one response, close.
  struct HttpConn {
    net::Socket socket;
    obs::HttpRequestParser parser;
    std::string response;
    std::size_t sent = 0;
  };
  std::vector<Connection> connections;
  std::vector<HttpConn> http_conns;
  std::vector<pollfd> fds;
  std::vector<std::uint8_t> chunk(kRecvChunk);
  const bool http = http_listener_.valid();
  const bool reap = config_.idle_conn_timeout.value() > 0.0;
  const auto reap_after = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.idle_conn_timeout.value()));

  const auto close_connection = [&](std::size_t i, bool protocol_error) {
    if (protocol_error) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      metrics_of().protocol_errors.add(1);
    } else if (connections[i].parser.buffered() > 0) {
      partial_disconnects_.fetch_add(1, std::memory_order_relaxed);
    }
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    connections.erase(connections.begin() +
                      static_cast<std::ptrdiff_t>(i));
    open_connections_.store(connections.size(), std::memory_order_relaxed);
  };

  for (;;) {
    // mo: acquire pairs with stop()'s release store.
    if (stop_requested_.load(std::memory_order_acquire)) break;

    fds.clear();
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    const std::size_t http_listener_slot = fds.size();
    if (http) fds.push_back(pollfd{http_listener_.fd(), POLLIN, 0});
    const std::size_t conn_base = fds.size();
    for (const Connection& conn : connections) {
      const short events =
          static_cast<short>(POLLIN | (conn.outbox.empty() ? 0 : POLLOUT));
      fds.push_back(pollfd{conn.socket.fd(), events, 0});
    }
    const std::size_t http_base = fds.size();
    for (const HttpConn& hc : http_conns) {
      const short events =
          static_cast<short>(hc.response.empty() ? POLLIN : POLLOUT);
      fds.push_back(pollfd{hc.socket.fd(), events, 0});
    }
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollTimeoutMs);
    // Connections this round's pollfds actually describe: the accept loops
    // below grow the vectors, and those new sockets have no pollfd until
    // the next iteration.
    const std::size_t polled = connections.size();
    const std::size_t http_polled = http_conns.size();

    if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
      for (;;) {
        net::Socket accepted = net::tcp_accept(listener_);
        if (!accepted.valid()) break;
        net::set_nonblocking(accepted, true);
        net::set_nodelay(accepted);
        net::enable_rx_timestamps(accepted);
        Connection conn;
        conn.socket = std::move(accepted);
        conn.last_rx = std::chrono::steady_clock::now();
        connections.push_back(std::move(conn));
        connections_total_.fetch_add(1, std::memory_order_relaxed);
        metrics_of().connections.add(1);
        open_connections_.store(connections.size(),
                                std::memory_order_relaxed);
        touch_activity();
      }
    }

    // Reverse order so close_connection's erase does not shift the
    // indices of connections not yet visited this round.
    for (std::size_t i = polled; i-- > 0;) {
      const pollfd& pfd = fds[conn_base + i];
      Connection& conn = connections[i];

      if (reap && std::chrono::steady_clock::now() - conn.last_rx >
                      reap_after) {
        reaped_connections_.fetch_add(1, std::memory_order_relaxed);
        metrics_of().reaped.add(1);
        close_connection(i, false);
        continue;
      }
      if (ready <= 0) continue;

      if ((pfd.revents & POLLOUT) != 0 && !flush_outbox(conn)) {
        close_connection(i, false);
        continue;
      }
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool closed = false;
      bool errored = false;
      net::BatchStatus error_status = net::BatchStatus::kOk;
      for (;;) {
        const net::IoResult r =
            net::recv_some(conn.socket, chunk.data(), chunk.size());
        if (r.status == net::IoStatus::kOk) {
          touch_activity();
          conn.last_rx = std::chrono::steady_clock::now();
          conn.chunk_rx_ns =
              r.rx_ns != 0 ? r.rx_ns : static_cast<std::uint64_t>(now_ns());
          bytes_total_.fetch_add(r.bytes, std::memory_order_relaxed);
          metrics_of().bytes.add(r.bytes);
          // Re-bound the veto seam every chunk: `conn` is a reference into
          // a vector that reallocates as connections come and go, so a
          // captured reference must never outlive this iteration.
          conn.parser.set_batch_handler(
              [this, &conn](const net::BatchInfo& info) {
                return handle_batch_info(conn, info);
              });
          const std::uint64_t before = conn.parser.batches();
          const net::BatchStatus status = conn.parser.consume(
              chunk.data(), r.bytes, [this](std::vector<std::uint8_t>&& f) {
                route_frame(std::move(f));
              });
          batches_total_.fetch_add(conn.parser.batches() - before,
                             std::memory_order_relaxed);
          metrics_of().batches.add(conn.parser.batches() - before);
          if (status != net::BatchStatus::kOk) {
            errored = true;
            error_status = status;
            break;
          }
          continue;
        }
        if (r.status == net::IoStatus::kWouldBlock) break;
        closed = true;  // kClosed or kError: either way the peer is gone
        break;
      }
      if (conn.ack_pending && !closed && !errored) queue_ack(conn);
      if (errored) {
        // Best-effort nack so a live-but-buggy publisher learns why it is
        // about to lose the connection; a full kernel buffer just skips it.
        net::AckFrame nack;
        nack.flags = net::kAckFlagNack;
        nack.nack = static_cast<std::uint32_t>(error_status);
        const auto peer_it = peers_.find(conn.publisher_id);
        if (peer_it != peers_.end()) nack.ack_seq = peer_it->second.acked;
        const std::vector<std::uint8_t> wire = net::encode_ack(nack);
        (void)net::send_some(conn.socket, wire.data(), wire.size());
        nacks_sent_.fetch_add(1, std::memory_order_relaxed);
        close_connection(i, true);
      } else if (closed) {
        close_connection(i, false);
      } else if (!flush_outbox(conn)) {
        close_connection(i, false);
      }
    }

    if (http && ready > 0 &&
        (fds[http_listener_slot].revents & POLLIN) != 0) {
      for (;;) {
        net::Socket accepted = net::tcp_accept(http_listener_);
        if (!accepted.valid()) break;
        net::set_nonblocking(accepted, true);
        HttpConn hc;
        hc.socket = std::move(accepted);
        http_conns.push_back(std::move(hc));
      }
    }

    // Reverse order for the same erase-stability reason as above.
    for (std::size_t i = http_polled; i-- > 0;) {
      const pollfd& pfd = fds[http_base + i];
      HttpConn& hc = http_conns[i];
      bool drop = false;
      if (ready > 0 && hc.response.empty() &&
          (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        for (;;) {
          const net::IoResult r =
              net::recv_some(hc.socket, chunk.data(), chunk.size());
          if (r.status == net::IoStatus::kOk) {
            const obs::HttpRequestParser::State state = hc.parser.feed(
                reinterpret_cast<const char*>(chunk.data()), r.bytes);
            if (state == obs::HttpRequestParser::State::kIncomplete) {
              continue;
            }
            if (state == obs::HttpRequestParser::State::kComplete) {
              hc.response =
                  http_respond(hc.parser.method(), hc.parser.path());
            } else {
              // Oversized or malformed: answer with the error and close.
              http_requests_.fetch_add(1, std::memory_order_relaxed);
              metrics_of().http_requests.add(1);
              hc.response = obs::http_response(
                  state == obs::HttpRequestParser::State::kTooLarge ? 431
                                                                    : 400,
                  "text/plain", "bad request\n");
            }
            break;
          }
          if (r.status == net::IoStatus::kWouldBlock) break;
          drop = true;  // peer gone before a full request arrived
          break;
        }
      }
      if (!drop && !hc.response.empty()) {
        while (hc.sent < hc.response.size()) {
          const net::IoResult r = net::send_some(
              hc.socket,
              reinterpret_cast<const std::uint8_t*>(hc.response.data()) +
                  hc.sent,
              hc.response.size() - hc.sent);
          if (r.status == net::IoStatus::kOk) {
            hc.sent += r.bytes;
            continue;
          }
          if (r.status != net::IoStatus::kWouldBlock) drop = true;
          break;  // kWouldBlock: POLLOUT resumes next round
        }
        if (hc.sent == hc.response.size()) drop = true;  // close-on-done
      }
      if (drop) {
        http_conns.erase(http_conns.begin() +
                         static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  // Connections close here; bytes still in flight are discarded, which is
  // the documented stop() contract (the CLI waits for idle first).
  connections.clear();
  http_conns.clear();
  open_connections_.store(0, std::memory_order_relaxed);
  listener_.close();
  http_listener_.close();
}

std::string IngestServer::http_respond(const std::string& method,
                                       const std::string& path) {
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  metrics_of().http_requests.add(1);
  if (method != "GET") {
    return obs::http_response(405, "text/plain", "method not allowed\n");
  }
  if (path == "/metrics") {
    return obs::http_response(200,
                              "text/plain; version=0.0.4; charset=utf-8",
                              obs::metrics_prometheus());
  }
  if (path == "/healthz") {
    return obs::http_response(200, "application/json", healthz_json());
  }
  return obs::http_response(404, "text/plain", "not found\n");
}

std::string IngestServer::healthz_json() const {
  // IO thread: peers_ and the shard rings are safe to read here (rings via
  // their own internal synchronization, peers_ because we own it).
  std::ostringstream out;
  out << "{\"shards\": [";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (s != 0) out << ", ";
    const bool failed =
        (failed_mask_.load(std::memory_order_relaxed) & (1ull << s)) != 0;
    out << "{\"shard\": " << s << ", \"ring_depth\": "
        << shards_[s]->ring->size() << ", \"frames\": "
        << frames_per_shard_[s]->load(std::memory_order_relaxed)
        << ", \"failed\": " << (failed ? "true" : "false") << "}";
  }
  out << "], \"open_connections\": "
      << open_connections_.load(std::memory_order_relaxed)
      << ", \"peers\": [";
  bool first = true;
  for (const auto& [publisher_id, peer] : peers_) {
    if (publisher_id == 0) continue;  // unsequenced producers: no identity
    if (!first) out << ", ";
    first = false;
    const bool drained = peer.has_fin && peer.acked >= peer.fin_seq;
    out << "{\"publisher_id\": " << publisher_id << ", \"acked\": "
        << peer.acked << ", \"fin\": " << (peer.has_fin ? "true" : "false")
        << ", \"drained\": " << (drained ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

IngestServer::Stats IngestServer::stats() const {
  Stats s;
  s.connections = connections_total_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.partial_disconnects =
      partial_disconnects_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.batches = batches_total_.load(std::memory_order_relaxed);
  s.frames = frames_total_.load(std::memory_order_relaxed);
  s.bytes = bytes_total_.load(std::memory_order_relaxed);
  s.ring_drops = ring_drops_.load(std::memory_order_relaxed);
  s.unroutable_frames = unroutable_frames_.load(std::memory_order_relaxed);
  s.store_decode_errors =
      store_decode_errors_.load(std::memory_order_relaxed);
  s.acks_sent = acks_sent_.load(std::memory_order_relaxed);
  s.nacks_sent = nacks_sent_.load(std::memory_order_relaxed);
  s.duplicate_batches = duplicate_batches_.load(std::memory_order_relaxed);
  s.duplicate_frames = duplicate_frames_.load(std::memory_order_relaxed);
  s.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  s.batch_gaps = batch_gaps_.load(std::memory_order_relaxed);
  s.fin_drains = fin_drains_.load(std::memory_order_relaxed);
  s.reaped_connections =
      reaped_connections_.load(std::memory_order_relaxed);
  s.http_requests = http_requests_.load(std::memory_order_relaxed);
  s.publishers = publishers_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  s.frames_per_shard.reserve(frames_per_shard_.size());
  for (const auto& counter : frames_per_shard_) {
    s.frames_per_shard.push_back(counter->load(std::memory_order_relaxed));
  }
  return s;
}

FleetView IngestServer::fleet_view() const {
  FleetView view;
  for (const auto& shard : shards_) {
    view.add_shard(shard->aggregator->summary(), shard->alerts);
  }
  view.finalize();
  return view;
}

}  // namespace tsvpt::ingest
