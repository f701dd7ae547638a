// NTP-style clock alignment over the batch/ack round trip.
//
// Publisher and server each read their own CLOCK_MONOTONIC; to stitch their
// traces (and attribute cross-process latency) we need the offset between
// the two clocks.  Every acked batch yields the four classic timestamps.
// t1, t2 and t4 are kernel packet stamps, taken where the bytes cross a
// host's network stack, so time a batch or an ack spends queued in a
// socket, or unread by a busy thread, counts on neither leg:
//
//   t1  the batch's last byte leaves the publisher    (kernel TX stamp; the
//       header's send_ns, echoed in the ack, names the batch)
//   t2  that byte reaches the server                  (srv_rx_ns, v2 ack)
//   t3  server stamps the ack when it builds it       (srv_tx_ns, v2 ack)
//   t4  the ack reaches the publisher                 (kernel RX stamp)
//
// Without kernel stamps t1, t2 and t4 fall back to the header stamp, the
// server's parse and the publisher's read.
//
//   offset = ((t2 - t1) - (t4 - t3)) / 2      server_clock - publisher_clock
//   rtt    = (t4 - t1) - (t3 - t2)            pure wire+queue time
//
// The offset estimate is exact when the two wire legs are symmetric; queue
// asymmetry shows up as error bounded by rtt/2.  So we keep a sliding
// window of recent samples and report the offset from the minimum-RTT
// sample — the exchange least polluted by queueing.  Per connection, reset
// on reconnect (a new connection means new socket queues).
//
// On one Linux box CLOCK_MONOTONIC is system-wide, so loopback offsets are
// ~0; bench_a21 gates |offset| <= 2 ms on exactly that property.
#pragma once

#include <cstdint>

namespace tsvpt::obs {

class ClockAlign {
 public:
  /// Sliding window length: offset tracks the min-RTT sample among the last
  /// kWindow exchanges, so a transient queue spike ages out.
  static constexpr int kWindow = 16;

  /// Feed one completed round trip (nanosecond timestamps; t1/t4 publisher
  /// clock, t2/t3 server clock).  Samples with non-positive RTT (clock
  /// weirdness, duplicated acks) are dropped.
  void update(std::uint64_t t1, std::uint64_t t2, std::uint64_t t3,
              std::uint64_t t4);

  /// Drop all samples (call on reconnect).
  void reset();

  [[nodiscard]] bool valid() const { return count_ > 0; }
  /// server_clock - publisher_clock, ns (0 until valid()).
  [[nodiscard]] std::int64_t offset_ns() const { return best_offset_ns_; }
  /// RTT of the sample the offset came from, ns.
  [[nodiscard]] std::int64_t min_rtt_ns() const { return best_rtt_ns_; }
  /// Total accepted samples since the last reset.
  [[nodiscard]] std::uint64_t samples() const { return count_; }

 private:
  struct Sample {
    std::int64_t offset_ns = 0;
    std::int64_t rtt_ns = 0;
  };

  void recompute();

  Sample window_[kWindow] = {};
  int size_ = 0;        // valid entries in window_
  int next_ = 0;        // ring write cursor
  std::uint64_t count_ = 0;
  std::int64_t best_offset_ns_ = 0;
  std::int64_t best_rtt_ns_ = 0;
};

}  // namespace tsvpt::obs
