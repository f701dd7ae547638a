// Thin POSIX TCP layer for the fleet telemetry transport: a move-only RAII
// fd owner plus the handful of helpers the publisher and ingest server need
// (listen/connect/accept on loopback-or-LAN addresses, non-blocking mode,
// and partial-IO-aware send/recv).  Nothing here knows about frames or
// batches — framing.hpp builds the protocol on top of these primitives.
//
// Error philosophy: setup failures that indicate a misconfigured run
// (cannot bind the listen port) throw; steady-state IO failures (peer went
// away, kernel buffer full) are statuses the caller handles, because the
// whole point of the ingest layer is to survive flaky clients.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace tsvpt::net {

/// Move-only owner of a socket file descriptor.  A default-constructed or
/// moved-from Socket holds no fd (`valid()` is false); the destructor closes
/// whatever is held.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Close the held fd (idempotent).
  void close();

 private:
  int fd_ = -1;
};

/// Create a TCP listener bound to host:port (port 0 asks the kernel for an
/// ephemeral port — read it back with local_port).  SO_REUSEADDR is set so
/// rapid restart cycles in tests do not trip TIME_WAIT.  Throws
/// std::runtime_error when the address cannot be bound.
[[nodiscard]] Socket tcp_listen(const std::string& host, std::uint16_t port,
                                int backlog = 64);

/// Port a bound socket actually listens on (resolves port-0 binds).
[[nodiscard]] std::uint16_t local_port(const Socket& socket);

/// Blocking connect; returns an invalid Socket on failure (connection
/// refused is an expected steady-state outcome for a publisher whose server
/// has not come up yet).
[[nodiscard]] Socket tcp_connect(const std::string& host, std::uint16_t port);

/// Accept one pending connection from a non-blocking listener; invalid
/// Socket when none is pending.
[[nodiscard]] Socket tcp_accept(const Socket& listener);

void set_nonblocking(const Socket& socket, bool enabled);

/// Disable Nagle so small alert-bearing batches are not held back.
void set_nodelay(const Socket& socket);

/// Have the kernel stamp every segment the socket receives, so recv_some
/// reports when the bytes it returns arrived rather than when they were
/// read (IoResult::rx_ns).
void enable_rx_timestamps(const Socket& socket);

/// Have the kernel stamp when the last byte of each send leaves this host
/// (read back with recv_tx_stamp).  An unread stamp makes poll() report
/// POLLERR.
void enable_tx_timestamps(const Socket& socket);

/// When the last byte of one send left this host.
struct TxStamp {
  /// That byte's offset in the stream since enable_tx_timestamps, mod 2^32.
  std::uint32_t last_byte = 0;
  /// steady_clock ns.
  std::uint64_t tx_ns = 0;
};

/// Pop the oldest TX stamp off the socket's error queue; false when none
/// is left.
[[nodiscard]] bool recv_tx_stamp(const Socket& socket, TxStamp& stamp);

enum class IoStatus : std::uint8_t {
  kOk,          // bytes transferred (see IoResult::bytes)
  kWouldBlock,  // non-blocking socket had no data / no buffer space
  kClosed,      // orderly shutdown by the peer
  kError,       // anything else; the connection is unusable
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  std::size_t bytes = 0;
  /// recv_some on a socket with enable_rx_timestamps: when the last segment
  /// read arrived, steady_clock ns.  0 otherwise.
  std::uint64_t rx_ns = 0;
};

/// One recv() with EINTR retry.  kOk implies bytes > 0.
[[nodiscard]] IoResult recv_some(const Socket& socket, std::uint8_t* data,
                                 std::size_t size);

/// One send() with EINTR retry; may transfer fewer bytes than asked.
[[nodiscard]] IoResult send_some(const Socket& socket,
                                 const std::uint8_t* data, std::size_t size);

/// Blocking write loop that rides out partial writes and EINTR; false when
/// the connection died before all bytes were handed to the kernel.
[[nodiscard]] bool send_all(const Socket& socket, const std::uint8_t* data,
                            std::size_t size);

}  // namespace tsvpt::net
