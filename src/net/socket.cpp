#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/errqueue.h>
#include <linux/net_tstamp.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <stdexcept>

namespace tsvpt::net {

namespace {

// MSG_NOSIGNAL: a dead peer is EPIPE, not SIGPIPE.  MSG_EOR: a send's last
// byte never shares a segment with a later send's bytes, so the kernel
// cannot overwrite its TX stamp (enable_tx_timestamps) before it leaves.
#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL | MSG_EOR;
#else
constexpr int kSendFlags = MSG_EOR;
#endif

[[nodiscard]] sockaddr_in make_addr(const std::string& host,
                                    std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net: not an IPv4 address: " + host);
  }
  return addr;
}

/// A kernel packet stamp (wall clock) moved onto steady_clock by its age.
[[nodiscard]] std::uint64_t steady_ns_of(const timespec& stamp) {
  using std::chrono::nanoseconds;
  const nanoseconds stamped =
      std::chrono::seconds(stamp.tv_sec) + nanoseconds(stamp.tv_nsec);
  // The kernel stamps packets on the wall clock only.  This read measures
  // a stamp's age and nothing else: no result depends on the wall time.
  // lint:allow(determinism-ban): measures a kernel stamp's age only
  const nanoseconds wall = std::chrono::system_clock::now().time_since_epoch();
  const nanoseconds steady =
      std::chrono::steady_clock::now().time_since_epoch();
  // A wall clock stepped back past the stamp leaves no age to trust: now is
  // the best time left.
  const nanoseconds age = std::max(wall - stamped, nanoseconds(0));
  return static_cast<std::uint64_t>((steady - age).count());
}

/// The receive stamp recvmsg attached (SO_TIMESTAMPNS: the last segment
/// read); 0 when there is none.
[[nodiscard]] std::uint64_t arrival_ns(msghdr& msg) {
#if defined(SO_TIMESTAMPNS)
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
       c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
      timespec stamp{};
      std::memcpy(&stamp, CMSG_DATA(c), sizeof(stamp));
      return steady_ns_of(stamp);
    }
  }
#else
  (void)msg;
#endif
  return 0;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_listen(const std::string& host, std::uint16_t port, int backlog) {
  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!sock.valid()) {
    throw std::runtime_error("net: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = make_addr(host, port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("net: cannot bind " + host + ": " +
                             std::string(std::strerror(errno)));
  }
  if (::listen(sock.fd(), backlog) != 0) {
    throw std::runtime_error("net: listen() failed: " +
                             std::string(std::strerror(errno)));
  }
  return sock;
}

std::uint16_t local_port(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

Socket tcp_connect(const std::string& host, std::uint16_t port) {
  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!sock.valid()) return Socket{};
  const sockaddr_in addr = make_addr(host, port);
  int rc = 0;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Socket{};
  return sock;
}

Socket tcp_accept(const Socket& listener) {
  int fd = -1;
  do {
    fd = ::accept(listener.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  return Socket{fd};
}

void set_nonblocking(const Socket& socket, bool enabled) {
  const int flags = ::fcntl(socket.fd(), F_GETFL, 0);
  if (flags < 0) return;
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  ::fcntl(socket.fd(), F_SETFL, next);
}

void set_nodelay(const Socket& socket) {
  const int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void enable_rx_timestamps(const Socket& socket) {
#if defined(SO_TIMESTAMPNS)
  const int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
#else
  (void)socket;
#endif
}

void enable_tx_timestamps(const Socket& socket) {
#if defined(__linux__)
  // OPT_ID keys each stamp by the offset of the send's last byte; OPT_TSONLY
  // keeps the kernel from looping the sent bytes back with it.
  const unsigned flags = SOF_TIMESTAMPING_TX_SOFTWARE |
                         SOF_TIMESTAMPING_SOFTWARE |
                         SOF_TIMESTAMPING_OPT_ID | SOF_TIMESTAMPING_OPT_TSONLY;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_TIMESTAMPING, &flags,
               sizeof(flags));
#else
  (void)socket;
#endif
}

bool recv_tx_stamp(const Socket& socket, TxStamp& stamp) {
#if defined(__linux__)
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(scm_timestamping)) +
                                CMSG_SPACE(sizeof(sock_extended_err) +
                                           sizeof(sockaddr_in6))];
  for (;;) {
    msghdr msg{};
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    if (::recvmsg(socket.fd(), &msg, MSG_ERRQUEUE | MSG_DONTWAIT) < 0) {
      if (errno == EINTR) continue;
      return false;  // EAGAIN: the queue is empty
    }
    scm_timestamping when{};
    sock_extended_err err{};
    bool have_when = false;
    bool have_err = false;
    for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
         c = CMSG_NXTHDR(&msg, c)) {
      if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPING) {
        std::memcpy(&when, CMSG_DATA(c), sizeof(when));
        have_when = true;
      } else if ((c->cmsg_level == IPPROTO_IP && c->cmsg_type == IP_RECVERR) ||
                 (c->cmsg_level == IPPROTO_IPV6 &&
                  c->cmsg_type == IPV6_RECVERR)) {
        std::memcpy(&err, CMSG_DATA(c), sizeof(err));
        have_err = true;
      }
    }
    if (have_when && have_err && err.ee_origin == SO_EE_ORIGIN_TIMESTAMPING &&
        err.ee_info == SCM_TSTAMP_SND) {
      stamp.last_byte = err.ee_data;
      stamp.tx_ns = steady_ns_of(when.ts[0]);  // ts[0]: the software stamp
      return true;
    }
  }
#else
  (void)socket;
  (void)stamp;
  return false;
#endif
}

IoResult recv_some(const Socket& socket, std::uint8_t* data,
                   std::size_t size) {
  iovec iov{data, size};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
  for (;;) {
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    const ssize_t n = ::recvmsg(socket.fd(), &msg, 0);
    if (n > 0) {
      return {IoStatus::kOk, static_cast<std::size_t>(n), arrival_ns(msg)};
    }
    if (n == 0) return {IoStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

IoResult send_some(const Socket& socket, const std::uint8_t* data,
                   std::size_t size) {
  for (;;) {
    const ssize_t n = ::send(socket.fd(), data, size, kSendFlags);
    if (n >= 0) return {IoStatus::kOk, static_cast<std::size_t>(n)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

bool send_all(const Socket& socket, const std::uint8_t* data,
              std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const IoResult r = send_some(socket, data + sent, size - sent);
    if (r.status == IoStatus::kOk) {
      sent += r.bytes;
      continue;
    }
    if (r.status == IoStatus::kWouldBlock) {
      // Non-blocking socket with a full kernel buffer: wait for writability
      // instead of spinning.  A short timeout keeps a wedged peer from
      // stalling the caller forever — the loop re-checks and the publisher's
      // own deadlines bound the total wait.
      pollfd pfd{socket.fd(), POLLOUT, 0};
      ::poll(&pfd, 1, 50);
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace tsvpt::net
