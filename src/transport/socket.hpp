#pragma once

// POSIX socket machinery for the Unix-socket transport backend: RAII fds,
// poll()-bounded blocking I/O (every wait carries a deadline — no raw sleeps
// anywhere on the socket path), listener/connector helpers, and the socket
// Transport factory. The worker side of the wire lives in
// transport/endpoint.hpp and runs inside tools/asyncml_worker.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "support/status.hpp"
#include "transport/transport.hpp"

namespace asyncml::transport {

/// Move-only owning file descriptor.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Writes all of `data`, polling for writability with `deadline_ms` as the
/// budget for the whole call. kUnavailable on peer loss or deadline.
[[nodiscard]] support::Status write_all(int fd, std::span<const std::uint8_t> data,
                                        double deadline_ms);

/// Reads 1..buf.size() bytes. A negative `deadline_ms` blocks until the peer
/// sends or disconnects; EOF and deadline both come back kUnavailable.
[[nodiscard]] support::StatusOr<std::size_t> read_some(int fd,
                                                       std::span<std::uint8_t> buf,
                                                       double deadline_ms);

/// Binds and listens on an AF_UNIX stream socket at `path`.
[[nodiscard]] support::StatusOr<ScopedFd> listen_unix(const std::string& path);

/// Accepts one connection within `deadline_ms`.
[[nodiscard]] support::StatusOr<ScopedFd> accept_deadline(int listen_fd,
                                                          double deadline_ms);

/// Connects to an AF_UNIX stream socket, retrying inside the deadline while
/// the listener is not up yet.
[[nodiscard]] support::StatusOr<ScopedFd> connect_unix(const std::string& path,
                                                       double deadline_ms);

/// Builds the Unix-socket backend: spawns one tools/asyncml_worker process
/// per worker and handshakes each connection. `config.backend` must be
/// kUnixSocket.
[[nodiscard]] std::unique_ptr<Transport> make_socket_transport(
    const TransportConfig& config, int num_workers, engine::ClusterMetrics* metrics);

}  // namespace asyncml::transport
