#include "transport/socket.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "transport/frame.hpp"
#include "transport/wire.hpp"

extern char** environ;

namespace asyncml::transport {

using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after(double ms) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
}

/// Remaining budget in whole milliseconds for poll(): 0 once expired,
/// rounded up so a sub-millisecond remainder still waits.
int remaining_poll_ms(Clock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > std::numeric_limits<int>::max()) return std::numeric_limits<int>::max();
  return static_cast<int>(left.count());
}

Status errno_status(StatusCode code, const char* what) {
  return Status(code, std::string(what) + ": " + std::strerror(errno));
}

/// Polls `fd` for `events`; `deadline_ms < 0` blocks indefinitely.
/// Returns kUnavailable on deadline expiry.
Status poll_for(int fd, short events, Clock::time_point deadline, bool infinite) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int timeout = infinite ? -1 : remaining_poll_ms(deadline);
    const int rc = ::poll(&pfd, 1, timeout);
    if (rc > 0) return Status::ok();
    if (rc == 0) return Status(StatusCode::kUnavailable, "socket i/o deadline expired");
    if (errno == EINTR) continue;
    return errno_status(StatusCode::kUnavailable, "poll");
  }
}

}  // namespace

void ScopedFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status write_all(int fd, std::span<const std::uint8_t> data, double deadline_ms) {
  const auto deadline = deadline_after(deadline_ms);
  std::size_t off = 0;
  while (off < data.size()) {
    if (Status s = poll_for(fd, POLLOUT, deadline, /*infinite=*/false); !s.is_ok()) {
      return s;
    }
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    return errno_status(StatusCode::kUnavailable, "send");
  }
  return Status::ok();
}

StatusOr<std::size_t> read_some(int fd, std::span<std::uint8_t> buf, double deadline_ms) {
  const bool infinite = deadline_ms < 0;
  const auto deadline = infinite ? Clock::time_point{} : deadline_after(deadline_ms);
  for (;;) {
    if (Status s = poll_for(fd, POLLIN, deadline, infinite); !s.is_ok()) return s;
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) return Status(StatusCode::kUnavailable, "peer disconnected");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return errno_status(StatusCode::kUnavailable, "recv");
  }
}

StatusOr<ScopedFd> listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status(StatusCode::kInvalidArgument,
                  "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status(StatusCode::kUnavailable, "socket(AF_UNIX)");
  (void)::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return errno_status(StatusCode::kUnavailable, "bind(AF_UNIX)");
  }
  if (::listen(fd.get(), 128) != 0) {
    return errno_status(StatusCode::kUnavailable, "listen(AF_UNIX)");
  }
  return fd;
}

StatusOr<ScopedFd> accept_deadline(int listen_fd, double deadline_ms) {
  const auto deadline = deadline_after(deadline_ms);
  for (;;) {
    if (Status s = poll_for(listen_fd, POLLIN, deadline, /*infinite=*/false);
        !s.is_ok()) {
      return s;
    }
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return ScopedFd(fd);
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return errno_status(StatusCode::kUnavailable, "accept");
  }
}

StatusOr<ScopedFd> connect_unix(const std::string& path, double deadline_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status(StatusCode::kInvalidArgument,
                  "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // The listener may not be up yet (or its backlog momentarily full), so
  // refused attempts retry on a 1 ms tick until the deadline.
  const auto deadline = deadline_after(deadline_ms);
  for (;;) {
    ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) return errno_status(StatusCode::kUnavailable, "socket(AF_UNIX)");
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    Status failed = errno_status(StatusCode::kUnavailable, "connect(AF_UNIX)");
    if (Clock::now() >= deadline) return failed;
    const timespec tick{0, 1'000'000};  // 1 ms between attempts
    (void)::nanosleep(&tick, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Socket channel: one connected worker process.

namespace {

class SocketChannel final : public Channel {
 public:
  SocketChannel(engine::WorkerId worker, ScopedFd fd, pid_t pid,
                const TransportConfig& config, engine::ClusterMetrics* metrics)
      : worker_(worker),
        fd_(std::move(fd)),
        pid_(pid),
        config_(config),
        metrics_(metrics),
        decoder_(config.max_frame_bytes) {}

  Status ship_task(engine::TaskSpec& spec) override {
    const TaskSpecMsg msg = to_wire(spec);
    const std::vector<std::uint8_t> frame =
        encode_frame(static_cast<std::uint8_t>(FrameKind::kTaskSpec),
                     encode_task_spec(msg));
    StatusOr<RoundTrip> rt = round_trip(frame, config_.io_deadline_ms);
    if (!rt.is_ok()) return rt.status();
    StatusOr<std::vector<std::uint8_t>> body = expect_ack(rt.value().ack, FrameKind::kTaskSpec);
    if (!body.is_ok()) return body.status();
    TaskSpecMsg echo;
    if (Status s = decode_task_spec(body.value(), echo); !s.is_ok()) {
      return mark_dead(std::move(s));
    }
    apply_wire(echo, spec);
    count(engine::WireChannel::kTask, rt.value());
    return Status::ok();
  }

  StatusOr<ShipReceipt> ship_result(engine::TaskResult result) override {
    const TaskResultMsg msg = to_wire(result);
    const std::vector<std::uint8_t> frame =
        encode_frame(static_cast<std::uint8_t>(FrameKind::kTaskResult),
                     encode_task_result(msg));
    StatusOr<RoundTrip> rt = round_trip(frame, config_.io_deadline_ms);
    if (!rt.is_ok()) return rt.status();
    StatusOr<std::vector<std::uint8_t>> body =
        expect_ack(rt.value().ack, FrameKind::kTaskResult);
    if (!body.is_ok()) return body.status();
    TaskResultMsg echo;
    if (Status s = decode_task_result(body.value(), echo); !s.is_ok()) {
      return mark_dead(std::move(s));
    }
    // The decoded echo is what the driver consumes; the local payload serves
    // only as the opaque-kind source object.
    StatusOr<engine::TaskResult> decoded = from_wire(echo, &result.payload);
    if (!decoded.is_ok()) return mark_dead(decoded.status());
    count(engine::WireChannel::kResult, rt.value());
    ShipReceipt receipt;
    receipt.result = std::move(decoded).value();
    receipt.wire_ns = rt.value().wire_ns;
    return receipt;
  }

  StatusOr<FetchReceipt> fetch_payload(const engine::Payload& payload,
                                       engine::BroadcastClass cls) override {
    (void)cls;
    const std::vector<std::uint8_t> body = encode_payload_envelope(payload);
    const FrameKind kind = envelope_frame_kind(payload);
    const std::uint8_t type = static_cast<std::uint8_t>(kind);
    const std::vector<std::uint8_t> frame =
        kind == FrameKind::kModelDelta
            ? encode_frame_lz4(type, body)
            : encode_frame(type, body);
    StatusOr<RoundTrip> rt = round_trip(frame, config_.io_deadline_ms);
    if (!rt.is_ok()) return rt.status();
    StatusOr<std::vector<std::uint8_t>> ack_body = expect_ack(rt.value().ack, kind);
    if (!ack_body.is_ok()) return ack_body.status();
    StatusOr<engine::Payload> decoded =
        decode_payload_envelope(ack_body.value(), &payload);
    if (!decoded.is_ok()) return mark_dead(decoded.status());
    count(engine::WireChannel::kModel, rt.value());
    FetchReceipt receipt;
    receipt.payload = std::move(decoded).value();
    return receipt;
  }

  [[nodiscard]] bool alive() const override {
    return !dead_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool is_wire() const override { return true; }
  [[nodiscard]] engine::WorkerId worker() const override { return worker_; }

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Chaos hook: SIGKILL the peer; the wire notices on the next I/O.
  void kill_peer() {
    if (pid_ > 0) (void)::kill(pid_, SIGKILL);
  }

  /// Best-effort shutdown round trip (short deadline so a hung peer cannot
  /// stall driver teardown), then closes the wire.
  void shutdown() {
    if (alive()) {
      const std::vector<std::uint8_t> frame =
          encode_frame(static_cast<std::uint8_t>(FrameKind::kShutdown), {});
      const double deadline = std::min(config_.io_deadline_ms, 2000.0);
      if (StatusOr<RoundTrip> rt = round_trip(frame, deadline); rt.is_ok()) {
        count(engine::WireChannel::kControl, rt.value());
      }
    }
    std::lock_guard lock(io_mu_);
    dead_.store(true, std::memory_order_release);
    fd_.reset();
  }

 private:
  struct RoundTrip {
    Frame ack;
    std::size_t sent = 0;
    std::size_t received = 0;
    std::uint64_t wire_ns = 0;
  };

  template <typename T>
  T mark_dead(T status) {
    dead_.store(true, std::memory_order_release);
    return status;
  }

  void count(engine::WireChannel ch, const RoundTrip& rt) {
    if (metrics_ != nullptr) metrics_->count_wire(ch, rt.sent, rt.received);
  }

  /// One request/ack exchange. Serialized per channel; any wire-level
  /// failure (deadline, disconnect, framing poison, stray frame) is
  /// fail-stop: the channel goes dead and stays dead.
  StatusOr<RoundTrip> round_trip(std::span<const std::uint8_t> frame_bytes,
                                 double deadline_ms) {
    std::lock_guard lock(io_mu_);
    if (dead_.load(std::memory_order_acquire)) {
      return Status(StatusCode::kUnavailable, "transport channel is dead");
    }
    const auto start = Clock::now();
    if (Status s = write_all(fd_.get(), frame_bytes, deadline_ms); !s.is_ok()) {
      return mark_dead(std::move(s));
    }
    std::vector<Frame> frames;
    std::array<std::uint8_t, 65536> buf;
    while (frames.empty()) {
      StatusOr<std::size_t> n = read_some(fd_.get(), buf, deadline_ms);
      if (!n.is_ok()) return mark_dead(n.status());
      if (Status s = decoder_.feed({buf.data(), n.value()}, frames); !s.is_ok()) {
        return mark_dead(std::move(s));
      }
    }
    if (frames.size() != 1) {
      // One request in flight per channel — a second frame is a protocol
      // violation.
      return mark_dead(
          Status(StatusCode::kUnavailable, "unexpected extra frame on channel"));
    }
    RoundTrip rt;
    rt.ack = std::move(frames.front());
    rt.sent = frame_bytes.size();
    rt.received = kFrameHeaderBytes + rt.ack.body.size();
    rt.wire_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
            .count());
    return rt;
  }

  /// Validates the ack frame and yields its (decompressed) message bytes.
  /// A kError ack reports the peer's decode verdict without killing the
  /// channel (framing stayed aligned); anything else unexpected is fatal.
  StatusOr<std::vector<std::uint8_t>> expect_ack(const Frame& ack, FrameKind want) {
    if (!ack.is_ack()) {
      return mark_dead(
          Status(StatusCode::kUnavailable, "peer sent a non-ack frame"));
    }
    if (ack.kind() == FrameKind::kError) {
      StatusOr<std::vector<std::uint8_t>> bytes = ack.message_bytes();
      if (!bytes.is_ok()) return mark_dead(bytes.status());
      ErrorMsg err;
      if (Status s = decode_error(bytes.value(), err); !s.is_ok()) {
        return mark_dead(std::move(s));
      }
      return error_to_status(err);
    }
    if (ack.kind() != want) {
      return mark_dead(
          Status(StatusCode::kUnavailable, "ack kind mismatch on channel"));
    }
    StatusOr<std::vector<std::uint8_t>> bytes = ack.message_bytes();
    if (!bytes.is_ok()) return mark_dead(bytes.status());
    return bytes;
  }

  engine::WorkerId worker_;
  ScopedFd fd_;
  pid_t pid_;
  TransportConfig config_;
  engine::ClusterMetrics* metrics_;
  std::mutex io_mu_;
  FrameDecoder decoder_;
  std::atomic<bool> dead_{false};
};

// ---------------------------------------------------------------------------
// Socket transport: listener + spawned worker endpoints.

std::string resolve_worker_binary(const TransportConfig& config) {
  if (!config.worker_binary.empty()) return config.worker_binary;
  if (const char* env = std::getenv("ASYNCML_WORKER_BIN"); env != nullptr && *env != 0) {
    return env;
  }
  // Next to the running binary (CMake drops every runtime target in the
  // build root).
  std::array<char, 4096> self{};
  const ssize_t n = ::readlink("/proc/self/exe", self.data(), self.size() - 1);
  if (n > 0) {
    std::string dir(self.data(), static_cast<std::size_t>(n));
    const std::size_t slash = dir.rfind('/');
    if (slash != std::string::npos) dir.resize(slash);
    return dir + "/asyncml_worker";
  }
  return "asyncml_worker";
}

class SocketTransport final : public Transport {
 public:
  SocketTransport(const TransportConfig& config, int num_workers,
                  engine::ClusterMetrics* metrics)
      : config_(config), num_workers_(num_workers), metrics_(metrics) {}

  ~SocketTransport() override { stop(); }

  Status start() override {
    const std::string binary = resolve_worker_binary(config_);
    if (::access(binary.c_str(), X_OK) != 0) {
      return Status(StatusCode::kFailedPrecondition,
                    "worker binary not executable: " + binary +
                        " (build the asyncml_worker target or set "
                        "ASYNCML_WORKER_BIN)");
    }

    StatusOr<std::string> dir = make_socket_dir();
    if (!dir.is_ok()) return dir.status();
    socket_dir_ = dir.value();
    socket_path_ = socket_dir_ + "/wire.sock";
    StatusOr<ScopedFd> listened = listen_unix(socket_path_);
    if (!listened.is_ok()) return listened.status();
    const ScopedFd listener = std::move(listened).value();

    for (int w = 0; w < num_workers_; ++w) {
      if (Status s = spawn_worker(binary, w); !s.is_ok()) {
        cleanup_failed_start();
        return s;
      }
    }

    // Children connect concurrently and in any order; the kHello frame each
    // sends first names its worker id, so accept order never matters.
    std::vector<std::unique_ptr<SocketChannel>> channels(
        static_cast<std::size_t>(num_workers_));
    for (int i = 0; i < num_workers_; ++i) {
      Status s = accept_one(listener.get(), channels);
      if (!s.is_ok()) {
        cleanup_failed_start();
        return s;
      }
    }
    channels_ = std::move(channels);
    return Status::ok();
  }

  void stop() override {
    if (stopped_.exchange(true)) return;
    for (auto& ch : channels_) {
      if (ch != nullptr) ch->shutdown();
    }
    reap_children();
    remove_socket_dir();
  }

  Channel& channel(engine::WorkerId worker) override {
    return *channels_[static_cast<std::size_t>(worker)];
  }

  [[nodiscard]] Backend backend() const override { return config_.backend; }

  void kill_worker(engine::WorkerId worker) override {
    if (worker >= 0 && static_cast<std::size_t>(worker) < channels_.size() &&
        channels_[static_cast<std::size_t>(worker)] != nullptr) {
      channels_[static_cast<std::size_t>(worker)]->kill_peer();
    }
  }

 private:
  StatusOr<std::string> make_socket_dir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = (tmp != nullptr && *tmp != 0 ? std::string(tmp) : "/tmp");
    if (!tmpl.empty() && tmpl.back() == '/') tmpl.pop_back();
    tmpl += "/asyncml.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      return errno_status(StatusCode::kUnavailable, "mkdtemp");
    }
    return std::string(buf.data());
  }

  void remove_socket_dir() {
    if (!socket_path_.empty()) (void)::unlink(socket_path_.c_str());
    if (!socket_dir_.empty()) (void)::rmdir(socket_dir_.c_str());
    socket_path_.clear();
    socket_dir_.clear();
  }

  Status spawn_worker(const std::string& binary, int worker) {
    std::vector<std::string> args = {binary, "--uds", socket_path_, "--worker",
                                     std::to_string(worker), "--max-frame",
                                     std::to_string(config_.max_frame_bytes)};

    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    // posix_spawn, not fork: the driver is heavily multi-threaded and a
    // fork()ed child could inherit a held malloc lock.
    pid_t pid = -1;
    const int rc =
        ::posix_spawn(&pid, binary.c_str(), nullptr, nullptr, argv.data(), environ);
    if (rc != 0) {
      errno = rc;
      return errno_status(StatusCode::kUnavailable, "posix_spawn(asyncml_worker)");
    }
    pids_.push_back(pid);
    return Status::ok();
  }

  /// Accepts one connection and completes the hello exchange: the child
  /// speaks first (kHello naming its worker id), the driver acks.
  Status accept_one(int listener, std::vector<std::unique_ptr<SocketChannel>>& channels) {
    StatusOr<ScopedFd> accepted = accept_deadline(listener, config_.io_deadline_ms);
    if (!accepted.is_ok()) return accepted.status();
    ScopedFd fd = std::move(accepted).value();

    FrameDecoder decoder(config_.max_frame_bytes);
    std::vector<Frame> frames;
    std::array<std::uint8_t, 4096> buf;
    const auto deadline = deadline_after(config_.io_deadline_ms);
    std::size_t hello_bytes = 0;
    while (frames.empty()) {
      StatusOr<std::size_t> n =
          read_some(fd.get(), buf, std::max(0.0, static_cast<double>(remaining_poll_ms(deadline))));
      if (!n.is_ok()) return n.status();
      hello_bytes += n.value();
      if (Status s = decoder.feed({buf.data(), n.value()}, frames); !s.is_ok()) {
        return s;
      }
    }
    const Frame& hello = frames.front();
    if (frames.size() != 1 || hello.is_ack() || hello.kind() != FrameKind::kHello) {
      return Status(StatusCode::kUnavailable, "handshake: expected a kHello frame");
    }
    StatusOr<std::vector<std::uint8_t>> body = hello.message_bytes();
    if (!body.is_ok()) return body.status();
    HelloMsg msg;
    if (Status s = decode_hello(body.value(), msg); !s.is_ok()) return s;
    if (msg.protocol != kProtocolVersion) {
      return Status(StatusCode::kFailedPrecondition,
                    "handshake: protocol version mismatch");
    }
    if (msg.worker < 0 || msg.worker >= num_workers_ ||
        channels[static_cast<std::size_t>(msg.worker)] != nullptr) {
      return Status(StatusCode::kUnavailable, "handshake: bad or duplicate worker id");
    }

    HelloMsg ack_msg;
    ack_msg.worker = msg.worker;
    const std::vector<std::uint8_t> ack =
        encode_frame(ack_type(FrameKind::kHello), encode_hello(ack_msg));
    if (Status s = write_all(fd.get(), ack, config_.io_deadline_ms); !s.is_ok()) {
      return s;
    }
    if (metrics_ != nullptr) {
      metrics_->count_wire(engine::WireChannel::kControl, ack.size(), hello_bytes);
    }

    const pid_t pid = static_cast<std::size_t>(msg.worker) < pids_.size()
                          ? pids_[static_cast<std::size_t>(msg.worker)]
                          : -1;
    channels[static_cast<std::size_t>(msg.worker)] = std::make_unique<SocketChannel>(
        msg.worker, std::move(fd), pid, config_, metrics_);
    return Status::ok();
  }

  /// Waits briefly for children to exit on their own (they saw kShutdown or
  /// EOF), then SIGKILLs stragglers. Every child is reaped.
  void reap_children() {
    const auto deadline = deadline_after(2000.0);
    std::vector<pid_t> pending(pids_.begin(), pids_.end());
    while (!pending.empty() && Clock::now() < deadline) {
      for (std::size_t i = 0; i < pending.size();) {
        int status = 0;
        const pid_t rc = ::waitpid(pending[i], &status, WNOHANG);
        if (rc == pending[i] || (rc < 0 && errno == ECHILD)) {
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      if (pending.empty()) break;
      const timespec tick{0, 1'000'000};
      (void)::nanosleep(&tick, nullptr);
    }
    for (const pid_t pid : pending) {
      (void)::kill(pid, SIGKILL);
      int status = 0;
      (void)::waitpid(pid, &status, 0);
    }
    pids_.clear();
  }

  void cleanup_failed_start() {
    for (const pid_t pid : pids_) (void)::kill(pid, SIGKILL);
    reap_children();
    remove_socket_dir();
  }

  TransportConfig config_;
  int num_workers_;
  engine::ClusterMetrics* metrics_;
  std::vector<std::unique_ptr<SocketChannel>> channels_;
  std::vector<pid_t> pids_;
  std::string socket_dir_;
  std::string socket_path_;
  std::atomic<bool> stopped_{false};
};

}  // namespace

std::unique_ptr<Transport> make_socket_transport(const TransportConfig& config,
                                                 int num_workers,
                                                 engine::ClusterMetrics* metrics) {
  return std::make_unique<SocketTransport>(config, num_workers, metrics);
}

}  // namespace asyncml::transport
