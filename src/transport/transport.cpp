#include "transport/transport.hpp"

#include <atomic>
#include <utility>
#include <vector>

#include "transport/socket.hpp"

namespace asyncml::transport {

using support::Status;
using support::StatusCode;
using support::StatusOr;

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kInProcess: return "in-process";
    case Backend::kUnixSocket: return "unix-socket";
  }
  return "unknown";
}

namespace {

// The deterministic reference backend. No bytes move: ships hand the value
// straight back and report the NetworkModel charge for the caller to sleep,
// so an in-process run is bit-identical to the pre-seam engine. Wire
// counters record the *charged* (modeled) bytes with a zero-byte ack.
class InProcessChannel final : public Channel {
 public:
  InProcessChannel(engine::WorkerId worker, const engine::NetworkModel* network,
                   engine::ClusterMetrics* metrics)
      : worker_(worker), network_(network), metrics_(metrics) {}

  Status ship_task(engine::TaskSpec& spec) override {
    (void)spec;  // nothing serialized; the spec is already the decoded form
    if (dead_.load(std::memory_order_acquire)) {
      return Status(StatusCode::kUnavailable, "in-process channel killed");
    }
    if (metrics_ != nullptr) metrics_->count_wire(engine::WireChannel::kTask, 0, 0);
    return Status::ok();
  }

  StatusOr<ShipReceipt> ship_result(engine::TaskResult result) override {
    if (dead_.load(std::memory_order_acquire)) {
      return Status(StatusCode::kUnavailable, "in-process channel killed");
    }
    const std::size_t bytes = result.payload.bytes();
    if (metrics_ != nullptr) {
      metrics_->count_wire(engine::WireChannel::kResult, bytes, 0);
    }
    ShipReceipt receipt;
    // Payload-less results (failed tasks) transfer nothing — matching the
    // channel-less legacy path exactly, latency term included.
    receipt.charge_ms = network_ != nullptr && result.payload.has_value()
                            ? network_->transfer_ms(bytes)
                            : 0.0;
    receipt.result = std::move(result);
    return receipt;
  }

  StatusOr<FetchReceipt> fetch_payload(const engine::Payload& payload,
                                       engine::BroadcastClass cls) override {
    (void)cls;
    if (dead_.load(std::memory_order_acquire)) {
      return Status(StatusCode::kUnavailable, "in-process channel killed");
    }
    const std::size_t bytes = payload.bytes();
    if (metrics_ != nullptr) {
      metrics_->count_wire(engine::WireChannel::kModel, bytes, 0);
    }
    FetchReceipt receipt;
    receipt.charge_ms = network_ != nullptr ? network_->transfer_ms(bytes) : 0.0;
    receipt.payload = payload;
    return receipt;
  }

  [[nodiscard]] bool alive() const override {
    return !dead_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool is_wire() const override { return false; }
  [[nodiscard]] engine::WorkerId worker() const override { return worker_; }

  void kill() { dead_.store(true, std::memory_order_release); }

 private:
  engine::WorkerId worker_;
  const engine::NetworkModel* network_;
  engine::ClusterMetrics* metrics_;
  std::atomic<bool> dead_{false};
};

class InProcessTransport final : public Transport {
 public:
  InProcessTransport(int num_workers, const engine::NetworkModel* network,
                     engine::ClusterMetrics* metrics) {
    channels_.reserve(static_cast<std::size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      channels_.push_back(std::make_unique<InProcessChannel>(w, network, metrics));
    }
  }

  Status start() override { return Status::ok(); }
  void stop() override {}

  Channel& channel(engine::WorkerId worker) override {
    return *channels_[static_cast<std::size_t>(worker)];
  }

  [[nodiscard]] Backend backend() const override { return Backend::kInProcess; }

  void kill_worker(engine::WorkerId worker) override {
    if (worker >= 0 && static_cast<std::size_t>(worker) < channels_.size()) {
      channels_[static_cast<std::size_t>(worker)]->kill();
    }
  }

 private:
  std::vector<std::unique_ptr<InProcessChannel>> channels_;
};

}  // namespace

std::unique_ptr<Transport> make_transport(const TransportConfig& config,
                                          int num_workers,
                                          const engine::NetworkModel* network,
                                          engine::ClusterMetrics* metrics) {
  if (config.backend == Backend::kInProcess) {
    return std::make_unique<InProcessTransport>(num_workers, network, metrics);
  }
  return make_socket_transport(config, num_workers, metrics);
}

}  // namespace asyncml::transport
