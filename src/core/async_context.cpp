#include "core/async_context.hpp"

#include <utility>

namespace asyncml::core {

AsyncContext::AsyncContext(engine::Cluster& cluster, int num_partitions,
                           store::StoreConfig store_config)
    : cluster_(cluster),
      coordinator_(cluster),
      scheduler_(cluster, coordinator_),
      store_(std::make_shared<store::ModelStore>(&cluster.store(), std::move(store_config),
                                                 &cluster.metrics().disk,
                                                 cluster.faults())) {
  // Workers with a kJoinWorker fault event start outside the member set:
  // they own no partitions and receive no dispatch until poll_membership
  // admits them at their join version (engine/fault.hpp).
  if (auto* faults = cluster.faults(); faults != nullptr) {
    std::vector<bool> members(static_cast<std::size_t>(cluster.num_workers()), true);
    bool any_dormant = false;
    for (int w = 0; w < cluster.num_workers(); ++w) {
      if (faults->starts_dormant(w)) {
        members[static_cast<std::size_t>(w)] = false;
        any_dormant = true;
      }
    }
    if (any_dormant) scheduler_.set_members(std::move(members));
  }
  scheduler_.set_num_partitions(num_partitions);
}

void AsyncContext::restore(engine::Version version, std::uint64_t round) {
  coordinator_.restore_version(version);
  scheduler_.resume_round(round);
  if (store_->disk_enabled()) {
    if (support::Status s = store_->restore_from_disk(version); !s.is_ok()) {
      std::fprintf(stderr,
                   "AsyncContext::restore: disk tier resume failed: %s\n",
                   s.to_string().c_str());
      std::abort();
    }
  }
}

std::optional<TaggedResult> AsyncContext::collect(
    const AsyncScheduler::TaskFactory* retry_factory) {
  using namespace std::chrono_literals;
  int idle_ms = 0;
  for (;;) {
    // Membership and speculation ride the collect loop: this is the driver's
    // only resident spot, and it is exactly where a BSP-style round sits
    // blocked on a straggler (or a crashed worker's never-arriving result).
    poll_membership();
    scheduler_.maybe_speculate();

    // Failures are set aside by the coordinator; resubmit them so a failed
    // task does not leave us blocked waiting for a result that never comes.
    while (auto failed = coordinator_.try_collect_failure()) {
      if (retry_factory == nullptr) {
        std::fprintf(stderr,
                     "AsyncContext::collect: task failed with no retry factory: %s\n",
                     failed->status.to_string().c_str());
        std::abort();
      }
      if (++retries_ > kMaxRetriesTotal) {
        std::fprintf(stderr, "AsyncContext::collect: retry budget exhausted\n");
        std::abort();
      }
      scheduler_.resubmit(*failed, *retry_factory);
    }
    // The one timed wait: short, so speculation and membership are polled
    // while a straggler holds the round.
    auto collected = coordinator_.collect_for(2ms);
    if (collected.has_value()) {
      scheduler_.on_result_collected(collected->result.partition);
      // Anchor for the driver-side accumulate segment: everything between
      // this return and the next publish is solver accumulation work.
      if (cluster_.telemetry().enabled()) {
        last_collect_return_ = support::Clock::now();
      }
      return collected;
    }
    if (cluster_.results().closed()) return std::nullopt;

    // Deadlock guard: nothing queued, nothing in flight, and nothing arriving
    // means no dispatch will ever reopen — a barrier configured so that its
    // gate can never pass again. Fail loudly instead of hanging.
    if (coordinator_.total_outstanding() == 0 && !coordinator_.has_next()) {
      idle_ms += 2;
      if (idle_ms > 2000) {
        std::fprintf(stderr,
                     "AsyncContext::collect: no tasks in flight and no results for 2s "
                     "— barrier gate wedged shut? (%s)\n",
                     coordinator_.stat().to_string().c_str());
        std::abort();
      }
    } else {
      idle_ms = 0;
    }
  }
}

void AsyncContext::poll_membership() {
  // Joins are FaultPlan-driven, but deaths are not: a worker can die for
  // real (the transport's wire process SIGKILLed or disconnected) on a run
  // with no fault plan at all, and its partitions must still fail over.
  auto* faults = cluster_.faults();
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    if (!scheduler_.is_member(w)) {
      // Dormant worker: admit once the model version reaches its join point
      // (it must still be alive — a crash event can precede the join).
      if (faults == nullptr) continue;
      const auto join = faults->join_version(w);
      if (join.has_value() && coordinator_.current_version() >= *join &&
          cluster_.worker_alive(w)) {
        scheduler_.admit_worker(w);
      }
    } else if (!cluster_.worker_alive(w)) {
      scheduler_.handle_worker_death(w);
    }
  }
  // A joiner admitted while partitions were busy is still below its fair
  // share; keep topping it up as results free partitions.
  scheduler_.rebalance_joiners();
}

HistoryBroadcast AsyncContext::async_broadcast(const linalg::DenseVector& w) {
  const engine::Version version = coordinator_.current_version();
  auto& recorder = cluster_.telemetry();
  if (!recorder.enabled()) {
    store_->publish(w, version);
    return HistoryBroadcast(store_, version);
  }
  // Driver-side segments, one observation per update: accumulate = collect
  // return -> publish start (the solver's apply/step work), then the publish
  // itself as broadcast-publish.
  const support::TimePoint publish_start = support::Clock::now();
  if (last_collect_return_.time_since_epoch().count() != 0 &&
      publish_start > last_collect_return_) {
    recorder.charge_driver(
        telemetry::Stage::kAccumulate,
        static_cast<std::uint64_t>(
            (publish_start - last_collect_return_).count()));
    last_collect_return_ = support::TimePoint{};
  }
  store_->publish(w, version);
  recorder.charge_driver(
      telemetry::Stage::kBroadcastPublish,
      static_cast<std::uint64_t>(
          (support::Clock::now() - publish_start).count()));
  recorder.note_update();
  return HistoryBroadcast(store_, version);
}

}  // namespace asyncml::core
