#include "engine/worker.hpp"

#include <optional>

#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_util.hpp"
#include "telemetry/recorder.hpp"
#include "transport/transport.hpp"

namespace asyncml::engine {

using support::Clock;
using support::Status;
using support::StatusCode;

namespace {

std::uint64_t ns_between(support::TimePoint from, support::TimePoint to) {
  return to > from ? static_cast<std::uint64_t>((to - from).count()) : 0;
}

std::uint64_t ms_to_ns(double ms) {
  return ms > 0.0 ? static_cast<std::uint64_t>(ms * 1e6) : 0;
}

}  // namespace

Worker::Worker(WorkerId id, int cores, Deps deps)
    : id_(id),
      deps_(deps),
      cache_(deps.store, deps.network, deps.metrics, deps.channel) {
  threads_.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    threads_.emplace_back([this, c] { executor_loop(c); });
  }
}

Worker::~Worker() { stop(); }

bool Worker::submit(TaskSpec spec) {
  if (deps_.metrics != nullptr) deps_.metrics->task_messages.add(1);
  return mailbox_.push(std::move(spec));
}

bool Worker::alive() const noexcept {
  if (dead_.load(std::memory_order_acquire)) return false;
  return deps_.channel->alive();
}

void Worker::stop() {
  mailbox_.close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void Worker::bounce(const TaskSpec& spec) {
  TaskResult result;
  result.id = spec.id;
  result.worker = id_;
  result.partition = spec.partition;
  result.seq = spec.seq;
  result.model_version = spec.model_version;
  result.status = Status(StatusCode::kUnavailable, "worker crashed");
  result.finished_at = Clock::now();
  if (deps_.metrics != nullptr) deps_.metrics->tasks_failed.add(1);
  deps_.results->push(std::move(result));
}

void Worker::executor_loop(int core) {
  support::set_current_thread_name("worker-" + std::to_string(id_));
  WorkerEnv env{id_, &cache_, deps_.metrics};
  set_current_worker_env(&env);

  // Wait-time bookkeeping is per executor thread: "wait" is the stretch from
  // pushing a result to dequeuing the next task (the paper's definition).
  std::optional<support::TimePoint> last_submit;

  while (auto msg = mailbox_.pop()) {
    TaskSpec spec = std::move(*msg);

    // Fail-stop: a dead worker computes nothing; every dequeued task bounces
    // straight back as a transport-level failure (no sleeps, no side effects).
    // A dead wire (killed peer process, I/O failure) is the same condition
    // discovered from the other end.
    if (!deps_.channel->alive()) dead_.store(true, std::memory_order_release);
    if (dead_.load(std::memory_order_acquire)) {
      bounce(spec);
      continue;
    }

    const auto received = Clock::now();
    if (last_submit.has_value() && deps_.metrics != nullptr) {
      deps_.metrics->record_wait(
          id_, static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(received -
                                                                        *last_submit)
                       .count()));
    }

    // Telemetry gate: one relaxed atomic load per task when disabled; every
    // trace touch below sits behind `traced`.
    telemetry::TelemetryRecorder* const recorder = deps_.telemetry;
    const bool traced = recorder != nullptr && recorder->enabled();
    telemetry::TaskTrace trace;
    if (traced && spec.enqueued_at.time_since_epoch().count() != 0) {
      trace.charge(telemetry::Stage::kQueueWait,
                   ns_between(spec.enqueued_at, received));
    }

    // Injected queue-stage stall (the task sat in the mailbox "longer").
    std::uint64_t queue_fault_ns = 0;
    if (deps_.faults != nullptr) {
      const double queue_ms =
          deps_.faults->stage_delay_ms(FaultStage::kQueue, id_, spec);
      if (queue_ms > 0.0) {
        support::precise_sleep_ms(queue_ms);
        // Attributed to queue-wait: the fault models a task that sat in the
        // mailbox longer, and kept out of the dequeue-delay window below.
        queue_fault_ns = ms_to_ns(queue_ms);
        if (traced) trace.charge(telemetry::Stage::kQueueWait, queue_fault_ns);
      }
    }

    // Crash point: fires at dequeue, before any work — stateful closures
    // (SAGA's version table) are never half-applied by a crash.
    if (deps_.faults != nullptr && deps_.faults->should_crash(id_, spec)) {
      if (!dead_.exchange(true, std::memory_order_acq_rel)) {
        deps_.faults->count_crash();
      }
      bounce(spec);
      continue;
    }

    TaskResult result;
    result.id = spec.id;
    result.worker = id_;
    result.partition = spec.partition;
    result.seq = spec.seq;
    result.model_version = spec.model_version;

    // One-time data-migration charge (stolen partition or speculative
    // replica): the partition's rows travel before the task can start.
    // Charged outside the service stopwatch so it never pollutes the EWMA
    // service times that steer stealing and speculation.
    if (spec.migration_ms > 0.0) {
      support::precise_sleep_ms(spec.migration_ms);
    }

    support::Stopwatch watch;
    if (traced) {
      // Pickup -> task start: scheduling/migration latency on this side of
      // the mailbox. The injected queue stall was charged to queue-wait
      // above, so it is excluded here.
      const std::uint64_t since_pickup = ns_between(received, watch.start());
      trace.set(telemetry::Stage::kDequeueDelay,
                since_pickup > queue_fault_ns ? since_pickup - queue_fault_ns
                                              : 0);
    }
    if (deps_.faults != nullptr && deps_.faults->should_fail_task(id_, spec)) {
      result.status = Status(StatusCode::kInternal, "injected fault");
    } else if (!spec.fn) {
      result.status = Status(StatusCode::kInvalidArgument, "task has no function");
    } else {
      TaskContext ctx;
      ctx.worker = id_;
      ctx.partition = spec.partition;
      ctx.seq = spec.seq;
      ctx.rng = support::RngStream(spec.rng_seed)
                    .substream(static_cast<std::uint64_t>(spec.partition) + 1)
                    .substream(spec.seq);
      // The task function materializes the model and wraps the payload deep
      // inside store/optim code; the thread-local hook lets those callees
      // charge kModelFetch/kSerialize without a recorder parameter.
      if (traced) telemetry::set_active_trace(&trace);
      try {
        auto out = (*spec.fn)(ctx);
        if (out.is_ok()) {
          result.payload = std::move(out).value();
        } else {
          result.status = out.status();
        }
      } catch (const std::exception& e) {
        result.status = Status(StatusCode::kInternal, std::string("task threw: ") + e.what());
      } catch (...) {
        result.status = Status(StatusCode::kInternal, "task threw unknown exception");
      }
      if (traced) telemetry::set_active_trace(nullptr);
      // Injected compute-stage stall lands inside the measured task time.
      if (deps_.faults != nullptr) {
        const double compute_ms =
            deps_.faults->stage_delay_ms(FaultStage::kCompute, id_, spec);
        if (compute_ms > 0.0) support::precise_sleep_ms(compute_ms);
      }
    }
    result.compute_ms = watch.elapsed_ms();
    if (traced) {
      // Compute = task-function time minus what the hook attributed to model
      // fetch and in-function serialization, so the three stages partition
      // compute_ms exactly (the reconciliation invariant tests rely on).
      const std::uint64_t fn_ns = ms_to_ns(result.compute_ms);
      const std::uint64_t inner = trace.ns(telemetry::Stage::kModelFetch) +
                                  trace.ns(telemetry::Stage::kSerialize);
      trace.set(telemetry::Stage::kCompute, fn_ns > inner ? fn_ns - inner : 0);
    }

    // Pad to the straggler-scaled service floor: this is where a slow machine
    // becomes slow. Computed *after* the real work so fast math on scaled-down
    // data still yields paper-shaped service times.
    const double multiplier =
        deps_.delay != nullptr ? deps_.delay->multiplier(id_, spec.seq) : 1.0;
    const double target_ms = spec.service_floor_ms * multiplier;
    if (target_ms > result.compute_ms) {
      support::precise_sleep_ms(target_ms - result.compute_ms);
    }
    result.service_ms = watch.elapsed_ms();
    if (traced) {
      trace.set(telemetry::Stage::kServicePad,
                ms_to_ns(result.service_ms - result.compute_ms));
    }

    // Injected serialize-stage stall: after compute, before the wire.
    if (deps_.faults != nullptr) {
      const double serialize_ms =
          deps_.faults->stage_delay_ms(FaultStage::kSerialize, id_, spec);
      if (serialize_ms > 0.0) {
        support::precise_sleep_ms(serialize_ms);
        if (traced) {
          trace.charge(telemetry::Stage::kSerialize, ms_to_ns(serialize_ms));
        }
      }
    }

    // Ship the result over the worker's wire and charge the transfer (plus
    // any injected network-stage stall — FaultStage::kNetwork/kResultChannel
    // — which by contract lands in the result-channel segment and stays a
    // local sleep on every backend). The in-process channel hands back the
    // modeled transfer to sleep; socket channels spend real wall time on the
    // round trip and return the decoded echo, which is what the driver
    // consumes. A failed ship means the result never left the machine:
    // fail-stop, synthesized kUnavailable.
    double transfer_ms = 0.0;
    std::uint64_t wire_ns = 0;
    support::StatusOr<transport::ShipReceipt> shipped =
        deps_.channel->ship_result(result);
    if (shipped.is_ok()) {
      transfer_ms += shipped.value().charge_ms;
      wire_ns = shipped.value().wire_ns;
      result = std::move(shipped.value().result);
    } else {
      dead_.store(true, std::memory_order_release);
      result.status = Status(StatusCode::kUnavailable, "worker crashed");
      result.payload = Payload();
    }
    if (deps_.faults != nullptr) {
      transfer_ms += deps_.faults->stage_delay_ms(FaultStage::kNetwork, id_, spec);
    }
    if (transfer_ms > 0.0) {
      support::precise_sleep_ms(transfer_ms);
    }
    if (traced && (transfer_ms > 0.0 || wire_ns > 0)) {
      trace.charge(telemetry::Stage::kResultChannel,
                   ms_to_ns(transfer_ms) + wire_ns);
    }

    // A sibling executor may have crashed this worker while we were mid-task:
    // fail-stop means our result never made it off the machine either.
    if (dead_.load(std::memory_order_acquire)) {
      result.status = Status(StatusCode::kUnavailable, "worker crashed");
      result.payload = Payload();
    }

    if (deps_.metrics != nullptr) {
      if (result.ok()) {
        deps_.metrics->tasks_completed.add(1);
        // Completed tasks only: the mean divides by tasks_completed, so
        // compute burnt by failed attempts must not inflate it.
        deps_.metrics->task_compute_ns.add(
            static_cast<std::uint64_t>(result.compute_ms * 1e6));
      } else {
        deps_.metrics->tasks_failed.add(1);
      }
      deps_.metrics->result_bytes.add(result.payload.bytes());
    }

    // Permanent non-delivery: the task ran, the result vanishes in flight.
    // Only a speculative replica (or presumed-lost re-speculation) recovers
    // it. Crash-synthesized failures are never dropped — they ARE the
    // delivery-failure notification.
    const bool alive = !dead_.load(std::memory_order_acquire);
    if (alive && deps_.faults != nullptr &&
        deps_.faults->should_drop_result(id_, spec)) {
      last_submit = Clock::now();
      continue;
    }

    const bool duplicate = alive && deps_.faults != nullptr &&
                           deps_.faults->should_duplicate_result(id_, spec);

    // Delivered, successful results only: the trace partitions compute_ms,
    // and task_compute_ns counts completed tasks — recording failures would
    // break the sums-reconcile invariant the telemetry tests pin.
    if (traced && result.ok()) {
      trace.worker = id_;
      trace.partition = spec.partition;
      trace.seq = spec.seq;
      trace.model_version = spec.model_version;
      recorder->record(static_cast<std::size_t>(id_),
                       static_cast<std::size_t>(core), trace);
    }

    result.finished_at = Clock::now();
    if (duplicate) {
      TaskResult copy = result;  // payload is shared_ptr-backed, cheap to copy
      deps_.results->push(std::move(copy));
    }
    deps_.results->push(std::move(result));
    last_submit = Clock::now();
  }

  set_current_worker_env(nullptr);
}

}  // namespace asyncml::engine
