#include "core/coordinator.hpp"

#include <algorithm>

#include "support/thread_util.hpp"

namespace asyncml::core {

Coordinator::Coordinator(engine::Cluster& cluster)
    : cluster_(cluster),
      stats_(static_cast<std::size_t>(cluster.num_workers())),
      inflight_versions_(static_cast<std::size_t>(cluster.num_workers())),
      task_time_ewma_(static_cast<std::size_t>(cluster.num_workers())) {
  for (int w = 0; w < cluster.num_workers(); ++w) {
    stats_[static_cast<std::size_t>(w)].id = w;
  }
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() {
  if (running_.exchange(true)) return;
  drain_thread_ = std::jthread([this] { drain_loop(); });
}

void Coordinator::stop() {
  if (!running_.exchange(false)) return;
  if (drain_thread_.joinable()) drain_thread_.join();
  results_.close();
  failures_.close();
}

void Coordinator::drain_loop() {
  support::set_current_thread_name("coordinator");
  while (running_.load(std::memory_order_acquire)) {
    // Swap out everything delivered since the last wakeup under one lock
    // (BlockingQueue::drain_for) instead of one mutex round-trip per
    // TaskResult; an empty batch means timeout or shutdown — re-check flag.
    auto batch = cluster_.results().drain_for(std::chrono::milliseconds(2));
    for (auto& result : batch) process_result(std::move(result));
  }
}

void Coordinator::process_result(engine::TaskResult result) {
  bool delivered = false;
  {
    std::lock_guard lock(stat_mutex_);

    // Excess detection BEFORE any STAT bookkeeping: an arrival from a worker
    // whose registration for this identity was already consumed — an injected
    // at-least-once duplicate (kDuplicateResult), or a written-off copy that
    // surfaced after all — carries no registration, so applying it would
    // corrupt `outstanding` and the inflight-version multiset, and deliver
    // the same update twice.
    const TaskKey key{result.partition, result.seq};
    const auto it = inflight_tasks_.find(key);
    bool excess = false;
    if (it != inflight_tasks_.end()) {
      const auto wit = it->second.copies.find(result.worker);
      excess = wit == it->second.copies.end() || wit->second <= 0;
    } else if (const auto last = last_accounted_seq_.find(result.partition);
               last != last_accounted_seq_.end()) {
      excess = result.seq <= last->second;
    }

    bool duplicate = excess;
    if (!excess) {
      apply_result_locked(result);

      // First-result-wins: a task registered per identity may have replicas
      // in flight (speculation, retries). Only the first OK result is
      // delivered; later arrivals — and failures of already-delivered tasks,
      // which need no retry — are dropped after their STAT bookkeeping.
      // A failure whose identity still has a live copy is dropped too: the
      // bit-identical replica covers the task, so a retry would be a wasted
      // third dispatch (and would burn the shared retry budget). If the
      // surviving copy also fails, its failure arrives with no copies left
      // and re-arms the retry path.
      if (it != inflight_tasks_.end()) {
        InflightTask& entry = it->second;
        if (entry.delivered) {
          duplicate = true;
        } else if (result.ok()) {
          entry.delivered = true;
        } else if (entry.copies.size() > 1 ||
                   entry.copies.at(result.worker) > 1) {
          duplicate = true;  // a live replica still covers this identity
        }
        consume_copy_locked(it, result.worker);
      }
    }

    // Results are queued under the lock, in the same critical section that
    // drops their task from `outstanding`: a reader that sees
    // total_outstanding() == 0 && !has_next() then knows nothing is in
    // flight. Both queues are unbounded, so the push never blocks.
    if (duplicate) {
      duplicates_dropped_.fetch_add(1, std::memory_order_relaxed);
      cluster_.metrics().duplicate_results.add(1);
    } else if (result.ok()) {
      TaggedResult tagged;
      const engine::Version now = current_version();
      WorkerStat row = stats_[static_cast<std::size_t>(result.worker)];
      row.result_staleness = now - row.last_result_version;
      row.task_staleness =
          row.ever_dispatched ? now - row.last_dispatch_version : 0;
      tagged.staleness = now >= result.model_version ? now - result.model_version : 0;
      tagged.worker = row;
      // Telemetry staleness uses the same definition, recorded before the
      // result becomes collectable so a report counts every delivered result.
      if (cluster_.telemetry().enabled()) {
        cluster_.telemetry().record_staleness(tagged.staleness);
      }
      tagged.result = std::move(result);
      results_.push(std::move(tagged));
      delivered = true;
    } else {
      failures_.push(std::move(result));
    }
  }
  // Harvest cycle: the coordinator's drain thread is the consumer side of the
  // telemetry rings — every harvest_every-th delivered result drains the
  // per-thread rings, off the timed solver path and outside the STAT lock.
  if (delivered && cluster_.telemetry().enabled()) {
    cluster_.telemetry().on_result_processed();
  }
}

void Coordinator::apply_result_locked(const engine::TaskResult& r) {
  WorkerStat& row = stats_[static_cast<std::size_t>(r.worker)];
  row.outstanding = std::max(0, row.outstanding - 1);
  row.available = row.outstanding == 0;
  auto& inflight = inflight_versions_[static_cast<std::size_t>(r.worker)];
  if (const auto it = inflight.find(r.model_version); it != inflight.end()) {
    inflight.erase(it);  // exactly one instance: this task's pin is released
  }
  fill_min_outstanding_locked(row);
  if (r.ok()) {
    row.tasks_completed += 1;
    // OK results only: failures carry no real service time — an injected
    // fault or a crash-synthesized bounce reports ~0 ms, which would drag
    // the EWMA that steers stealing and speculation toward zero and make a
    // faulty worker look infinitely fast.
    auto& ewma = task_time_ewma_[static_cast<std::size_t>(r.worker)];
    ewma.observe(r.service_ms);
    row.avg_task_ms = ewma.value();
    row.mean_task_ms = ewma.mean();
  } else {
    row.tasks_failed += 1;
  }
  row.last_result_version = r.model_version;
}

void Coordinator::consume_copy_locked(std::map<TaskKey, InflightTask>::iterator it,
                                      engine::WorkerId worker) {
  InflightTask& entry = it->second;
  const auto wit = entry.copies.find(worker);
  if (wit != entry.copies.end() && --wit->second <= 0) entry.copies.erase(wit);
  if (entry.copies.empty()) {
    std::uint64_t& floor = last_accounted_seq_[it->first.first];
    floor = std::max(floor, it->first.second);
    inflight_tasks_.erase(it);
  }
}

void Coordinator::unwind_dispatch_locked(engine::WorkerId worker,
                                         engine::Version version) {
  WorkerStat& row = stats_[static_cast<std::size_t>(worker)];
  row.outstanding = std::max(0, row.outstanding - 1);
  row.available = row.outstanding == 0;
  auto& inflight = inflight_versions_[static_cast<std::size_t>(worker)];
  if (const auto it = inflight.find(version); it != inflight.end()) {
    inflight.erase(it);
  }
  fill_min_outstanding_locked(row);
}

StatSnapshot Coordinator::stat() const {
  StatSnapshot snap;
  std::lock_guard lock(stat_mutex_);
  snap.current_version = current_version();
  snap.workers = stats_;
  for (WorkerStat& row : snap.workers) {
    // Staleness fields are derived at snapshot time so they reflect the
    // *current* version, not the version when the row last changed.
    row.result_staleness =
        row.tasks_completed > 0 ? snap.current_version - row.last_result_version : 0;
    row.task_staleness =
        row.ever_dispatched ? snap.current_version - row.last_dispatch_version : 0;
  }
  return snap;
}

std::optional<TaggedResult> Coordinator::collect_for(std::chrono::milliseconds timeout) {
  return results_.pop_for(timeout);
}

std::optional<TaggedResult> Coordinator::collect() { return results_.pop(); }

std::optional<TaggedResult> Coordinator::try_collect() { return results_.try_pop(); }

std::optional<engine::TaskResult> Coordinator::try_collect_failure() {
  return failures_.try_pop();
}

int Coordinator::total_outstanding() const {
  std::lock_guard lock(stat_mutex_);
  int total = 0;
  for (const WorkerStat& row : stats_) total += row.outstanding;
  return total;
}

int Coordinator::outstanding(engine::WorkerId worker) const {
  std::lock_guard lock(stat_mutex_);
  return stats_[static_cast<std::size_t>(worker)].outstanding;
}

void Coordinator::on_task_dispatch(engine::WorkerId worker,
                                   const engine::TaskSpec& spec) {
  std::lock_guard lock(stat_mutex_);
  register_dispatch_locked(worker, spec.model_version);
  inflight_tasks_[TaskKey{spec.partition, spec.seq}].copies[worker] += 1;
}

bool Coordinator::try_register_replica(engine::WorkerId worker,
                                       const engine::TaskSpec& spec) {
  std::lock_guard lock(stat_mutex_);
  const auto it = inflight_tasks_.find(TaskKey{spec.partition, spec.seq});
  if (it == inflight_tasks_.end() || it->second.delivered ||
      it->second.copies.empty()) {
    return false;  // original already accounted: a replica would double-deliver
  }
  it->second.copies[worker] += 1;
  register_dispatch_locked(worker, spec.model_version);
  return true;
}

void Coordinator::on_dispatch_aborted(engine::WorkerId worker,
                                      const engine::TaskSpec& spec) {
  std::lock_guard lock(stat_mutex_);
  unwind_dispatch_locked(worker, spec.model_version);
  if (const auto it = inflight_tasks_.find(TaskKey{spec.partition, spec.seq});
      it != inflight_tasks_.end()) {
    consume_copy_locked(it, worker);
  }
}

bool Coordinator::try_write_off(engine::WorkerId worker,
                                const engine::TaskSpec& spec) {
  std::lock_guard lock(stat_mutex_);
  const auto it = inflight_tasks_.find(TaskKey{spec.partition, spec.seq});
  if (it == inflight_tasks_.end()) return false;
  const auto wit = it->second.copies.find(worker);
  if (wit == it->second.copies.end() || wit->second <= 0) {
    return false;  // that copy's result already arrived: nothing to write off
  }
  unwind_dispatch_locked(worker, spec.model_version);
  consume_copy_locked(it, worker);
  return true;
}

void Coordinator::register_dispatch_locked(engine::WorkerId worker,
                                           engine::Version version) {
  WorkerStat& row = stats_[static_cast<std::size_t>(worker)];
  row.outstanding += 1;
  row.available = false;
  row.last_dispatch_version = version;
  row.ever_dispatched = true;
  inflight_versions_[static_cast<std::size_t>(worker)].insert(version);
  fill_min_outstanding_locked(row);
}

void Coordinator::fill_min_outstanding_locked(WorkerStat& row) const {
  const auto& inflight = inflight_versions_[static_cast<std::size_t>(row.id)];
  row.min_outstanding_version = inflight.empty() ? 0 : *inflight.begin();
}

}  // namespace asyncml::core
