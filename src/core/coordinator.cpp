#include "core/coordinator.hpp"

#include <algorithm>

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

void Coordinator::poll() {
  for (auto& result : cluster_.results().drain()) process_result(std::move(result));
}

void Coordinator::process_result(engine::TaskResult result) {
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
    apply_result(result);

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
      } else if (entry.copies.size() > 1 || entry.copies.at(result.worker) > 1) {
        duplicate = true;  // a live replica still covers this identity
      }
      consume_copy(it, result.worker);
    }
  }

  if (duplicate) {
    ++duplicates_dropped_;
    cluster_.metrics().duplicate_results.add(1);
  } else if (!result.ok()) {
    failed_.push_back(std::move(result));
  } else {
    ready_.push_back(std::move(result));
    // Harvest cycle: the driver is the consumer side of the telemetry
    // rings — every harvest_every-th delivered result drains the
    // per-thread rings, between two updates.
    if (cluster_.telemetry().enabled()) cluster_.telemetry().on_result_processed();
  }
}

std::optional<TaggedResult> Coordinator::take_next() {
  if (ready_.empty()) return std::nullopt;
  const auto worker = static_cast<std::size_t>(ready_.front().worker);
  TaggedResult tagged{std::move(ready_.front()), 0, stats_[worker]};
  ready_.pop_front();
  const engine::Version version = tagged.result.model_version;
  tagged.staleness = version_ >= version ? version_ - version : 0;
  fill_staleness(tagged.worker);
  // Telemetry staleness uses the same definition, one record per collected
  // result.
  if (cluster_.telemetry().enabled()) {
    cluster_.telemetry().record_staleness(tagged.staleness);
  }
  return tagged;
}

void Coordinator::apply_result(const engine::TaskResult& r) {
  WorkerStat& row = stats_[static_cast<std::size_t>(r.worker)];
  row.outstanding = std::max(0, row.outstanding - 1);
  row.available = row.outstanding == 0;
  auto& inflight = inflight_versions_[static_cast<std::size_t>(r.worker)];
  if (const auto it = inflight.find(r.model_version); it != inflight.end()) {
    inflight.erase(it);  // exactly one instance: this task's pin is released
  }
  fill_min_outstanding(row);
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

void Coordinator::consume_copy(std::map<TaskKey, InflightTask>::iterator it,
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

void Coordinator::unwind_dispatch(engine::WorkerId worker, engine::Version version) {
  WorkerStat& row = stats_[static_cast<std::size_t>(worker)];
  row.outstanding = std::max(0, row.outstanding - 1);
  row.available = row.outstanding == 0;
  auto& inflight = inflight_versions_[static_cast<std::size_t>(worker)];
  if (const auto it = inflight.find(version); it != inflight.end()) {
    inflight.erase(it);
  }
  fill_min_outstanding(row);
}

StatSnapshot Coordinator::stat() const {
  StatSnapshot snap;
  snap.current_version = current_version();
  snap.workers = stats_;
  // Staleness fields are derived at snapshot time so they reflect the
  // *current* version, not the version when the row last changed.
  for (WorkerStat& row : snap.workers) fill_staleness(row);
  return snap;
}

void Coordinator::fill_staleness(WorkerStat& row) const {
  row.result_staleness =
      row.tasks_completed > 0 ? version_ - row.last_result_version : 0;
  row.task_staleness = row.ever_dispatched ? version_ - row.last_dispatch_version : 0;
}

bool Coordinator::has_next() {
  poll();
  return !ready_.empty();
}

std::optional<TaggedResult> Coordinator::collect_for(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (ready_.empty() && failed_.empty()) {
    auto batch =
        cluster_.results().drain_for(deadline - std::chrono::steady_clock::now());
    if (batch.empty()) break;  // timed out, or the channel is shut
    for (auto& result : batch) process_result(std::move(result));
  }
  return take_next();
}

std::optional<TaggedResult> Coordinator::try_collect() {
  poll();
  return take_next();
}

std::optional<engine::TaskResult> Coordinator::try_collect_failure() {
  poll();
  if (failed_.empty()) return std::nullopt;
  engine::TaskResult failed = std::move(failed_.front());
  failed_.pop_front();
  return failed;
}

int Coordinator::total_outstanding() const {
  int total = 0;
  for (const WorkerStat& row : stats_) total += row.outstanding;
  return total;
}

int Coordinator::outstanding(engine::WorkerId worker) const {
  return stats_[static_cast<std::size_t>(worker)].outstanding;
}

void Coordinator::on_task_dispatch(engine::WorkerId worker,
                                   const engine::TaskSpec& spec) {
  register_dispatch(worker, spec.model_version);
  inflight_tasks_[TaskKey{spec.partition, spec.seq}].copies[worker] += 1;
}

bool Coordinator::try_register_replica(engine::WorkerId worker,
                                       const engine::TaskSpec& spec) {
  const auto it = inflight_tasks_.find(TaskKey{spec.partition, spec.seq});
  if (it == inflight_tasks_.end() || it->second.delivered ||
      it->second.copies.empty()) {
    return false;  // original already accounted: a replica would double-deliver
  }
  it->second.copies[worker] += 1;
  register_dispatch(worker, spec.model_version);
  return true;
}

void Coordinator::on_dispatch_aborted(engine::WorkerId worker,
                                      const engine::TaskSpec& spec) {
  unwind_dispatch(worker, spec.model_version);
  if (const auto it = inflight_tasks_.find(TaskKey{spec.partition, spec.seq});
      it != inflight_tasks_.end()) {
    consume_copy(it, worker);
  }
}

bool Coordinator::try_write_off(engine::WorkerId worker,
                                const engine::TaskSpec& spec) {
  const auto it = inflight_tasks_.find(TaskKey{spec.partition, spec.seq});
  if (it == inflight_tasks_.end()) return false;
  const auto wit = it->second.copies.find(worker);
  if (wit == it->second.copies.end() || wit->second <= 0) {
    return false;  // that copy's result already arrived: nothing to write off
  }
  unwind_dispatch(worker, spec.model_version);
  consume_copy(it, worker);
  return true;
}

void Coordinator::register_dispatch(engine::WorkerId worker, engine::Version version) {
  WorkerStat& row = stats_[static_cast<std::size_t>(worker)];
  row.outstanding += 1;
  row.available = false;
  row.last_dispatch_version = version;
  row.ever_dispatched = true;
  inflight_versions_[static_cast<std::size_t>(worker)].insert(version);
  fill_min_outstanding(row);
}

void Coordinator::fill_min_outstanding(WorkerStat& row) const {
  const auto& inflight = inflight_versions_[static_cast<std::size_t>(row.id)];
  row.min_outstanding_version = inflight.empty() ? 0 : *inflight.begin();
}

}  // namespace asyncml::core
