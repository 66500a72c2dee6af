#include "core/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "data/partition.hpp"

namespace asyncml::core {

namespace {

/// Hysteresis for stealing: a move must shrink the victim's estimated drain
/// time to below 1/kStealMargin of its current value relative to the
/// thief's.
constexpr double kStealMargin = 1.15;

/// Persistence for stealing on the synchronous path: the same victim must
/// clear the margin in this many consecutive rounds before anything moves.
/// A host hiccup inflates a worker's EWMA for a round or two; a straggler
/// stays slow (docs/SCHEDULING.md, "Work stealing", has the measurement).
constexpr int kStealRounds = 3;

/// Per-worker speed estimate in ms/task: the EWMA when the worker has
/// history, `fallback` (cluster mean of the workers that do) otherwise.
double speed_ms(const WorkerStat& row, double fallback) {
  return row.tasks_completed > 0 ? row.avg_task_ms : fallback;
}

}  // namespace

AsyncScheduler::AsyncScheduler(engine::Cluster& cluster, Coordinator& coordinator)
    : cluster_(cluster), coordinator_(coordinator) {
  owned_.resize(static_cast<std::size_t>(cluster.num_workers()));
  member_.assign(static_cast<std::size_t>(cluster.num_workers()), true);
  filling_.assign(static_cast<std::size_t>(cluster.num_workers()), false);
}

void AsyncScheduler::set_num_partitions(int num_partitions) {
  num_partitions_ = num_partitions;
  busy_.assign(static_cast<std::size_t>(num_partitions), false);
  inflight_.assign(static_cast<std::size_t>(num_partitions), InflightRecord{});
  pending_migration_ms_.assign(static_cast<std::size_t>(num_partitions), 0.0);
  busy_count_ = 0;
  // Distribute over *members* only: with all workers members this is exactly
  // data::partitions_of_worker's p % W placement (bit-compatible with the
  // fixed scheduler); dormant workers own nothing until admitted.
  std::vector<engine::WorkerId> live;
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    owned_[static_cast<std::size_t>(w)].clear();
    if (member_[static_cast<std::size_t>(w)]) live.push_back(w);
  }
  assert(!live.empty() && "AsyncScheduler: member set must not be empty");
  for (engine::PartitionId p = 0; p < num_partitions; ++p) {
    owned_[static_cast<std::size_t>(live[static_cast<std::size_t>(p) % live.size()])]
        .push_back(p);
  }
  cursor_.assign(static_cast<std::size_t>(cluster_.num_workers()), 0);
}

void AsyncScheduler::set_members(std::vector<bool> members) {
  assert(static_cast<int>(members.size()) == cluster_.num_workers());
  member_ = std::move(members);
  filling_.assign(member_.size(), false);
}

int AsyncScheduler::member_count() const {
  return static_cast<int>(std::count(member_.begin(), member_.end(), true));
}

bool AsyncScheduler::dispatchable(engine::WorkerId worker) const {
  return member_[static_cast<std::size_t>(worker)] && cluster_.worker_alive(worker);
}

int AsyncScheduler::admit_worker(engine::WorkerId worker) {
  if (member_[static_cast<std::size_t>(worker)]) return 0;
  member_[static_cast<std::size_t>(worker)] = true;
  filling_[static_cast<std::size_t>(worker)] = true;
  return rebalance_joiners();
}

int AsyncScheduler::rebalance_joiners() {
  int moved = 0;
  const int members = member_count();
  const int share = members > 0 ? num_partitions_ / members : 0;
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    if (!filling_[static_cast<std::size_t>(w)]) continue;
    if (!member_[static_cast<std::size_t>(w)] || !cluster_.worker_alive(w)) {
      filling_[static_cast<std::size_t>(w)] = false;  // crashed before filling
      continue;
    }
    moved += fill_toward_share(w);
    if (static_cast<int>(owned_[static_cast<std::size_t>(w)].size()) >= share) {
      filling_[static_cast<std::size_t>(w)] = false;  // reached its fair share
    }
  }
  return moved;
}

int AsyncScheduler::fill_toward_share(engine::WorkerId worker) {
  const int members = member_count();
  const int share = members > 0 ? num_partitions_ / members : 0;
  // Pull idle partitions from the most-loaded members until the newcomer
  // holds its fair share; busy partitions stay put (their in-flight task
  // already targets the old owner — moving them buys nothing now). If
  // everything is busy right now, the membership poll retries on the next
  // collect pass (rebalance_empty_members), when results have freed some.
  int moved = 0;
  while (static_cast<int>(owned_[static_cast<std::size_t>(worker)].size()) < share) {
    int victim = -1;
    engine::PartitionId candidate = engine::kNoPartition;
    for (int w = 0; w < cluster_.num_workers(); ++w) {
      if (w == worker || !member_[static_cast<std::size_t>(w)]) continue;
      const auto& owned = owned_[static_cast<std::size_t>(w)];
      if (static_cast<int>(owned.size()) <= share || owned.size() <= 1) continue;
      if (victim >= 0 &&
          owned.size() <= owned_[static_cast<std::size_t>(victim)].size()) {
        continue;
      }
      for (const engine::PartitionId p : owned) {
        if (!busy_[static_cast<std::size_t>(p)]) {
          victim = w;
          candidate = p;
          break;
        }
      }
    }
    if (victim < 0) break;
    transfer_ownership(candidate, victim, worker);
    ++moved;
  }
  return moved;
}

int AsyncScheduler::handle_worker_death(engine::WorkerId worker) {
  if (!member_[static_cast<std::size_t>(worker)]) return 0;
  member_[static_cast<std::size_t>(worker)] = false;
  // Every partition the dead worker owned — busy ones included; their
  // in-flight tasks surface as crash-synthesized failures and are
  // resubmitted to the new owner's side of the cluster — moves to the
  // currently least-loaded alive member.
  const std::vector<engine::PartitionId> orphans =
      owned_[static_cast<std::size_t>(worker)];
  int moved = 0;
  for (const engine::PartitionId p : orphans) {
    int heir = -1;
    for (int w = 0; w < cluster_.num_workers(); ++w) {
      if (!dispatchable(w)) continue;
      if (heir < 0 ||
          owned_[static_cast<std::size_t>(w)].size() <
              owned_[static_cast<std::size_t>(heir)].size()) {
        heir = w;
      }
    }
    if (heir < 0) break;  // no member left alive: nothing to inherit the data
    transfer_ownership(p, worker, heir);
    ++moved;
  }
  return moved;
}

void AsyncScheduler::set_policy(SchedulerPolicy policy) { policy_ = std::move(policy); }

const std::vector<engine::PartitionId>& AsyncScheduler::partitions_of(
    engine::WorkerId worker) const {
  if (worker < 0 || worker >= cluster_.num_workers()) {
    throw std::out_of_range("AsyncScheduler::partitions_of: worker " +
                            std::to_string(worker) + " out of range [0, " +
                            std::to_string(cluster_.num_workers()) + ")");
  }
  return owned_[static_cast<std::size_t>(worker)];
}

std::size_t AsyncScheduler::partition_data_bytes(engine::PartitionId p) const {
  const auto index = static_cast<std::size_t>(p);
  return index < policy_.partition_bytes.size() ? policy_.partition_bytes[index] : 0;
}

int AsyncScheduler::idle_owned(engine::WorkerId worker) const {
  int idle = 0;
  for (const engine::PartitionId p : owned_[static_cast<std::size_t>(worker)]) {
    idle += busy_[static_cast<std::size_t>(p)] ? 0 : 1;
  }
  return idle;
}

int AsyncScheduler::dispatch_partitions(engine::WorkerId worker,
                                        const TaskFactory& factory, std::uint64_t seq,
                                        int budget) {
  const auto& partitions = owned_[static_cast<std::size_t>(worker)];
  if (partitions.empty() || budget == 0) return 0;

  // Round-robin over the worker's partitions (starting at the cursor) so a
  // capacity-limited worker cycles through ALL its data rather than
  // refilling the same freshly-freed partition forever. The scan base is
  // fixed for the whole loop; the cursor advances past the last dispatch.
  std::size_t& cursor = cursor_[static_cast<std::size_t>(worker)];
  const std::size_t start = cursor;
  std::vector<engine::TaskSpec> specs;
  for (std::size_t scanned = 0; scanned < partitions.size(); ++scanned) {
    if (budget >= 0 && static_cast<int>(specs.size()) >= budget) break;
    const engine::PartitionId p = partitions[(start + scanned) % partitions.size()];
    if (busy_[static_cast<std::size_t>(p)]) continue;
    engine::TaskSpec spec = factory(p);
    spec.id = cluster_.next_task_id();
    spec.seq = seq;
    spec.migration_ms = pending_migration_ms_[static_cast<std::size_t>(p)];
    pending_migration_ms_[static_cast<std::size_t>(p)] = 0.0;
    busy_[static_cast<std::size_t>(p)] = true;
    ++busy_count_;
    specs.push_back(std::move(spec));
    cursor = (start + scanned + 1) % partitions.size();
  }
  if (specs.empty()) return 0;
  // Register outstanding *before* submitting so the coordinator never
  // observes a result for a task it does not know about. Registration is
  // per task identity (partition, seq): that arms first-result-wins
  // deduplication should a speculative replica be launched later.
  for (const engine::TaskSpec& spec : specs) {
    coordinator_.on_task_dispatch(worker, spec);
  }
  const support::TimePoint now = support::Clock::now();
  const int already_queued =
      coordinator_.outstanding(worker) - static_cast<int>(specs.size());
  int batch_index = 0;
  int accepted = 0;
  for (engine::TaskSpec& spec : specs) {
    auto& record = inflight_[static_cast<std::size_t>(spec.partition)];
    record.spec = spec;  // exact copy: a replica must recompute bit-identically
    record.dispatched_at = now;
    record.worker = worker;
    record.queue_ahead = std::max(0, already_queued) + batch_index;
    record.speculated = false;
    record.valid = true;
    if (cluster_.submit(worker, spec)) {
      ++batch_index;
      ++accepted;
      continue;
    }
    // The transport rejected the submit (fault injection, shutdown): unwind
    // the registration and free the partition, or the phantom task would pin
    // `outstanding` — and with it sync-round result counts, the collect
    // deadlock guard, and the history-GC bound — forever. The partition is
    // simply not part of this round; the next dispatch pass retries it.
    coordinator_.on_dispatch_aborted(worker, spec);
    busy_[static_cast<std::size_t>(spec.partition)] = false;
    --busy_count_;
    record.valid = false;
  }
  return accepted;
}

int AsyncScheduler::dispatch_worker(engine::WorkerId worker, const TaskFactory& factory) {
  if (!dispatchable(worker)) return 0;
  const int cores = cluster_.config().cores_per_worker;
  return dispatch_partitions(worker, factory, ++round_, cores);
}

int AsyncScheduler::dispatch_eligible(const BarrierControl& barrier,
                                      const TaskFactory& factory) {
  const StatSnapshot stat = coordinator_.stat();
  if (!barrier.gate(stat)) return 0;
  if (policy_.steal_mode == StealMode::kLocality) {
    steal_pass(stat, &barrier, /*capacity_mode=*/true);
  }
  const int cores = cluster_.config().cores_per_worker;
  // All tasks admitted by one dispatch call share one round sequence: they
  // are peers of the same logical iteration (partition ids already separate
  // their sampling streams).
  const std::uint64_t seq = round_ + 1;
  int submitted = 0;
  for (const WorkerStat& w : stat.workers) {
    if (!dispatchable(w.id)) continue;
    const int free = cores - w.outstanding;
    if (free <= 0) continue;
    if (!barrier.filter(w, stat)) continue;
    submitted += dispatch_partitions(w.id, factory, seq, free);
  }
  if (submitted > 0) round_ = seq;
  return submitted;
}

int AsyncScheduler::dispatch_all(const TaskFactory& factory) {
  if (policy_.steal_mode == StealMode::kLocality) {
    steal_pass(coordinator_.stat(), /*barrier=*/nullptr, /*capacity_mode=*/false);
  }
  const std::uint64_t seq = ++round_;
  int submitted = 0;
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    if (!dispatchable(w)) continue;
    submitted += dispatch_partitions(w, factory, seq, /*budget=*/-1);
  }
  return submitted;
}

int AsyncScheduler::steal_pass(const StatSnapshot& stat, const BarrierControl* barrier,
                               bool capacity_mode) {
  const int workers = cluster_.num_workers();
  if (workers < 2 || num_partitions_ == 0) return 0;
  const double fallback = stat.mean_avg_task_ms();
  if (fallback <= 0.0) return 0;  // no service history yet: nothing to steal on
  const double cores = static_cast<double>(cluster_.config().cores_per_worker);

  // Live working copies; the stat snapshot's outstanding counts are fixed
  // for the pass (no dispatch happens inside it).
  std::vector<int> idle(static_cast<std::size_t>(workers));
  std::vector<int> busy_owned(static_cast<std::size_t>(workers));
  std::vector<double> speed(static_cast<std::size_t>(workers));
  std::vector<bool> passes(static_cast<std::size_t>(workers), true);
  for (int w = 0; w < workers; ++w) {
    const WorkerStat& row = stat.workers[static_cast<std::size_t>(w)];
    idle[static_cast<std::size_t>(w)] = idle_owned(w);
    busy_owned[static_cast<std::size_t>(w)] =
        static_cast<int>(owned_[static_cast<std::size_t>(w)].size()) -
        idle[static_cast<std::size_t>(w)];
    speed[static_cast<std::size_t>(w)] = speed_ms(row, fallback);
    if (barrier != nullptr) passes[static_cast<std::size_t>(w)] = barrier->filter(row, stat);
  }
  // Drain-time estimate: (in-flight + idle backlog) × ms/task ÷ cores. On
  // the synchronous path it is the worker's round makespan, never below one
  // task time while a task is left: a task does not split across cores, so
  // a backlog that fits in one wave finishes no sooner for losing a
  // partition. The asynchronous path keeps the fluid rate — work streams in
  // there, and a barrier-shunned victim cannot run its idle partitions at all.
  const double min_waves = capacity_mode ? 0.0 : 1.0;
  // A synchronous round's streak toward kStealRounds survives only if this
  // round's victim clears the margin again.
  const int streak = capacity_mode ? 0 : std::exchange(imbalanced_rounds_, 0);
  const auto est = [&](int w, int extra_idle) {
    const WorkerStat& row = stat.workers[static_cast<std::size_t>(w)];
    const double tasks =
        static_cast<double>(row.outstanding + idle[static_cast<std::size_t>(w)] + extra_idle);
    return std::max(tasks / cores, std::min(tasks, min_waves)) *
           speed[static_cast<std::size_t>(w)];
  };

  int moves = 0;
  while (moves < num_partitions_) {
    // Victim: the most-backlogged worker that has an idle partition to give.
    // Only a barrier-shunned victim may lose its *last* partition — a
    // filtered-out worker cannot run it anyway, while taking a healthy
    // worker's last partition would just move the imbalance around.
    int victim = -1;
    for (int w = 0; w < workers; ++w) {
      if (idle[static_cast<std::size_t>(w)] == 0) continue;
      const bool may_lose_last = barrier != nullptr && !passes[static_cast<std::size_t>(w)];
      if (owned_[static_cast<std::size_t>(w)].size() <= 1 && !may_lose_last) continue;
      if (victim < 0 || est(w, 0) > est(victim, 0)) victim = w;
    }
    if (victim < 0) break;

    // Thief: the least-loaded eligible worker. In capacity mode (the
    // asynchronous path) a thief must have free capacity and no idle owned
    // partition — it steals only when it would otherwise sit idle.
    int thief = -1;
    for (int w = 0; w < workers; ++w) {
      if (w == victim) continue;
      if (barrier != nullptr && !passes[static_cast<std::size_t>(w)]) continue;
      if (capacity_mode) {
        const WorkerStat& row = stat.workers[static_cast<std::size_t>(w)];
        if (row.outstanding >= static_cast<int>(cores)) continue;
        if (idle[static_cast<std::size_t>(w)] > 0) continue;
        // A worker whose owned partitions are scheduler-busy but already
        // drained by the coordinator (result awaiting collection) is about
        // to get local work back — it is not starving, so it must not steal.
        if (busy_owned[static_cast<std::size_t>(w)] > row.outstanding) continue;
      }
      if (thief < 0 || est(w, 0) < est(thief, 0)) thief = w;
    }
    if (thief < 0) break;

    // Move only if it beats the hysteresis margin: the victim's backlog must
    // strictly dominate both post-move drains, so EWMA jitter on a balanced
    // cluster never reshuffles ownership.
    const double before = est(victim, 0);
    const double after = std::max(est(victim, -1), est(thief, +1));
    if (before <= kStealMargin * after) break;
    if (!capacity_mode && moves == 0) {
      imbalanced_rounds_ = victim == imbalance_victim_ ? streak + 1 : 1;
      imbalance_victim_ = victim;
      if (imbalanced_rounds_ < kStealRounds) break;
    }

    // Steal the partition the victim would service last (just before its
    // round-robin cursor): the least disruption to its local iteration.
    const auto& owned = owned_[static_cast<std::size_t>(victim)];
    const std::size_t cursor = cursor_[static_cast<std::size_t>(victim)];
    engine::PartitionId stolen = engine::kNoPartition;
    for (std::size_t offset = 1; offset <= owned.size(); ++offset) {
      const std::size_t index = (cursor + owned.size() - offset) % owned.size();
      if (!busy_[static_cast<std::size_t>(owned[index])]) {
        stolen = owned[index];
        break;
      }
    }
    if (stolen == engine::kNoPartition) break;  // cannot happen: idle[victim] > 0
    transfer_ownership(stolen, victim, thief);
    idle[static_cast<std::size_t>(victim)] -= 1;
    idle[static_cast<std::size_t>(thief)] += 1;
    ++moves;
  }
  return moves;
}

void AsyncScheduler::transfer_ownership(engine::PartitionId partition,
                                        engine::WorkerId victim,
                                        engine::WorkerId thief) {
  auto& from = owned_[static_cast<std::size_t>(victim)];
  const auto it = std::find(from.begin(), from.end(), partition);
  const auto erased = static_cast<std::size_t>(it - from.begin());
  from.erase(it);
  std::size_t& cursor = cursor_[static_cast<std::size_t>(victim)];
  if (cursor > erased) --cursor;
  if (!from.empty()) cursor %= from.size(); else cursor = 0;
  owned_[static_cast<std::size_t>(thief)].push_back(partition);

  // The partition's rows must travel once; charge the transfer to its first
  // task on the new owner. Subsequent rounds are local again.
  const std::size_t bytes = partition_data_bytes(partition);
  pending_migration_ms_[static_cast<std::size_t>(partition)] +=
      cluster_.network().transfer_ms(bytes);
  cluster_.metrics().migration_bytes.add(bytes);
  cluster_.metrics().partitions_stolen.add(1);
  ++steals_;
}

int AsyncScheduler::maybe_speculate() {
  if ((policy_.speculation_factor <= 0.0 && policy_.lost_task_factor <= 0.0) ||
      cluster_.num_workers() < 2) {
    return 0;
  }
  if (busy_count_ == 0) return 0;
  const StatSnapshot stat = coordinator_.stat();
  const double median = stat.median_avg_task_ms();
  if (median <= 0.0) return 0;
  const double threshold_ms = policy_.speculation_factor * median;
  const double lost_ms = policy_.lost_task_factor * median;
  const support::TimePoint now = support::Clock::now();
  const int cores = cluster_.config().cores_per_worker;

  std::vector<int> free(stat.workers.size());
  for (std::size_t w = 0; w < stat.workers.size(); ++w) {
    free[w] = cores - stat.workers[w].outstanding;
  }

  int launched = 0;
  for (engine::PartitionId p = 0; p < num_partitions_; ++p) {
    if (!busy_[static_cast<std::size_t>(p)]) continue;
    InflightRecord& record = inflight_[static_cast<std::size_t>(p)];
    if (!record.valid) continue;
    const double age_ms = support::to_ms(now - record.dispatched_at);

    // Past the lost horizon the result is presumed gone for good (dropped in
    // transit, or its holder crashed): waiting longer cannot pay off, so the
    // rescue bypasses the one-replica limit and the predicted-remaining
    // gate below. record.dispatched_at is refreshed on rescue, so a stranded
    // rescue re-arms only after a full horizon of its own.
    const bool presumed_lost = policy_.lost_task_factor > 0.0 && age_ms > lost_ms;
    if (!presumed_lost) {
      if (policy_.speculation_factor <= 0.0 || record.speculated) continue;
      if (age_ms <= threshold_ms) continue;

      // Overdue by the age rule. Replicate only if the assigned worker's
      // *predicted remaining* time still exceeds what a fresh replica needs:
      // queue position × the worker's current EWMA says when the task should
      // finish, so a deep-but-healthy queue is left alone while a task doomed
      // to a straggler's second wave is rescued as soon as the EWMA knows.
      const WorkerStat& assigned = stat.workers[static_cast<std::size_t>(record.worker)];
      const double waves = static_cast<double>(record.queue_ahead / cores + 1);
      const double predicted_remaining = waves * speed_ms(assigned, median) - age_ms;
      const double replica_cost =
          median + cluster_.network().transfer_ms(partition_data_bytes(p));
      if (predicted_remaining <= 1.2 * replica_cost) continue;
    }

    // Target: the fastest dispatchable worker with a free core, excluding
    // the one already holding the task. Regular speculation refuses targets
    // slower than ~the median (no rescue); a lost-task rescue takes any
    // alive member — the alternative is never finishing the round — and may
    // even queue behind a busy core: on a saturated cluster (dispatch refills
    // every core between collects) a free core never shows at sweep time, so
    // insisting on one would strand the rescue forever. Free cores still win
    // ties so the rescue runs as soon as possible.
    int target = -1;
    double target_speed = 0.0;
    bool target_free = false;
    for (int w = 0; w < cluster_.num_workers(); ++w) {
      if (w == record.worker) continue;
      const bool has_free = free[static_cast<std::size_t>(w)] > 0;
      if (!has_free && !presumed_lost) continue;
      if (!dispatchable(w)) continue;
      const double s = speed_ms(stat.workers[static_cast<std::size_t>(w)], median);
      if (!presumed_lost && s > 1.25 * median) continue;
      if (target < 0 || (has_free && !target_free) ||
          (has_free == target_free && s < target_speed)) {
        target = w;
        target_speed = s;
        target_free = has_free;
      }
    }
    if (target < 0) continue;

    engine::TaskSpec replica = record.spec;
    replica.id = cluster_.next_task_id();
    // The replica reads the partition remotely: charge the transfer, but do
    // not move ownership (the original owner keeps its local copy).
    const std::size_t bytes = partition_data_bytes(p);
    replica.migration_ms = cluster_.network().transfer_ms(bytes);
    // Registration is atomic with the first-result-wins bookkeeping: if the
    // original's result was already accounted (possibly still sitting
    // uncollected in the result queue), a replica would be delivered twice —
    // skip it and stand down on this task.
    if (!coordinator_.try_register_replica(target, replica)) {
      record.speculated = true;
      continue;
    }
    if (!cluster_.submit(target, replica)) {
      // Cluster shut down between registration and submit: unwind the
      // registration so the phantom replica cannot pin `outstanding` (and
      // with it the deadlock guard and the history-GC bound) forever.
      coordinator_.on_dispatch_aborted(target, replica);
      break;
    }
    if (presumed_lost) {
      // Replacement registered FIRST, lost copy written off SECOND: the
      // identity holds a registered copy throughout, so a concurrent late
      // arrival can never retire the entry mid-rescue. try_write_off
      // returning false means the "lost" result landed after all — then
      // both copies are genuine and first-result-wins settles it.
      (void)coordinator_.try_write_off(record.worker, record.spec);
      record.spec = replica;
      record.worker = target;
      record.dispatched_at = support::Clock::now();
      record.queue_ahead = std::max(0, coordinator_.outstanding(target) - 1);
      record.speculated = false;  // the rescue gets a full horizon of its own
    } else {
      record.speculated = true;
    }
    free[static_cast<std::size_t>(target)] -= 1;
    cluster_.metrics().tasks_speculated.add(1);
    cluster_.metrics().migration_bytes.add(bytes);
    ++speculations_;
    ++launched;
  }
  return launched;
}

void AsyncScheduler::resubmit(const engine::TaskResult& failed,
                              const TaskFactory& factory) {
  // Next *dispatchable* worker after the failed one: a retry must never land
  // back on a crashed worker (it would bounce forever and burn the retry
  // budget). Falls back to the failed worker itself only when it is the sole
  // survivor of the hop scan.
  std::vector<engine::WorkerId> candidates;
  for (int hop = 1; hop <= cluster_.num_workers(); ++hop) {
    const engine::WorkerId candidate =
        (failed.worker + hop) % cluster_.num_workers();
    if (dispatchable(candidate)) candidates.push_back(candidate);
  }
  if (candidates.empty()) candidates.push_back((failed.worker + 1) % cluster_.num_workers());
  for (const engine::WorkerId target : candidates) {
    engine::TaskSpec spec = factory(failed.partition);
    spec.id = cluster_.next_task_id();
    spec.seq = failed.seq;  // keep the round: the retry recomputes the same batch
    // The partition is still marked busy from its original dispatch.
    coordinator_.on_task_dispatch(target, spec);
    if (cluster_.submit(target, spec)) {
      if (failed.partition >= 0 && failed.partition < num_partitions_) {
        auto& record = inflight_[static_cast<std::size_t>(failed.partition)];
        record.spec = std::move(spec);
        record.dispatched_at = support::Clock::now();
        record.worker = target;
        record.queue_ahead = std::max(0, coordinator_.outstanding(target) - 1);
        record.speculated = false;
        record.valid = true;
      }
      return;
    }
    // Submit rejected: unwind and try the next candidate.
    coordinator_.on_dispatch_aborted(target, spec);
  }
  // Every candidate rejected the retry. Free the partition so a later
  // dispatch pass can reschedule it instead of leaving it busy forever.
  if (failed.partition >= 0 && failed.partition < num_partitions_ &&
      busy_[static_cast<std::size_t>(failed.partition)]) {
    busy_[static_cast<std::size_t>(failed.partition)] = false;
    --busy_count_;
    inflight_[static_cast<std::size_t>(failed.partition)].valid = false;
  }
}

void AsyncScheduler::on_result_collected(engine::PartitionId partition) {
  if (partition < 0 || partition >= num_partitions_) return;
  if (busy_[static_cast<std::size_t>(partition)]) {
    busy_[static_cast<std::size_t>(partition)] = false;
    busy_count_ -= 1;
    inflight_[static_cast<std::size_t>(partition)].valid = false;
  }
}

}  // namespace asyncml::core
