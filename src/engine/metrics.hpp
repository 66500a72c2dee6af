#pragma once

// Engine-level instrumentation.
//
// Wait time — the paper's Figures 4/6 and Table 3 metric — is defined as the
// interval from a worker submitting a task result until it receives its next
// task.  Each executor thread records it at task-receive time into a
// per-worker histogram.  Byte counters track the modeled wire traffic of
// broadcasts, fetches, and results.

#include <array>
#include <mutex>
#include <vector>

#include "engine/types.hpp"
#include "support/histogram.hpp"
#include "support/padded.hpp"

namespace asyncml::engine {

/// Traffic class of a fetched broadcast payload. The delta-versioned model
/// store publishes two kinds of driver→worker payloads — full base snapshots
/// and sparse model deltas — and the byte accounting keeps them apart so the
/// benches can report how much of the broadcast traffic the deltas saved.
enum class BroadcastClass { kSnapshot, kDelta };

/// Logical wire channel a transport frame travels on. Every backend counts
/// into the same per-channel table: the in-process backend records the
/// *charged* (modeled) bytes, the socket backend records *measured* frame
/// bytes — one ClusterMetrics path for both, so fig3 can print charged vs
/// measured side by side and flag divergence beyond framing overhead.
enum class WireChannel : std::uint8_t {
  kTask = 0,     ///< dispatch-plane task headers
  kResult = 1,   ///< worker→driver task results
  kModel = 2,    ///< broadcast/base/delta fetches
  kControl = 3,  ///< hello/shutdown/error traffic
};

inline constexpr std::size_t kNumWireChannels = 4;

/// Plain values of every DiskTierMetrics counter at one instant: what
/// RunResult::disk carries (DiskTierMetrics::snapshot takes it).
struct DiskTierStats {
  std::uint64_t blob_writes = 0;
  std::uint64_t blob_write_bytes = 0;
  std::uint64_t blob_reads = 0;
  std::uint64_t blob_read_bytes = 0;
  std::uint64_t blob_dedup_hits = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t recovery_walks = 0;
  std::uint64_t bases_republished = 0;
  std::uint64_t write_retries = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t manifest_appends = 0;
  std::uint64_t faulted_in = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t read_ns = 0;
  std::uint64_t commit_groups = 0;
  std::uint64_t queue_stalls = 0;
  std::uint64_t queue_stall_ns = 0;

  bool operator==(const DiskTierStats&) const = default;
};

/// Counters of the content-addressed disk tier under the model store
/// (store/disk/, docs/DURABILITY.md). A DiskTier owned by a cluster-attached
/// store counts into ClusterMetrics::disk; standalone tiers (checkpoint
/// loaders, unit tests) count into a private instance.
struct DiskTierMetrics {
  support::RelaxedCounter blob_writes;       ///< blobs published (post-dedup)
  support::RelaxedCounter blob_write_bytes;  ///< payload bytes written
  support::RelaxedCounter blob_reads;        ///< blob file reads
  support::RelaxedCounter blob_read_bytes;   ///< payload bytes read from disk
  support::RelaxedCounter blob_dedup_hits;   ///< writes satisfied by an existing object
  support::RelaxedCounter quarantines;       ///< corrupt/truncated blobs quarantined
  support::RelaxedCounter recovery_walks;    ///< chain walks restarted around a bad blob
  support::RelaxedCounter bases_republished; ///< fallback bases re-published over lost chains
  support::RelaxedCounter write_retries;     ///< transient write-error retries
  support::RelaxedCounter read_retries;      ///< transient read-error retries
  support::RelaxedCounter manifest_appends;  ///< manifest records appended
  support::RelaxedCounter faulted_in;        ///< payloads rehydrated from disk into memory
  support::RelaxedCounter write_ns;          ///< wall time committing writes (the writer's groups)
  support::RelaxedCounter read_ns;           ///< wall time inside blob reads
  support::RelaxedCounter commit_groups;     ///< groups the tier writer committed
  support::RelaxedCounter queue_stalls;      ///< enqueues that waited on a full writer queue
  support::RelaxedCounter queue_stall_ns;    ///< wall time those enqueues waited

  void reset() {
    blob_writes.reset();
    blob_write_bytes.reset();
    blob_reads.reset();
    blob_read_bytes.reset();
    blob_dedup_hits.reset();
    quarantines.reset();
    recovery_walks.reset();
    bases_republished.reset();
    write_retries.reset();
    read_retries.reset();
    manifest_appends.reset();
    faulted_in.reset();
    write_ns.reset();
    read_ns.reset();
    commit_groups.reset();
    queue_stalls.reset();
    queue_stall_ns.reset();
  }

  [[nodiscard]] DiskTierStats snapshot() const {
    return {blob_writes.load(),      blob_write_bytes.load(), blob_reads.load(),
            blob_read_bytes.load(),  blob_dedup_hits.load(),  quarantines.load(),
            recovery_walks.load(),   bases_republished.load(), write_retries.load(),
            read_retries.load(),     manifest_appends.load(), faulted_in.load(),
            write_ns.load(),         read_ns.load(),          commit_groups.load(),
            queue_stalls.load(),     queue_stall_ns.load()};
  }
};

class ClusterMetrics {
 public:
  explicit ClusterMetrics(int num_workers)
      : wait_hists_(num_workers), wait_mutexes_(num_workers) {}

  void record_wait(WorkerId worker, double wait_ns) {
    std::lock_guard lock(wait_mutexes_[worker].value);
    wait_hists_[worker].record(wait_ns);
  }

  /// Copy of one worker's wait histogram.
  [[nodiscard]] support::Histogram wait_histogram(WorkerId worker) const {
    std::lock_guard lock(wait_mutexes_[worker].value);
    return wait_hists_[worker];
  }

  /// All workers merged.
  [[nodiscard]] support::Histogram total_wait_histogram() const {
    support::Histogram total;
    for (std::size_t w = 0; w < wait_hists_.size(); ++w) {
      std::lock_guard lock(wait_mutexes_[w].value);
      total.merge(wait_hists_[w]);
    }
    return total;
  }

  /// Mean wait in milliseconds across all workers' recorded waits.
  [[nodiscard]] double mean_wait_ms() const { return total_wait_histogram().mean_ns() / 1e6; }

  void reset_waits() {
    for (std::size_t w = 0; w < wait_hists_.size(); ++w) {
      std::lock_guard lock(wait_mutexes_[w].value);
      wait_hists_[w].reset();
    }
  }

  [[nodiscard]] int num_workers() const { return static_cast<int>(wait_hists_.size()); }

  /// Counts one broadcast fetch of `bytes` in traffic class `cls` (the total
  /// and the per-class counter move together by construction).
  void count_broadcast_fetch(BroadcastClass cls, std::size_t bytes) {
    broadcast_fetches.add(1);
    broadcast_bytes.add(bytes);
    (cls == BroadcastClass::kDelta ? broadcast_delta_bytes : broadcast_base_bytes)
        .add(bytes);
  }

  // Real CPU time spent inside task functions (nanoseconds), before
  // service-floor padding: the engine's actual compute cost, which the
  // padding otherwise hides. The fused-kernel work shows up here.
  support::RelaxedCounter task_compute_ns;

  // Wire-traffic counters (modeled bytes).
  support::RelaxedCounter broadcast_bytes;   ///< broadcast values fetched by workers
  support::RelaxedCounter broadcast_base_bytes;   ///< full-snapshot share of broadcast_bytes
  support::RelaxedCounter broadcast_delta_bytes;  ///< sparse-delta share of broadcast_bytes
  support::RelaxedCounter result_bytes;      ///< task result payloads
  support::RelaxedCounter task_messages;     ///< tasks shipped
  support::RelaxedCounter broadcast_fetches; ///< cache misses that hit the driver
  support::RelaxedCounter broadcast_hits;    ///< cache hits (no wire traffic)
  support::RelaxedCounter tasks_completed;
  support::RelaxedCounter tasks_failed;

  // Dynamic-placement counters (work stealing + speculative replication).
  support::RelaxedCounter migration_bytes;    ///< partition data moved by steals/replicas
  support::RelaxedCounter partitions_stolen;  ///< ownership transfers
  support::RelaxedCounter tasks_speculated;   ///< speculative replicas dispatched
  support::RelaxedCounter duplicate_results;  ///< replica results dropped (first-wins)

  // Durable disk tier under the model store (store/disk/).
  DiskTierMetrics disk;

  /// Per-channel wire accounting. `bytes_sent` is the data-bearing request
  /// frame of a round trip, `bytes_received` its ack — modeled payload bytes
  /// on the in-process backend, actual frame bytes (header + msgpack + lz4)
  /// on the socket backend.
  struct WireCounters {
    support::RelaxedCounter frames;
    support::RelaxedCounter bytes_sent;
    support::RelaxedCounter bytes_received;
  };

  /// Counts one round trip on channel `ch`.
  void count_wire(WireChannel ch, std::size_t sent, std::size_t received) {
    WireCounters& c = wire_[static_cast<std::size_t>(ch)];
    c.frames.add(1);
    c.bytes_sent.add(sent);
    c.bytes_received.add(received);
  }

  [[nodiscard]] const WireCounters& wire(WireChannel ch) const {
    return wire_[static_cast<std::size_t>(ch)];
  }

  /// Zeroes the wire table (run boundaries).
  void reset_wire_counters() {
    for (WireCounters& c : wire_) {
      c.frames.reset();
      c.bytes_sent.reset();
      c.bytes_received.reset();
    }
  }

 private:
  std::array<WireCounters, kNumWireChannels> wire_{};
  std::vector<support::Histogram> wait_hists_;
  mutable std::vector<support::Padded<std::mutex>> wait_mutexes_;
};

}  // namespace asyncml::engine
