#include "store/disk/disk_tier.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <utility>

#include "support/file_io.hpp"
#include "support/stopwatch.hpp"

// Included from the .cpp only: the tier reuses the transport payload
// envelope as its canonical serialization, but store headers must not pull in
// transport (store -> transport -> store would cycle).
#include "telemetry/telemetry.hpp"
#include "transport/wire.hpp"

namespace asyncml::store::disk {

namespace fs = std::filesystem;
using support::Sha256Digest;
using support::Status;
using support::StatusCode;
using support::StatusOr;

DiskTier::DiskTier(DiskTierConfig config, engine::DiskTierMetrics* metrics,
                   engine::FaultState* faults)
    : cfg_(std::move(config)), metrics_(metrics != nullptr ? metrics : &own_) {
  blobs_ = std::make_unique<BlobStore>(cfg_.dir, cfg_, metrics_, faults);
}

StatusOr<std::unique_ptr<DiskTier>> DiskTier::open(DiskTierConfig config,
                                                   OpenMode mode,
                                                   engine::DiskTierMetrics* metrics,
                                                   engine::FaultState* faults) {
  if (config.dir.empty()) {
    return Status(StatusCode::kInvalidArgument, "disk_tier: empty dir");
  }
  std::unique_ptr<DiskTier> tier(new DiskTier(std::move(config), metrics, faults));
  if (Status s = tier->init(mode); !s.is_ok()) return s;
  tier->writer_ = std::thread([t = tier.get()] { t->writer_loop(); });
  return tier;
}

DiskTier::~DiskTier() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_one();
  if (writer_.joinable()) writer_.join();
}

Status DiskTier::init(OpenMode mode) {
  if (Status s = blobs_->init(); !s.is_ok()) return s;
  const fs::path manifest_path = fs::path(cfg_.dir) / "MANIFEST";
  std::uint64_t truncate_to = 0;

  std::error_code ec;
  const bool exists = fs::exists(manifest_path, ec);
  const bool new_manifest = mode == OpenMode::kFresh || !exists;
  if (mode == OpenMode::kFresh && exists) {
    // Rotate, never delete: the old log stays inspectable, and a fresh run
    // must not replay another run's records. Deterministic first-free-N
    // naming keeps restarted chaos runs reproducible.
    for (int n = 0;; ++n) {
      const fs::path old = fs::path(cfg_.dir) / ("manifest.old." + std::to_string(n));
      if (fs::exists(old, ec)) continue;
      fs::rename(manifest_path, old, ec);
      if (ec) {
        return Status(StatusCode::kUnavailable,
                      "disk_tier: rotate manifest: " + ec.message());
      }
      break;
    }
  }
  if (mode == OpenMode::kResume && exists) {
    const int fd = ::open(manifest_path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status(StatusCode::kUnavailable, "disk_tier: open manifest failed");
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status(StatusCode::kUnavailable, "disk_tier: read manifest failed");
      }
      if (n == 0) break;
      bytes.insert(bytes.end(), buf, buf + n);
    }
    ::close(fd);
    auto state = decode_manifest(bytes);
    if (!state.is_ok()) return state.status();
    restored_ = std::move(state).value();
    truncate_to = restored_.valid_bytes;
  }
  if (Status s = manifest_.open(manifest_path.string(), truncate_to, cfg_.fsync);
      !s.is_ok()) {
    return s;
  }
  // A created or rotated MANIFEST is a new name in the root: sync it once, so
  // the records the writer fsyncs into it are reachable after a power loss.
  if (new_manifest && cfg_.fsync) return support::sync_dir(cfg_.dir);
  return Status::ok();
}

void DiskTier::publish(PublishRecord record, engine::Payload base,
                       engine::Payload delta) {
  Job job;
  record.has_base = base.has_value();
  record.has_delta = delta.has_value();
  if (record.has_base) job.blobs.push_back(std::move(base));
  if (record.has_delta) job.blobs.push_back(std::move(delta));
  job.record = std::move(record);
  enqueue(std::move(job));
}

void DiskTier::gc_floor(std::uint64_t floor) {
  Job job;
  job.record = GcFloor{0, floor};
  enqueue(std::move(job));
}

StatusOr<DiskTier::ModelHistory> DiskTier::restored_model() const {
  // Both maps are ordered by shard id, so their last key is the largest.
  std::uint32_t top = 0;
  if (!restored_.shards.empty()) top = restored_.shards.rbegin()->first;
  if (!restored_.gc_floors.empty()) {
    top = std::max(top, restored_.gc_floors.rbegin()->first);
  }
  if (top != 0) {
    return Status(StatusCode::kFailedPrecondition,
                  "disk_tier: the manifest in '" + cfg_.dir +
                      "' holds records of model shard " + std::to_string(top) +
                      "; it was written by a sharded model store and cannot "
                      "be resumed as one model");
  }
  static const std::map<std::uint64_t, PublishRecord> kNoRecords;
  const auto records = restored_.shards.find(0);
  const auto floor = restored_.gc_floors.find(0);
  return ModelHistory{
      records != restored_.shards.end() ? &records->second : &kNoRecords,
      floor != restored_.gc_floors.end() ? floor->second : 0};
}

Status DiskTier::checkpoint(CheckpointRecord record, engine::Payload model,
                            std::vector<std::pair<std::string, engine::Payload>> aux) {
  Job job;
  job.blobs.push_back(std::move(model));
  record.aux.clear();
  for (auto& [name, payload] : aux) {
    record.aux.emplace_back(std::move(name), Sha256Digest{});
    job.blobs.push_back(std::move(payload));
  }
  job.record = std::move(record);
  return commit_and_wait(std::move(job)).status;
}

StatusOr<Sha256Digest> DiskTier::put_payload(const engine::Payload& payload) {
  Job job;
  job.blobs.push_back(payload);
  const Outcome outcome = commit_and_wait(std::move(job));
  if (!outcome.status.is_ok()) return outcome.status;
  return outcome.digest;
}

void DiskTier::drain() {
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(queue_mutex_);
    seq = queued_seq_;
  }
  wait_committed(seq);
}

StatusOr<engine::Payload> DiskTier::fetch_payload(const Sha256Digest& digest) {
  telemetry::ScopedStageTimer timer(telemetry::Stage::kDiskIo);
  const auto read = blobs_->get(digest);
  if (!read.is_ok()) return read.status();
  metrics_->faulted_in.add(1);
  return transport::decode_payload_envelope(read.value(), /*opaque_source=*/nullptr);
}

std::uint64_t DiskTier::enqueue(Job job) {
  std::unique_lock lock(queue_mutex_);
  if (queue_.size() >= kQueueRecords) {
    const support::Stopwatch stall;
    progress_cv_.wait(lock, [this] { return queue_.size() < kQueueRecords; });
    metrics_->queue_stalls.add(1);
    metrics_->queue_stall_ns.add(static_cast<std::uint64_t>(stall.elapsed().count()));
  }
  queue_.push_back(std::move(job));
  const std::uint64_t seq = ++queued_seq_;
  lock.unlock();
  work_cv_.notify_one();
  return seq;
}

void DiskTier::wait_committed(std::uint64_t seq) {
  std::unique_lock lock(queue_mutex_);
  progress_cv_.wait(lock, [&] { return committed_seq_ >= seq; });
}

DiskTier::Outcome DiskTier::commit_and_wait(Job job) {
  auto outcome = std::make_shared<Outcome>();
  job.outcome = outcome;
  wait_committed(enqueue(std::move(job)));
  return *outcome;
}

void DiskTier::writer_loop() {
  std::vector<Job> group;
  std::unique_lock lock(queue_mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, with everything committed
    // The group is whatever queued while the previous group committed.
    group.swap(queue_);
    const std::uint64_t seq = queued_seq_;
    lock.unlock();
    progress_cv_.notify_all();  // the queue has room again
    try {
      commit_group(group);
    } catch (const std::exception& e) {
      // Out of memory mid-commit: nothing of the group may count as durable.
      for (const Job& job : group) {
        if (job.outcome != nullptr) {
          job.outcome->status = Status(StatusCode::kInternal, e.what());
        }
      }
      std::fprintf(stderr,
                   "DiskTier: commit of %zu queued records failed (%s); "
                   "continuing in-memory\n",
                   group.size(), e.what());
    }
    group.clear();
    lock.lock();
    committed_seq_ = seq;
    progress_cv_.notify_all();
  }
}

void DiskTier::commit_group(std::vector<Job>& group) {
  const support::Stopwatch timer;
  struct Result {
    std::vector<Sha256Digest> digests;
    Status status = Status::ok();
    bool blob_failed = false;
  };
  std::vector<Result> results(group.size());
  BlobStore::Batch batch;

  // 1. Encode, hash, dedup-check and stage every blob, in queue order.
  for (std::size_t j = 0; j < group.size(); ++j) {
    // A checkpoint gives up at its first failed blob; a publish still writes
    // its other one (the blob operations the fault seams count).
    const bool all_or_nothing = std::holds_alternative<CheckpointRecord>(group[j].record);
    for (const engine::Payload& payload : group[j].blobs) {
      const auto digest =
          blobs_->stage(batch, transport::encode_payload_envelope(payload));
      if (!digest.is_ok()) {
        results[j].status = digest.status();
        results[j].blob_failed = true;
        if (all_or_nothing) break;
        continue;
      }
      results[j].digests.push_back(digest.value());
    }
  }

  // 2–3. Fsync each staged file, rename it into objects/, fsync objects/.
  blobs_->commit(batch);

  // 4. One append of every record whose blobs are durable and named, then
  //    one manifest fsync.
  std::vector<std::uint8_t> log;
  std::vector<std::size_t> logged;
  for (std::size_t j = 0; j < group.size(); ++j) {
    Result& r = results[j];
    if (r.status.is_ok() &&
        std::any_of(r.digests.begin(), r.digests.end(),
                    [&](const Sha256Digest& d) { return batch.failed(d); })) {
      r.status = Status(StatusCode::kUnavailable, "disk_tier: blob commit failed");
      r.blob_failed = true;
    }
    if (!r.status.is_ok()) continue;
    std::vector<std::uint8_t> record;
    if (auto* p = std::get_if<PublishRecord>(&group[j].record)) {
      std::size_t i = 0;
      if (p->has_base) p->base_digest = r.digests[i++];
      if (p->has_delta) p->delta_digest = r.digests[i++];
      record = encode_publish_record(*p);
    } else if (auto* c = std::get_if<CheckpointRecord>(&group[j].record)) {
      c->model_digest = r.digests[0];
      for (std::size_t k = 0; k < c->aux.size(); ++k) c->aux[k].second = r.digests[k + 1];
      record = encode_checkpoint_record(*c);
    } else if (const auto* g = std::get_if<GcFloor>(&group[j].record)) {
      record = encode_gc_floor_record(g->shard, g->floor);
    } else {
      continue;  // a bare put_payload names nothing
    }
    log.insert(log.end(), record.begin(), record.end());
    logged.push_back(j);
  }
  if (!log.empty()) {
    const Status appended = manifest_.append(log);
    if (appended.is_ok()) {
      metrics_->manifest_appends.add(logged.size());
    } else {
      for (const std::size_t j : logged) results[j].status = appended;
    }
  }
  metrics_->commit_groups.add(1);
  metrics_->write_ns.add(static_cast<std::uint64_t>(timer.elapsed().count()));

  for (std::size_t j = 0; j < group.size(); ++j) {
    const Job& job = group[j];
    const Result& r = results[j];
    if (job.outcome != nullptr) {
      job.outcome->status = r.status;
      if (!r.digests.empty()) job.outcome->digest = r.digests.front();
      continue;
    }
    if (r.status.is_ok()) continue;
    // Durability of this record degrades; the run continues in memory.
    if (const auto* p = std::get_if<PublishRecord>(&job.record)) {
      std::fprintf(stderr,
                   "ModelStore: disk write-through of version %llu failed "
                   "(%s); continuing in-memory\n",
                   static_cast<unsigned long long>(p->version),
                   r.blob_failed ? "blob write" : r.status.to_string().c_str());
    } else {
      std::fprintf(stderr,
                   "ModelStore: gc-floor manifest append failed (%s); "
                   "continuing in-memory\n",
                   r.status.to_string().c_str());
    }
  }
}

}  // namespace asyncml::store::disk
