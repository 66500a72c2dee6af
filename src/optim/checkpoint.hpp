#pragma once

// Solver-state checkpointing.
//
// Spark's fault tolerance covers tasks (retries) and RDDs (lineage); the
// *driver's* algorithm state — the model, SAGA's running mean, the version
// counter — is the user's to persist.  This module persists exactly that, so
// long optimizations survive server restarts:
//
//   SolverCheckpoint cp;
//   cp.model = w; cp.aux["alpha_bar"] = alpha_bar;
//   cp.update_index = k; save_checkpoint(path, cp);
//   ...
//   auto restored = load_checkpoint(path);
//
// One format (docs/DURABILITY.md, "Checkpoints"). The state is a checkpoint
// record (manifest type 3) in a disk-tier directory: update index, model
// version, dispatch round and named u64 counters inline, the model and the
// named aux vectors as sha256-addressed blobs. The file at `path` is only a
// pointer to that directory ("AMLCKPT3", u32 directory length, directory
// bytes, u64 advisory update index; host byte order). Version + round matter
// for *bit-exact* resume: mini-batches derive from (seed, partition, seq), so
// the restored run must continue the seq stream where the original left off.
//
// The directory is either the store's live tier (save_checkpoint with a
// tier) or a self-contained one, `<path>.0` or `<path>.1`, holding that one
// record and its blobs: a save commits into the one the pointer does not
// name, flips the pointer to it, then removes the other.
//
// Loading replays the directory's manifest read-only and walks its
// checkpoint records newest → oldest, returning the first whose blobs all
// verify (hash + CRC); a corrupt blob is quarantined by the blob store and
// the loader falls back to the next older record — bit-exact, since *any*
// intact checkpoint k resumes exactly at update k. Every malformed pointer —
// bad magic (the retired self-contained v1 and v2 files included),
// truncation, an absurd directory length, a directory without a MANIFEST —
// is a non-OK Status, never a crash.

#include <cstdint>
#include <map>
#include <string>

#include "linalg/dense_vector.hpp"
#include "support/status.hpp"

namespace asyncml::store::disk {
class DiskTier;
}  // namespace asyncml::store::disk

namespace asyncml::optim {

struct SolverCheckpoint {
  std::uint64_t update_index = 0;
  /// Coordinator model version at snapshot time.
  std::uint64_t model_version = 0;
  /// Scheduler dispatch round — the per-partition seq counter. Resuming
  /// from it keeps the deterministic (seed, partition, seq) batch stream
  /// aligned with the uninterrupted run.
  std::uint64_t round = 0;
  linalg::DenseVector model;
  /// Named scalar counters (e.g. STAT totals).
  std::map<std::string, std::uint64_t> counters;
  /// Named auxiliary vectors (e.g. SAGA's "alpha_bar").
  std::map<std::string, linalg::DenseVector> aux;
  /// Set by load_checkpoint: the directory the record came from (the store's
  /// tier or the self-contained `<path>.N`). Informational — the resumed run
  /// re-opens its tier through its own StoreConfig.
  std::string store_dir;
};

/// Writes `checkpoint` as a self-contained checkpoint (see above). The
/// pointer flip is the commit point: a crash or a failed write mid-save
/// leaves the previous checkpoint at `path` loadable.
[[nodiscard]] support::Status save_checkpoint(const std::string& path,
                                              const SolverCheckpoint& checkpoint);

/// Commits `checkpoint` as a record of the live `tier` (DiskTier::checkpoint:
/// it returns once the record and everything queued before it is durable),
/// then points `path` at the tier's directory.
[[nodiscard]] support::Status save_checkpoint(const std::string& path,
                                              const SolverCheckpoint& checkpoint,
                                              store::disk::DiskTier& tier);

[[nodiscard]] support::StatusOr<SolverCheckpoint> load_checkpoint(
    const std::string& path);

}  // namespace asyncml::optim
