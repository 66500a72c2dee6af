#pragma once

// Solver-state checkpointing.
//
// Spark's fault tolerance covers tasks (retries) and RDDs (lineage); the
// *driver's* algorithm state — the model, SAGA's running mean, the version
// counter — is the user's to persist.  This module provides a small binary
// format for exactly that, so long optimizations survive server restarts:
//
//   SolverCheckpoint cp;
//   cp.model = w; cp.aux["alpha_bar"] = alpha_bar;
//   cp.update_index = k; save_checkpoint(path, cp);
//   ...
//   auto restored = load_checkpoint(path);
//
// Format v2 ("AMLCKPT2"): update index, model version, dispatch round, a
// named u64 counter map (STAT totals, solver run counters), then named dense
// vectors (u32 name length, name bytes, u64 dim, doubles).  Little-endian
// host order (documented limitation: not portable across endianness).
// Version + round matter for *bit-exact* resume: mini-batches derive from
// (seed, partition, seq), so the restored run must continue the seq stream
// where the original left off, not restart it at zero.
//
// Every malformed input — truncated file, bad magic (the retired v1
// "AMLCKPT1" included), a vector length that overruns the file — is a non-OK
// Status, never a crash: claimed sizes are validated against the actual file
// size before any allocation.
//
// Format v3 ("AMLCKPT3", docs/DURABILITY.md): the checkpoint file shrinks to
// a pointer — the disk-tier directory plus an advisory update index.  The
// real state lives in the tier: checkpoint records in the append-only
// MANIFEST naming sha256-addressed model/aux blobs.  Loading replays the
// manifest read-only and walks the checkpoint records newest → oldest,
// returning the first record whose blobs all verify (hash + CRC); a corrupt
// blob is quarantined by the blob store and the loader falls back to the
// next older record — bit-exact, since *any* intact checkpoint k resumes
// exactly at update k.  v3 is written by maybe_checkpoint when the store's
// disk tier is enabled; v2 files keep loading unchanged.

#include <cstdint>
#include <map>
#include <string>

#include "linalg/dense_vector.hpp"
#include "support/status.hpp"

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
  /// Disk-tier directory this checkpoint was loaded from (v3 only; empty for
  /// v2). Informational — the resumed run re-opens the tier through its
  /// own StoreConfig.
  std::string store_dir;
};

/// Both writers replace `path` atomically and durably (`<path>.tmp`, fsync,
/// rename, fsync of the directory): a crash or a failed write mid-save
/// leaves the previous checkpoint at `path` intact.
[[nodiscard]] support::Status save_checkpoint(const std::string& path,
                                              const SolverCheckpoint& checkpoint);

/// Writes a v3 pointer checkpoint: `store_dir` (the disk tier holding the
/// actual state) + the advisory update index.
[[nodiscard]] support::Status save_checkpoint_v3(const std::string& path,
                                                 const std::string& store_dir,
                                                 std::uint64_t update_index);

[[nodiscard]] support::StatusOr<SolverCheckpoint> load_checkpoint(
    const std::string& path);

}  // namespace asyncml::optim
