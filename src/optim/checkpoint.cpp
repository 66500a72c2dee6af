#include "optim/checkpoint.hpp"

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "engine/payload.hpp"
#include "store/disk/blob_store.hpp"
#include "store/disk/disk_tier.hpp"
#include "store/disk/manifest.hpp"
#include "store/store_config.hpp"
#include "support/file_io.hpp"
#include "transport/wire.hpp"

namespace asyncml::optim {

namespace fs = std::filesystem;
using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace {

constexpr char kMagic[8] = {'A', 'M', 'L', 'C', 'K', 'P', 'T', '3'};
constexpr std::uint32_t kMaxDirBytes = 4096;

template <typename T>
bool read_raw(std::istream& in, T& v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(&v), sizeof(v)));
}

template <typename T>
void append_raw(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// The directory the pointer at `path` names. Its advisory update index is
/// read only to check the pointer is whole: the loader trusts the manifest.
StatusOr<std::string> read_pointer(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status(StatusCode::kNotFound, "checkpoint: cannot open " + path);
  char magic[sizeof(kMagic)] = {};
  if (!in.read(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: bad magic");
  }
  std::uint32_t dir_bytes = 0;
  if (!read_raw(in, dir_bytes) || dir_bytes > kMaxDirBytes) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: bad directory length");
  }
  std::string dir(dir_bytes, '\0');
  std::uint64_t update_index = 0;
  if (!in.read(dir.data(), dir_bytes) || !read_raw(in, update_index)) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: truncated pointer");
  }
  return dir;
}

/// The two directories a self-contained checkpoint at `path` alternates
/// between.
std::array<std::string, 2> own_dirs(const std::string& path) {
  return {path + ".0", path + ".1"};
}

/// The commit point of every save: atomically replaces the pointer at `path`
/// with one naming `dir`, then removes the self-contained directories of
/// `path` it no longer names.
Status point_to(const std::string& path, const std::string& dir,
                std::uint64_t update_index) {
  std::string bytes(kMagic, sizeof(kMagic));
  append_raw(bytes, static_cast<std::uint32_t>(dir.size()));
  bytes += dir;
  append_raw(bytes, update_index);
  const Status s = support::replace_file(
      path, {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  if (!s.is_ok()) {
    return Status(StatusCode::kInternal,
                  "checkpoint: cannot write " + path + ": " + s.message());
  }
  for (const std::string& own : own_dirs(path)) {
    std::error_code ec;
    if (own != dir) fs::remove_all(own, ec);
  }
  return Status::ok();
}

engine::Payload dense_payload(const linalg::DenseVector& v) {
  return engine::Payload::wrap<linalg::DenseVector>(v, v.size_bytes());
}

/// Materializes the dense vector stored under `digest`, or nullopt when the
/// blob is missing/corrupt (the blob store quarantines it) or holds a payload
/// of an unexpected kind.
std::optional<linalg::DenseVector> fetch_dense(store::disk::BlobStore& blobs,
                                               const support::Sha256Digest& digest) {
  auto bytes = blobs.get(digest);
  if (!bytes.is_ok()) return std::nullopt;
  auto payload = transport::decode_payload_envelope(bytes.value(),
                                                    /*opaque_source=*/nullptr);
  if (!payload.is_ok() || !payload.value().holds<linalg::DenseVector>()) {
    return std::nullopt;
  }
  return payload.value().get<linalg::DenseVector>();
}

/// Commits `checkpoint` as one record of `tier`, with its model and aux
/// blobs.
Status commit_record(store::disk::DiskTier& tier, const SolverCheckpoint& checkpoint) {
  store::disk::CheckpointRecord rec;
  rec.update_index = checkpoint.update_index;
  rec.model_version = checkpoint.model_version;
  rec.round = checkpoint.round;
  rec.counters.assign(checkpoint.counters.begin(), checkpoint.counters.end());
  std::vector<std::pair<std::string, engine::Payload>> aux;
  for (const auto& [name, v] : checkpoint.aux) aux.emplace_back(name, dense_payload(v));
  // The model is its own blob: solvers snapshot *after* advance_version, so
  // it is not yet published (and content addressing dedups the write when it
  // is).
  return tier.checkpoint(std::move(rec), dense_payload(checkpoint.model), std::move(aux));
}

}  // namespace

Status save_checkpoint(const std::string& path, const SolverCheckpoint& checkpoint,
                       store::disk::DiskTier& tier) {
  if (Status s = commit_record(tier, checkpoint); !s.is_ok()) return s;
  return point_to(path, tier.dir(), checkpoint.update_index);
}

Status save_checkpoint(const std::string& path, const SolverCheckpoint& checkpoint) {
  // Commit into the directory the pointer does not name; whatever a crashed
  // earlier save left there is garbage.
  const auto dirs = own_dirs(path);
  const auto current = read_pointer(path);
  const std::string& dir =
      current.is_ok() && current.value() == dirs[0] ? dirs[1] : dirs[0];
  std::error_code ec;
  fs::remove_all(dir, ec);
  Status s = Status::ok();
  {
    store::DiskTierConfig cfg;
    cfg.dir = dir;
    auto tier = store::disk::DiskTier::open(cfg, store::disk::OpenMode::kFresh);
    s = tier.is_ok() ? commit_record(*tier.value(), checkpoint) : tier.status();
  }
  // The tier synced everything inside `dir`; its own name becomes durable
  // before the pointer may name it.
  const fs::path parent = fs::path(dir).parent_path();
  if (s.is_ok()) s = support::sync_dir(parent.empty() ? "." : parent.string());
  if (!s.is_ok()) {
    fs::remove_all(dir, ec);
    return s;
  }
  // A failed flip keeps `dir`: its rename may have landed before a failing
  // directory sync, and if it did not, the next save clears `dir`.
  return point_to(path, dir, checkpoint.update_index);
}

StatusOr<SolverCheckpoint> load_checkpoint(const std::string& path) {
  auto pointer = read_pointer(path);
  if (!pointer.is_ok()) return pointer.status();
  const std::string store_dir = std::move(pointer).value();

  // Replayed read-only — deliberately *not* through DiskTier, which would
  // open a second manifest writer against a directory the resumed run is
  // about to reopen.
  const std::string manifest_path = store_dir + "/MANIFEST";
  std::ifstream mf(manifest_path, std::ios::binary);
  if (!mf) {
    return Status(StatusCode::kDataLoss,
                  "checkpoint: store manifest missing: " + manifest_path);
  }
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(mf)), std::istreambuf_iterator<char>());
  auto decoded = store::disk::decode_manifest(bytes);
  if (!decoded.is_ok()) return decoded.status();
  const store::disk::ManifestState state = std::move(decoded).value();
  if (state.checkpoints.empty()) {
    return Status(StatusCode::kDataLoss,
                  "checkpoint: no checkpoint records in " + manifest_path);
  }

  store::DiskTierConfig cfg;
  cfg.dir = store_dir;
  store::disk::BlobStore blobs(store_dir, cfg);
  if (Status s = blobs.init(); !s.is_ok()) return s;

  // Newest record first; a record with any unverifiable blob falls back to
  // the next older one — any intact checkpoint k resumes bit-exactly at k.
  for (auto it = state.checkpoints.rbegin(); it != state.checkpoints.rend(); ++it) {
    const store::disk::CheckpointRecord& rec = *it;
    std::optional<linalg::DenseVector> model = fetch_dense(blobs, rec.model_digest);
    if (!model.has_value()) continue;
    SolverCheckpoint cp;
    cp.update_index = rec.update_index;
    cp.model_version = rec.model_version;
    cp.round = rec.round;
    cp.model = std::move(*model);
    cp.store_dir = store_dir;
    for (const auto& [name, value] : rec.counters) cp.counters[name] = value;
    bool aux_ok = true;
    for (const auto& [name, digest] : rec.aux) {
      std::optional<linalg::DenseVector> vec = fetch_dense(blobs, digest);
      if (!vec.has_value()) {
        aux_ok = false;
        break;
      }
      cp.aux.emplace(name, std::move(*vec));
    }
    if (!aux_ok) continue;
    return cp;
  }
  return Status(StatusCode::kDataLoss,
                "checkpoint: every checkpoint record in " + manifest_path +
                    " has lost or corrupt blobs");
}

}  // namespace asyncml::optim
