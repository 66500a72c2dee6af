#include "optim/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <vector>

#include "engine/payload.hpp"
#include "store/disk/blob_store.hpp"
#include "store/disk/manifest.hpp"
#include "store/store_config.hpp"
#include "support/file_io.hpp"
#include "transport/wire.hpp"

namespace asyncml::optim {

using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace {

constexpr char kMagicV2[8] = {'A', 'M', 'L', 'C', 'K', 'P', 'T', '2'};
constexpr char kMagicV3[8] = {'A', 'M', 'L', 'C', 'K', 'P', 'T', '3'};

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
bool read_u32(std::istream& in, std::uint32_t& v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(&v), sizeof(v)));
}
bool read_u64(std::istream& in, std::uint64_t& v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(&v), sizeof(v)));
}

void write_name(std::ostream& out, const std::string& name) {
  write_u32(out, static_cast<std::uint32_t>(name.size()));
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
}

void write_vector(std::ostream& out, const std::string& name,
                  const linalg::DenseVector& v) {
  write_name(out, name);
  write_u64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size_bytes()));
}

/// Bytes left between the stream position and end-of-file; the loader
/// validates every claimed length against this so a corrupted header can
/// never drive a multi-gigabyte allocation (an earlier loader crashed with
/// bad_alloc on exactly that input).
std::uint64_t bytes_remaining(std::istream& in) {
  const auto pos = in.tellg();
  if (pos < 0) return 0;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  return end > pos ? static_cast<std::uint64_t>(end - pos) : 0;
}

StatusOr<std::string> read_name(std::istream& in) {
  std::uint32_t name_len = 0;
  if (!read_u32(in, name_len) || name_len > 4096) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: bad name length");
  }
  std::string name(name_len, '\0');
  if (!in.read(name.data(), name_len)) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: truncated name");
  }
  return name;
}

StatusOr<std::pair<std::string, linalg::DenseVector>> read_vector(std::istream& in) {
  auto name = read_name(in);
  if (!name.is_ok()) return name.status();
  std::uint64_t dim = 0;
  if (!read_u64(in, dim) || dim > (1ULL << 32)) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: bad vector size");
  }
  if (dim * sizeof(double) > bytes_remaining(in)) {
    return Status(StatusCode::kInvalidArgument,
                  "checkpoint: vector length overruns file");
  }
  try {
    linalg::DenseVector v(dim);
    if (!in.read(reinterpret_cast<char*>(v.data()),
                 static_cast<std::streamsize>(v.size_bytes()))) {
      return Status(StatusCode::kInvalidArgument, "checkpoint: truncated vector data");
    }
    return std::make_pair(std::move(name).value(), std::move(v));
  } catch (const std::bad_alloc&) {
    return Status(StatusCode::kInternal, "checkpoint: vector allocation failed");
  }
}

Status read_vectors(std::istream& in, SolverCheckpoint& checkpoint) {
  std::uint32_t vectors = 0;
  if (!read_u32(in, vectors) || vectors == 0 || vectors > 10'000) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: bad vector count");
  }
  bool saw_model = false;
  for (std::uint32_t i = 0; i < vectors; ++i) {
    auto entry = read_vector(in);
    if (!entry.is_ok()) return entry.status();
    auto [name, vec] = std::move(entry).value();
    if (name == "model") {
      checkpoint.model = std::move(vec);
      saw_model = true;
    } else {
      checkpoint.aux.emplace(std::move(name), std::move(vec));
    }
  }
  if (!saw_model) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: missing model vector");
  }
  return Status::ok();
}

/// Replaces the checkpoint at `path` with `bytes` atomically and durably: a
/// crash or a failed write mid-save leaves the previous checkpoint intact.
Status replace_with(const std::string& path, const std::string& bytes) {
  const Status s = support::replace_file(
      path, {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  if (!s.is_ok()) {
    return Status(StatusCode::kInternal, "checkpoint: cannot write " + path + ": " +
                                             s.message());
  }
  return Status::ok();
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

/// v3 load: the stream holds only a pointer (store_dir + advisory index); the
/// actual state is replayed read-only from the tier's manifest and blobs —
/// deliberately *not* through DiskTier, which would open a second manifest
/// writer against a directory the resumed run is about to reopen.
StatusOr<SolverCheckpoint> load_checkpoint_v3(std::istream& in) {
  auto dir = read_name(in);
  if (!dir.is_ok()) return dir.status();
  const std::string store_dir = std::move(dir).value();
  std::uint64_t advisory_index = 0;
  if (!read_u64(in, advisory_index)) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: truncated v3 pointer");
  }

  const std::string manifest_path = store_dir + "/MANIFEST";
  std::ifstream mf(manifest_path, std::ios::binary);
  if (!mf) {
    return Status(StatusCode::kDataLoss,
                  "checkpoint: v3 store manifest missing: " + manifest_path);
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

}  // namespace

Status save_checkpoint(const std::string& path, const SolverCheckpoint& checkpoint) {
  for (const auto& [name, vec] : checkpoint.aux) {
    (void)vec;
    if (name == "model") {
      return Status(StatusCode::kInvalidArgument,
                    "checkpoint: aux name 'model' is reserved");
    }
  }
  std::ostringstream out;
  out.write(kMagicV2, sizeof(kMagicV2));
  write_u64(out, checkpoint.update_index);
  write_u64(out, checkpoint.model_version);
  write_u64(out, checkpoint.round);
  write_u32(out, static_cast<std::uint32_t>(checkpoint.counters.size()));
  for (const auto& [name, value] : checkpoint.counters) {
    write_name(out, name);
    write_u64(out, value);
  }
  write_u32(out, static_cast<std::uint32_t>(1 + checkpoint.aux.size()));
  write_vector(out, "model", checkpoint.model);
  for (const auto& [name, vec] : checkpoint.aux) {
    write_vector(out, name, vec);
  }
  return replace_with(path, out.str());
}

Status save_checkpoint_v3(const std::string& path, const std::string& store_dir,
                          std::uint64_t update_index) {
  std::ostringstream out;
  out.write(kMagicV3, sizeof(kMagicV3));
  write_name(out, store_dir);
  write_u64(out, update_index);
  return replace_with(path, out.str());
}

StatusOr<SolverCheckpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status(StatusCode::kNotFound, "checkpoint: cannot open " + path);

  char magic[sizeof(kMagicV2)] = {};
  if (!in.read(magic, sizeof(magic))) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: bad magic");
  }
  if (std::memcmp(magic, kMagicV3, sizeof(kMagicV3)) == 0) {
    return load_checkpoint_v3(in);
  }
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: bad magic");
  }

  SolverCheckpoint checkpoint;
  if (!read_u64(in, checkpoint.update_index) || !read_u64(in, checkpoint.model_version) ||
      !read_u64(in, checkpoint.round)) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: truncated header");
  }
  std::uint32_t counters = 0;
  if (!read_u32(in, counters) || counters > 10'000) {
    return Status(StatusCode::kInvalidArgument, "checkpoint: bad counter count");
  }
  for (std::uint32_t i = 0; i < counters; ++i) {
    auto name = read_name(in);
    if (!name.is_ok()) return name.status();
    std::uint64_t value = 0;
    if (!read_u64(in, value)) {
      return Status(StatusCode::kInvalidArgument, "checkpoint: truncated counter");
    }
    checkpoint.counters.emplace(std::move(name).value(), value);
  }
  const Status vectors = read_vectors(in, checkpoint);
  if (!vectors.is_ok()) return vectors;
  return checkpoint;
}

}  // namespace asyncml::optim
