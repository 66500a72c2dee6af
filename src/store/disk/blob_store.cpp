#include "store/disk/blob_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "store/disk/blob.hpp"
#include "support/file_io.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_util.hpp"

namespace asyncml::store::disk {

namespace fs = std::filesystem;
using support::Sha256Digest;
using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace {

StatusOr<std::vector<std::uint8_t>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status(StatusCode::kNotFound, "blob_store: no object " + path);
    }
    return Status(StatusCode::kUnavailable,
                  "blob_store: open " + path + ": " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status(StatusCode::kUnavailable,
                    "blob_store: read " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

}  // namespace

BlobStore::BlobStore(std::string root, DiskTierConfig config,
                     engine::DiskTierMetrics* metrics, engine::FaultState* faults)
    : root_(std::move(root)), cfg_(std::move(config)), metrics_(metrics),
      faults_(faults) {}

Status BlobStore::init() {
  std::error_code ec;
  for (const char* sub : {"objects", "tmp", "quarantine"}) {
    fs::create_directories(fs::path(root_) / sub, ec);
    if (ec) {
      return Status(StatusCode::kUnavailable,
                    "blob_store: mkdir " + root_ + "/" + sub + ": " + ec.message());
    }
  }
  return Status::ok();
}

std::string BlobStore::object_path(const Sha256Digest& digest) const {
  return (fs::path(root_) / "objects" / support::sha256_hex(digest)).string();
}

bool BlobStore::contains(const Sha256Digest& digest) const {
  std::error_code ec;
  return fs::exists(object_path(digest), ec);
}

BlobStore::Batch::~Batch() {
  for (const Staged& b : staged_) {
    if (b.fd >= 0) ::close(b.fd);
    std::error_code ec;
    fs::remove(b.tmp, ec);
  }
}

bool BlobStore::Batch::failed(const Sha256Digest& digest) const {
  return std::find(failed_.begin(), failed_.end(), digest) != failed_.end();
}

std::optional<std::size_t> BlobStore::Batch::staged_bytes(
    const Sha256Digest& digest) const {
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    if (it->digest == digest) return it->file_bytes;
  }
  return std::nullopt;
}

Status BlobStore::stage_file(Batch& batch, const Sha256Digest& digest,
                             std::span<const std::uint8_t> payload,
                             engine::DiskWriteFault fault) {
  std::vector<std::uint8_t> file = encode_blob(payload);
  if (fault == engine::DiskWriteFault::kCorrupt && !payload.empty()) {
    // One payload bit flipped after the header CRC was computed: the file
    // publishes cleanly and only a verified read can tell.
    file[kBlobHeaderBytes + payload.size() / 2] ^= 0x10;
  }
  if (fault == engine::DiskWriteFault::kTorn) {
    // A crash between write and fsync leaves a prefix: header intact, payload
    // cut mid-blob. The rename still happens — exactly the lying file a real
    // torn write leaves behind.
    file.resize(kBlobHeaderBytes + payload.size() / 2);
  }

  std::uint64_t seq = 0;
  {
    std::lock_guard lock(seq_mutex_);
    seq = tmp_seq_++;
  }
  const std::string tmp =
      (fs::path(root_) / "tmp" /
       (support::sha256_hex(digest) + "." + std::to_string(::getpid()) + "." +
        std::to_string(seq)))
          .string();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status(StatusCode::kUnavailable,
                  "blob_store: open " + tmp + ": " + std::strerror(errno));
  }
  if (Status s = support::write_all(fd, file, tmp); !s.is_ok()) {
    ::close(fd);
    std::error_code ec;
    fs::remove(tmp, ec);
    return s;
  }
  batch.staged_.push_back(Batch::Staged{digest, tmp, fd, file.size(), payload.size()});
  return Status::ok();
}

StatusOr<Sha256Digest> BlobStore::stage(Batch& batch,
                                        std::span<const std::uint8_t> payload) {
  const Sha256Digest digest = support::sha256(payload);

  // Content addressing makes the write idempotent: an object of the right
  // size already IS this payload (a size mismatch means a torn earlier
  // write — fall through and rewrite it). A copy staged earlier in the batch
  // stands for the object its rename will name.
  const std::size_t file_bytes = kBlobHeaderBytes + payload.size();
  std::optional<std::size_t> existing = batch.staged_bytes(digest);
  if (!existing.has_value()) {
    std::error_code ec;
    const auto size = fs::file_size(object_path(digest), ec);
    if (!ec) existing = size;
  }
  if (existing == file_bytes) {
    if (metrics_ != nullptr) metrics_->blob_dedup_hits.add(1);
    return digest;
  }

  Status last = Status::ok();
  for (std::uint32_t attempt = 0; attempt < std::max(1u, cfg_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      if (metrics_ != nullptr) metrics_->write_retries.add(1);
      support::precise_sleep_ms(cfg_.retry_backoff_ms *
                                static_cast<double>(1u << (attempt - 1)));
    }
    engine::DiskWriteFault fault = engine::DiskWriteFault::kNone;
    if (faults_ != nullptr) fault = faults_->next_disk_write_fault();
    if (fault == engine::DiskWriteFault::kFail) {
      last = Status(StatusCode::kUnavailable, "blob_store: injected write failure");
      continue;
    }
    last = stage_file(batch, digest, payload, fault);
    if (last.is_ok()) return digest;
  }
  return last;
}

void BlobStore::commit(Batch& batch) {
  batch.failed_.clear();
  bool renamed = false;
  for (Batch::Staged& b : batch.staged_) {
    bool ok = !cfg_.fsync || ::fsync(b.fd) == 0;
    ok = ::close(b.fd) == 0 && ok;
    b.fd = -1;
    std::error_code ec;
    if (ok) {
      fs::rename(b.tmp, object_path(b.digest), ec);
      ok = !ec;
    }
    if (!ok) {
      fs::remove(b.tmp, ec);
      batch.failed_.push_back(b.digest);
      continue;
    }
    renamed = true;
    if (metrics_ != nullptr) {
      metrics_->blob_writes.add(1);
      metrics_->blob_write_bytes.add(b.payload_bytes);
    }
  }
  // One directory sync makes every rename above durable; without it a power
  // loss could drop a name that the manifest record written next relies on.
  if (renamed && cfg_.fsync &&
      !support::sync_dir((fs::path(root_) / "objects").string()).is_ok()) {
    for (const Batch::Staged& b : batch.staged_) batch.failed_.push_back(b.digest);
  }
  batch.staged_.clear();
}

StatusOr<Sha256Digest> BlobStore::put(std::span<const std::uint8_t> payload) {
  const support::Stopwatch timer;
  Batch batch;
  auto digest = stage(batch, payload);
  if (!digest.is_ok()) return digest;
  commit(batch);
  if (batch.failed(digest.value())) {
    return Status(StatusCode::kUnavailable,
                  "blob_store: commit of " + support::sha256_hex(digest.value()) +
                      " failed");
  }
  if (metrics_ != nullptr) {
    metrics_->write_ns.add(static_cast<std::uint64_t>(timer.elapsed().count()));
  }
  return digest;
}

void BlobStore::quarantine(const Sha256Digest& digest) {
  const std::string hex = support::sha256_hex(digest);
  std::error_code ec;
  // Keep every quarantined image (".0", ".1", …): a re-published object that
  // corrupts again must not overwrite the earlier evidence.
  for (int n = 0; n < 1000; ++n) {
    const fs::path dst =
        fs::path(root_) / "quarantine" / (hex + "." + std::to_string(n));
    if (fs::exists(dst, ec)) continue;
    fs::rename(object_path(digest), dst, ec);
    break;
  }
  if (metrics_ != nullptr) metrics_->quarantines.add(1);
}

StatusOr<std::vector<std::uint8_t>> BlobStore::get(const Sha256Digest& digest) {
  const support::Stopwatch timer;
  Status last = Status::ok();
  for (std::uint32_t attempt = 0; attempt < std::max(1u, cfg_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      if (metrics_ != nullptr) metrics_->read_retries.add(1);
      support::precise_sleep_ms(cfg_.retry_backoff_ms *
                                static_cast<double>(1u << (attempt - 1)));
    }
    if (faults_ != nullptr && faults_->should_fail_disk_read()) {
      last = Status(StatusCode::kUnavailable, "blob_store: injected read failure");
      continue;
    }
    auto bytes = read_file(object_path(digest));
    if (!bytes.is_ok()) {
      last = bytes.status();
      if (last.code() == StatusCode::kNotFound) return last;  // not transient
      continue;
    }
    auto payload = decode_blob(bytes.value(), digest);
    if (!payload.is_ok()) {
      // Corruption is permanent: quarantine the object and report kDataLoss
      // so the caller falls back instead of retrying the same bad bytes.
      quarantine(digest);
      return Status(StatusCode::kDataLoss,
                    "blob_store: object " + support::sha256_hex(digest) +
                        " quarantined: " + payload.status().message());
    }
    std::vector<std::uint8_t> out(payload.value().begin(), payload.value().end());
    if (metrics_ != nullptr) {
      metrics_->blob_reads.add(1);
      metrics_->blob_read_bytes.add(out.size());
      metrics_->read_ns.add(static_cast<std::uint64_t>(timer.elapsed().count()));
    }
    return out;
  }
  return last;
}

}  // namespace asyncml::store::disk
