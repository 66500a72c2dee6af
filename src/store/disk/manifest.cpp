#include "store/disk/manifest.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/crc32.hpp"
#include "support/file_io.hpp"

namespace asyncml::store::disk {

using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace {

constexpr char kMagic[kManifestMagicBytes] = {'A', 'M', 'L', 'M', 'A', 'N', 'I', '1'};

constexpr std::uint8_t kTypePublish = 1;
constexpr std::uint8_t kTypeGcFloor = 2;
constexpr std::uint8_t kTypeCheckpoint = 3;

/// Sequential little-endian byte writer appending to a vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void digest(const support::Sha256Digest& d) {
    out_.insert(out_.end(), d.begin(), d.end());
  }
  void name(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked sequential reader over a record body.  Every accessor
/// reports success so a lying length can never read past the body.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> body) : body_(body) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > body_.size()) return false;
    v = body_[pos_++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > body_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(body_[pos_++]) << (8 * i);
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > body_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(body_[pos_++]) << (8 * i);
    return true;
  }
  bool digest(support::Sha256Digest& d) {
    if (pos_ + d.size() > body_.size()) return false;
    std::memcpy(d.data(), body_.data() + pos_, d.size());
    pos_ += d.size();
    return true;
  }
  bool name(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (pos_ + len > body_.size()) return false;
    s.assign(reinterpret_cast<const char*>(body_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == body_.size(); }

 private:
  std::span<const std::uint8_t> body_;
  std::size_t pos_ = 0;
};

std::vector<std::uint8_t> finish_record(std::uint8_t type,
                                        const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> record;
  record.reserve(kRecordHeaderBytes + body.size());
  Writer w(record);
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u32(support::crc32(body));
  record.insert(record.end(), body.begin(), body.end());
  return record;
}

bool decode_publish(Reader& r, PublishRecord& out) {
  std::uint8_t flags = 0;
  if (!r.u32(out.shard) || !r.u64(out.version) || !r.u64(out.parent) ||
      !r.u8(flags) || !r.digest(out.base_digest) || !r.digest(out.delta_digest) ||
      !r.u64(out.base_bytes) || !r.u64(out.delta_bytes)) {
    return false;
  }
  out.has_base = (flags & 0x1) != 0;
  out.has_delta = (flags & 0x2) != 0;
  return r.exhausted();
}

bool decode_gc_floor(Reader& r, std::uint32_t& shard, std::uint64_t& floor) {
  return r.u32(shard) && r.u64(floor) && r.exhausted();
}

bool decode_checkpoint(Reader& r, CheckpointRecord& out) {
  if (!r.u64(out.update_index) || !r.u64(out.model_version) || !r.u64(out.round) ||
      !r.digest(out.model_digest)) {
    return false;
  }
  std::uint32_t n = 0;
  if (!r.u32(n)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!r.name(name) || !r.u64(value)) return false;
    out.counters.emplace_back(std::move(name), value);
  }
  if (!r.u32(n)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    support::Sha256Digest digest{};
    if (!r.name(name) || !r.digest(digest)) return false;
    out.aux.emplace_back(std::move(name), digest);
  }
  return r.exhausted();
}

}  // namespace

std::vector<std::uint8_t> manifest_header() {
  return std::vector<std::uint8_t>(kMagic, kMagic + kManifestMagicBytes);
}

std::vector<std::uint8_t> encode_publish_record(const PublishRecord& r) {
  std::vector<std::uint8_t> body;
  Writer w(body);
  w.u32(r.shard);
  w.u64(r.version);
  w.u64(r.parent);
  w.u8(static_cast<std::uint8_t>((r.has_base ? 0x1 : 0x0) | (r.has_delta ? 0x2 : 0x0)));
  w.digest(r.base_digest);
  w.digest(r.delta_digest);
  w.u64(r.base_bytes);
  w.u64(r.delta_bytes);
  return finish_record(kTypePublish, body);
}

std::vector<std::uint8_t> encode_gc_floor_record(std::uint32_t shard,
                                                 std::uint64_t floor) {
  std::vector<std::uint8_t> body;
  Writer w(body);
  w.u32(shard);
  w.u64(floor);
  return finish_record(kTypeGcFloor, body);
}

std::vector<std::uint8_t> encode_checkpoint_record(const CheckpointRecord& r) {
  std::vector<std::uint8_t> body;
  Writer w(body);
  w.u64(r.update_index);
  w.u64(r.model_version);
  w.u64(r.round);
  w.digest(r.model_digest);
  w.u32(static_cast<std::uint32_t>(r.counters.size()));
  for (const auto& [name, value] : r.counters) {
    w.name(name);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(r.aux.size()));
  for (const auto& [name, digest] : r.aux) {
    w.name(name);
    w.digest(digest);
  }
  return finish_record(kTypeCheckpoint, body);
}

StatusOr<ManifestState> decode_manifest(std::span<const std::uint8_t> file) {
  if (file.size() < kManifestMagicBytes ||
      std::memcmp(file.data(), kMagic, kManifestMagicBytes) != 0) {
    return Status(StatusCode::kDataLoss, "manifest: bad or missing file header");
  }
  ManifestState state;
  std::size_t pos = kManifestMagicBytes;
  state.valid_bytes = pos;
  while (pos < file.size()) {
    // A record that does not fully fit (header or body) is a torn tail, not
    // an error: stop at the last intact record.
    if (pos + kRecordHeaderBytes > file.size()) {
      state.torn_tail = true;
      break;
    }
    const std::uint8_t type = file[pos];
    std::uint32_t body_len = 0;
    std::uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      body_len |= static_cast<std::uint32_t>(file[pos + 1 + i]) << (8 * i);
      crc |= static_cast<std::uint32_t>(file[pos + 5 + i]) << (8 * i);
    }
    if (pos + kRecordHeaderBytes + body_len > file.size()) {
      state.torn_tail = true;
      break;
    }
    const std::span<const std::uint8_t> body =
        file.subspan(pos + kRecordHeaderBytes, body_len);
    if (support::crc32(body) != crc) {
      state.torn_tail = true;
      break;
    }
    Reader r(body);
    bool intact = true;
    switch (type) {
      case kTypePublish: {
        PublishRecord rec;
        intact = decode_publish(r, rec);
        if (intact) state.shards[rec.shard][rec.version] = rec;  // last wins
        break;
      }
      case kTypeGcFloor: {
        std::uint32_t shard = 0;
        std::uint64_t floor = 0;
        intact = decode_gc_floor(r, shard, floor);
        if (intact) {
          auto& slot = state.gc_floors[shard];
          if (floor > slot) slot = floor;
        }
        break;
      }
      case kTypeCheckpoint: {
        CheckpointRecord rec;
        intact = decode_checkpoint(r, rec);
        if (intact) state.checkpoints.push_back(std::move(rec));
        break;
      }
      default:
        // Unknown type with a valid CRC: a newer writer's record. Skip it.
        ++state.skipped_unknown;
        break;
    }
    if (!intact) {
      // Valid CRC but a malformed body is real corruption, not a torn tail;
      // still stop here — nothing after an undecodable record can be trusted
      // to mean what it says.
      state.torn_tail = true;
      break;
    }
    ++state.records;
    pos += kRecordHeaderBytes + body_len;
    state.valid_bytes = pos;
  }
  return state;
}

ManifestWriter::~ManifestWriter() { close(); }

Status ManifestWriter::open(const std::string& path, std::uint64_t truncate_to,
                            bool do_fsync) {
  close();
  fsync_ = do_fsync;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status(StatusCode::kUnavailable,
                  "manifest: open " + path + ": " + std::strerror(errno));
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) {
    close();
    return Status(StatusCode::kUnavailable,
                  "manifest: lseek " + path + ": " + std::strerror(errno));
  }
  if (truncate_to > 0 && static_cast<std::uint64_t>(size) > truncate_to) {
    if (::ftruncate(fd_, static_cast<off_t>(truncate_to)) != 0) {
      const int err = errno;
      close();
      return Status(StatusCode::kUnavailable,
                    "manifest: ftruncate " + path + ": " + std::strerror(err));
    }
  }
  if (size == 0) {
    const std::vector<std::uint8_t> header = manifest_header();
    if (Status s = append(header); !s.is_ok()) {
      close();
      return s;
    }
  }
  return Status::ok();
}

Status ManifestWriter::append(std::span<const std::uint8_t> records) {
  if (fd_ < 0) {
    return Status(StatusCode::kFailedPrecondition, "manifest: writer not open");
  }
  if (Status s = support::write_all(fd_, records, "MANIFEST"); !s.is_ok()) return s;
  if (fsync_ && ::fsync(fd_) != 0) {
    return Status(StatusCode::kUnavailable,
                  std::string("manifest: fsync: ") + std::strerror(errno));
  }
  return Status::ok();
}

void ManifestWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace asyncml::store::disk
