#include "support/file_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace asyncml::support {

namespace {

Status io_error(const std::string& what, const std::string& path, int err) {
  return Status(StatusCode::kUnavailable, what + " " + path + ": " + std::strerror(err));
}

}  // namespace

Status write_all(int fd, std::span<const std::uint8_t> bytes, const std::string& path) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("write", path, errno);
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return io_error("open", dir, errno);
  const bool synced = ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  return synced ? Status::ok() : io_error("fsync", dir, err);
}

Status replace_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error("open", tmp, errno);
  Status s = write_all(fd, bytes, tmp);
  if (s.is_ok() && ::fsync(fd) != 0) s = io_error("fsync", tmp, errno);
  if (::close(fd) != 0 && s.is_ok()) s = io_error("close", tmp, errno);
  if (s.is_ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    s = io_error("rename", tmp, errno);
  }
  if (!s.is_ok()) {
    std::remove(tmp.c_str());
    return s;
  }
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  return sync_dir(parent.empty() ? "." : parent.string());
}

}  // namespace asyncml::support
