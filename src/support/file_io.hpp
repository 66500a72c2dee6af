#pragma once

// Durable file primitives over POSIX descriptors: whole-buffer writes,
// directory syncs, and the atomic replacement of a small file.
//
// A rename or a new file is durable only once its *directory* is synced:
// fsync of the file persists its bytes, not the name that points at them.

#include <cstdint>
#include <span>
#include <string>

#include "support/status.hpp"

namespace asyncml::support {

/// Writes all of `bytes` to `fd`, resuming short and EINTR-interrupted
/// writes. `path` names the file in the error.
[[nodiscard]] Status write_all(int fd, std::span<const std::uint8_t> bytes,
                               const std::string& path);

/// fsyncs the directory `dir`, so the names created or renamed in it
/// survive a power loss.
[[nodiscard]] Status sync_dir(const std::string& dir);

/// Replaces `path` atomically and durably: writes `<path>.tmp`, fsyncs it,
/// renames it over `path`, then fsyncs the parent directory. Any failure
/// leaves the previous file at `path` as it was.
[[nodiscard]] Status replace_file(const std::string& path,
                                  std::span<const std::uint8_t> bytes);

}  // namespace asyncml::support
