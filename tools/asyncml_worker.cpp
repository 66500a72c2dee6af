// Out-of-process wire endpoint launcher (docs/TRANSPORT.md).
//
// The socket transport backend spawns one of these per worker. It connects
// back to the driver (--uds PATH), introduces itself with
// a kHello frame, and then serves decode→validate→re-encode round trips via
// transport::run_worker_endpoint until shutdown or driver EOF.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "transport/endpoint.hpp"
#include "transport/socket.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --uds PATH --worker ID"
               " [--max-frame BYTES] [--hello-deadline-ms MS]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using asyncml::transport::EndpointOptions;
  using asyncml::transport::ScopedFd;

  std::string uds_path;
  EndpointOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--uds") {
      uds_path = next("--uds");
    } else if (arg == "--worker") {
      opts.worker = static_cast<std::int32_t>(std::strtol(next("--worker"), nullptr, 10));
    } else if (arg == "--max-frame") {
      opts.max_frame_bytes = std::strtoull(next("--max-frame"), nullptr, 10);
    } else if (arg == "--hello-deadline-ms") {
      opts.hello_deadline_ms = std::strtod(next("--hello-deadline-ms"), nullptr);
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.worker < 0 || uds_path.empty() || opts.max_frame_bytes == 0) {
    return usage(argv[0]);
  }

  asyncml::support::StatusOr<ScopedFd> fd =
      asyncml::transport::connect_unix(uds_path, opts.hello_deadline_ms);
  if (!fd.is_ok()) {
    std::fprintf(stderr, "asyncml_worker[%d]: connect failed: %s\n", opts.worker,
                 fd.status().to_string().c_str());
    return 1;
  }
  return asyncml::transport::run_worker_endpoint(fd.value().get(), opts);
}
