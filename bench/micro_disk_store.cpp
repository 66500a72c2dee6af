// Microbenchmark — the durable tier's hot costs (docs/DURABILITY.md).
//
// Three numbers the durability knobs trade against:
//
//   * blob write / read ns per payload (header + CRC + sha256 + file I/O,
//     fsync off so the content pipeline is what's measured, not the device);
//   * checkpoint size: a self-contained checkpoint's directory (one manifest
//     record and its blobs, summed) vs the pointer file that names it — the
//     pointer is O(1) regardless of model dimension;
//   * cold-restore wall time: manifest replay + restore_from_manifest + the
//     lazy chain walk that faults one full delta chain in from disk — the
//     restart-without-replay path a rejoining coordinator pays once.
//
// No google-benchmark dependency: plain wall-clock over enough iterations to
// dominate timer noise.

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "optim/checkpoint.hpp"
#include "store/disk/disk_tier.hpp"
#include "store/model_cache.hpp"
#include "store/model_store.hpp"

using namespace asyncml;

namespace {

namespace fs = std::filesystem;

store::DiskTierConfig tier_config(const std::string& dir) {
  store::DiskTierConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  cfg.fsync = false;  // measure the pipeline, not the device's flush latency
  return cfg;
}

std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("asyncml_bench_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

engine::Payload payload_of(const linalg::DenseVector& w) {
  return engine::Payload::wrap<linalg::DenseVector>(w, w.size_bytes());
}

linalg::DenseVector make_model(std::size_t dim, std::uint64_t salt) {
  linalg::DenseVector w(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    w[i] = static_cast<double>((i * 2654435761u + salt) % 1000) / 997.0;
  }
  return w;
}

}  // namespace

int main() {
  bench::banner("Micro: durable disk tier — blob I/O, checkpoint size, cold restore",
                "durability is write-through after commit: blob costs are off the "
                "update path, a checkpoint file is an O(1) pointer, and a restart "
                "anchors on the manifest instead of replaying updates");

  constexpr std::size_t kDim = 16384;   // 128 KiB payloads
  constexpr int kIoIters = 200;
  constexpr engine::Version kChain = 64;  // one base + 63 deltas to cold-restore

  std::vector<std::pair<std::string, double>> json;
  std::vector<std::string> rows;
  metrics::Table table({"metric", "value"});

  // -- blob write / read ns --------------------------------------------------
  const std::string io_dir = scratch_dir("disk_io");
  {
    auto tier = store::disk::DiskTier::open(tier_config(io_dir),
                                            store::disk::OpenMode::kFresh)
                    .value();
    std::vector<support::Sha256Digest> digests;
    digests.reserve(kIoIters);
    support::Stopwatch write_watch;
    for (int i = 0; i < kIoIters; ++i) {
      digests.push_back(
          tier->put_payload(payload_of(make_model(kDim, i))).value());
    }
    const double write_ns = write_watch.elapsed_ms() * 1e6 / kIoIters;

    // Reads through a fresh tier instance: every fetch is a verified file
    // read (hash + CRC).
    tier.reset();
    auto cold = store::disk::DiskTier::open(tier_config(io_dir),
                                            store::disk::OpenMode::kResume)
                    .value();
    support::Stopwatch read_watch;
    for (const auto& d : digests) {
      if (!cold->fetch_payload(d).is_ok()) std::abort();
    }
    const double read_ns = read_watch.elapsed_ms() * 1e6 / kIoIters;

    table.add_row({"blob write ns (128 KiB payload)",
                   std::to_string(static_cast<long long>(write_ns))});
    table.add_row({"blob read ns (verified, cold)",
                   std::to_string(static_cast<long long>(read_ns))});
    json.emplace_back("micro_disk_store.io.write_ns", write_ns);
    json.emplace_back("micro_disk_store.io.read_ns", read_ns);
    std::ostringstream os;
    os << "blob_io," << write_ns << ',' << read_ns;
    rows.push_back(os.str());
  }
  fs::remove_all(io_dir);

  // -- checkpoint size: self-contained directory vs its pointer --------------
  const std::string ck_dir = scratch_dir("disk_ckpt");
  {
    optim::SolverCheckpoint cp;
    cp.update_index = 100;
    cp.model_version = 100;
    cp.round = 200;
    cp.model = make_model(kDim, 1);
    cp.counters["tasks_completed"] = 400;

    fs::create_directories(ck_dir);
    const std::string path = ck_dir + "/ckpt";
    if (!optim::save_checkpoint(path, cp).is_ok()) std::abort();
    const auto loaded = optim::load_checkpoint(path);
    if (!loaded.is_ok()) std::abort();

    double dir_bytes = 0.0;
    for (const auto& entry : fs::recursive_directory_iterator(loaded.value().store_dir)) {
      if (entry.is_regular_file()) dir_bytes += static_cast<double>(entry.file_size());
    }
    const double pointer_bytes = static_cast<double>(fs::file_size(path));
    table.add_row({"checkpoint bytes (self-contained directory)",
                   std::to_string(static_cast<long long>(dir_bytes))});
    table.add_row({"checkpoint bytes (pointer)",
                   std::to_string(static_cast<long long>(pointer_bytes))});
    json.emplace_back("micro_disk_store.ckpt.dir_bytes", dir_bytes);
    json.emplace_back("micro_disk_store.ckpt.pointer_bytes", pointer_bytes);
    json.emplace_back("micro_disk_store.ckpt.dir_over_pointer",
                      dir_bytes / pointer_bytes);
    std::ostringstream os;
    os << "ckpt_bytes," << dir_bytes << ',' << pointer_bytes;
    rows.push_back(os.str());
  }
  fs::remove_all(ck_dir);

  // -- cold restore: manifest replay + lazy chain fault-in -------------------
  const std::string re_dir = scratch_dir("disk_restore");
  {
    {
      engine::BroadcastStore broadcasts;
      store::StoreConfig cfg;
      cfg.base_interval = kChain;  // one long delta chain
      store::ModelStore model_store(&broadcasts, cfg);
      model_store.attach_disk(store::disk::DiskTier::open(
                                  tier_config(re_dir), store::disk::OpenMode::kFresh)
                                  .value());
      support::RngStream rng(7);
      linalg::DenseVector w(kDim);
      for (engine::Version v = 0; v < kChain; ++v) {
        for (int t = 0; t < 16; ++t) {
          w[rng.next_below(kDim)] += rng.uniform(-1.0, 1.0);
        }
        model_store.publish(w, v);
      }
    }

    constexpr int kRestoreIters = 20;
    double total_ms = 0.0;
    for (int it = -2; it < kRestoreIters; ++it) {  // negatives warm the page cache
      support::Stopwatch watch;
      engine::BroadcastStore broadcasts;
      store::StoreConfig cfg;
      cfg.base_interval = kChain;
      store::ModelStore model_store(&broadcasts, cfg);
      model_store.attach_disk(store::disk::DiskTier::open(
                                  tier_config(re_dir), store::disk::OpenMode::kResume)
                                  .value());
      model_store.restore_from_manifest(
          model_store.disk_tier()->restored().shards.at(0), 0, kChain - 1);
      const auto w = model_store.driver_cache().value_at(kChain - 1);
      if (w->size() != kDim) std::abort();
      if (it >= 0) total_ms += watch.elapsed_ms();
    }
    const double restore_ms = total_ms / kRestoreIters;
    table.add_row({"cold restore ms (64-version chain)",
                   metrics::Table::num(restore_ms, 3)});
    json.emplace_back("micro_disk_store.restore.walk_ms", restore_ms);
    std::ostringstream os;
    os << "cold_restore," << restore_ms << ",0";
    rows.push_back(os.str());
  }
  fs::remove_all(re_dir);

  bench::write_csv("micro_disk_store.csv", "case,a,b", rows);
  bench::update_bench_json(json);
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nshape check: the pointer stays O(1) while the directory it "
               "names scales with dim; cold restore is a manifest replay plus "
               "one chain fault-in — milliseconds, independent of how many "
               "updates the killed run had executed.\n";
  return 0;
}
