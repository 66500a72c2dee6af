#include "optim/checkpoint.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/async_context.hpp"
#include "engine/cluster.hpp"
#include "optim/solver_util.hpp"

namespace asyncml::optim {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Removes the pointer at `path` and both of its self-contained directories.
void remove_checkpoint(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove_all(path + ".0");
  std::filesystem::remove_all(path + ".1");
}

TEST(Checkpoint, RoundTripModelAndAux) {
  SolverCheckpoint cp;
  cp.update_index = 1234;
  cp.model = linalg::DenseVector{1.0, -2.5, 3.25};
  cp.aux["alpha_bar"] = linalg::DenseVector{0.5, 0.5, 0.5};
  cp.aux["momentum"] = linalg::DenseVector{9.0};

  const std::string path = temp_path("asyncml_ckpt_roundtrip.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());

  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok());
  const SolverCheckpoint& back = loaded.value();
  EXPECT_EQ(back.update_index, 1234u);
  EXPECT_EQ(back.model, cp.model);
  ASSERT_EQ(back.aux.size(), 2u);
  EXPECT_EQ(back.aux.at("alpha_bar"), cp.aux.at("alpha_bar"));
  EXPECT_EQ(back.aux.at("momentum"), cp.aux.at("momentum"));
  remove_checkpoint(path);
}

TEST(Checkpoint, EmptyAuxAllowed) {
  SolverCheckpoint cp;
  cp.model = linalg::DenseVector{42.0};
  const std::string path = temp_path("asyncml_ckpt_noaux.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_TRUE(loaded.value().aux.empty());
  remove_checkpoint(path);
}

TEST(Checkpoint, MissingFileIsNotFound) {
  const auto loaded = load_checkpoint("/nonexistent/dir/ckpt.bin");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kNotFound);
}

TEST(Checkpoint, TruncatedFileRejected) {
  SolverCheckpoint cp;
  cp.update_index = 7;
  cp.model = linalg::DenseVector(64, 1.0);
  const std::string path = temp_path("asyncml_ckpt_trunc.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());
  // Every proper prefix of the pointer: inside the magic, the directory
  // length, the directory name and the advisory index.
  const auto size = std::filesystem::file_size(path);
  for (auto len = size; len-- > 0;) {
    std::filesystem::resize_file(path, len);
    const auto loaded = load_checkpoint(path);
    ASSERT_FALSE(loaded.is_ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(loaded.status().code(), support::StatusCode::kInvalidArgument);
  }
  remove_checkpoint(path);
}

// A save that fails mid-write must leave the previous checkpoint loadable:
// the file is replaced atomically, never truncated in place. The forked
// child lowers its file-size limit below the second checkpoint's size
// (SIGXFSZ ignored, so the write fails with EFBIG instead of killing it).
TEST(Checkpoint, FailedSaveKeepsThePreviousCheckpoint) {
  const std::string path = temp_path("asyncml_ckpt_fsize.bin");
  remove_checkpoint(path);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    SolverCheckpoint cp;
    cp.update_index = 1;
    cp.model = linalg::DenseVector(8, 1.0);
    if (!save_checkpoint(path, cp).is_ok()) ::_exit(2);
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{512, 512};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    cp.update_index = 2;
    cp.model = linalg::DenseVector(256, 2.0);  // > 2 KiB: over the limit
    if (save_checkpoint(path, cp).is_ok()) ::_exit(4);
    const auto loaded = load_checkpoint(path);
    if (!loaded.is_ok()) ::_exit(5);
    ::_exit(loaded.value().update_index == 1 ? 0 : 6);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died (status " << status << ")";
  // 4: the failed save reported success; 5: the previous checkpoint is gone.
  EXPECT_EQ(WEXITSTATUS(status), 0);
  remove_checkpoint(path);
}

TEST(Checkpoint, RoundTripCarriesVersionRoundAndCounters) {
  SolverCheckpoint cp;
  cp.update_index = 100;
  cp.model_version = 97;
  cp.round = 412;
  cp.model = linalg::DenseVector{1.0, 2.0};
  cp.counters["tasks_completed"] = 1234;
  cp.counters["retries"] = 7;

  const std::string path = temp_path("asyncml_ckpt_counters.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().model_version, 97u);
  EXPECT_EQ(loaded.value().round, 412u);
  ASSERT_EQ(loaded.value().counters.size(), 2u);
  EXPECT_EQ(loaded.value().counters.at("tasks_completed"), 1234u);
  EXPECT_EQ(loaded.value().counters.at("retries"), 7u);
  remove_checkpoint(path);
}

namespace raw {

void u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void name(std::ofstream& out, const std::string& s) {
  u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}
}  // namespace raw

TEST(Checkpoint, BadMagicRejected) {
  // Garbage, and well-formed files in the retired self-contained formats:
  // v1 ("AMLCKPT1": update index + vectors) and v2 ("AMLCKPT2": update
  // index, version, round, counters, then vectors).
  void (*const writers[])(std::ofstream&) = {
      [](std::ofstream& out) { out << "not a checkpoint at all"; },
      [](std::ofstream& out) {
        out.write("AMLCKPT1", 8);
        raw::u64(out, 55);
        raw::u32(out, 1);
        raw::name(out, "model");
        raw::u64(out, 2);
        const double values[2] = {4.0, 8.0};
        out.write(reinterpret_cast<const char*>(values), sizeof(values));
      },
      [](std::ofstream& out) {
        out.write("AMLCKPT2", 8);
        raw::u64(out, 55);
        raw::u64(out, 55);
        raw::u64(out, 110);
        raw::u32(out, 0);
        raw::u32(out, 1);
        raw::name(out, "model");
        raw::u64(out, 2);
        const double values[2] = {4.0, 8.0};
        out.write(reinterpret_cast<const char*>(values), sizeof(values));
      }};
  const std::string path = temp_path("asyncml_ckpt_garbage.bin");
  for (const auto write : writers) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      write(out);
    }
    const auto loaded = load_checkpoint(path);
    ASSERT_FALSE(loaded.is_ok());
    EXPECT_EQ(loaded.status().code(), support::StatusCode::kInvalidArgument);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, AbsurdDirectoryLengthRejectedWithoutAllocating) {
  // A directory length past the sanity bound must be refused before the
  // name is allocated or read.
  const std::string path = temp_path("asyncml_ckpt_dirlen.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("AMLCKPT3", 8);
    raw::u32(out, 0xFFFFFFFFu);
  }
  const auto loaded = load_checkpoint(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(Checkpoint, PointerToADirectoryWithoutManifestRejected) {
  const std::string path = temp_path("asyncml_ckpt_nomanifest.bin");
  const std::string dir = temp_path("asyncml_ckpt_nomanifest.dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(path, std::ios::binary);
    out.write("AMLCKPT3", 8);
    raw::name(out, dir);
    raw::u64(out, 1);
  }
  const auto loaded = load_checkpoint(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kDataLoss);
  // The loader only reads: it created nothing in the named directory.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove(path);
  std::filesystem::remove_all(dir);
}

// Each save commits into a fresh directory and removes the one it replaced,
// so repeated saves to one path leave exactly one self-contained directory.
TEST(Checkpoint, RepeatedSavesLeaveOneSelfContainedDirectory) {
  const std::filesystem::path path = temp_path("asyncml_ckpt_repeat.bin");
  remove_checkpoint(path.string());
  SolverCheckpoint cp;
  cp.model = linalg::DenseVector{1.0, 2.0};
  cp.aux["alpha_bar"] = linalg::DenseVector{0.5, 0.25};
  for (std::uint64_t k = 1; k <= 5; ++k) {
    cp.update_index = k;
    cp.model[0] = static_cast<double>(k);
    ASSERT_TRUE(save_checkpoint(path.string(), cp).is_ok());

    const auto loaded = load_checkpoint(path.string());
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    EXPECT_EQ(loaded.value().update_index, k);
    EXPECT_EQ(loaded.value().model, cp.model);
    std::vector<std::filesystem::path> dirs;
    for (const auto& entry : std::filesystem::directory_iterator(path.parent_path())) {
      const std::string name = entry.path().filename().string();
      if (entry.is_directory() && name.starts_with(path.filename().string())) {
        dirs.push_back(entry.path());
      }
    }
    ASSERT_EQ(dirs.size(), 1u) << "after save " << k;
    EXPECT_EQ(dirs.front().string(), loaded.value().store_dir);
  }
  remove_checkpoint(path.string());
}

// A self-contained checkpoint is verified like the store's: a model blob
// whose bytes changed on disk is quarantined, and with no older record to
// fall back to the load is kDataLoss.
TEST(Checkpoint, CorruptModelBlobIsDataLossAndQuarantined) {
  const std::string path = temp_path("asyncml_ckpt_corrupt.bin");
  remove_checkpoint(path);
  SolverCheckpoint cp;
  cp.update_index = 3;
  cp.model = linalg::DenseVector(32, 1.5);
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());
  const auto saved = load_checkpoint(path);
  ASSERT_TRUE(saved.is_ok()) << saved.status().to_string();
  const std::string dir = saved.value().store_dir;

  std::vector<std::filesystem::path> objects;
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/objects")) {
    objects.push_back(entry.path());
  }
  ASSERT_EQ(objects.size(), 1u);  // the model: the record has no aux
  {
    std::fstream blob(objects.front(), std::ios::binary | std::ios::in | std::ios::out);
    blob.seekp(-1, std::ios::end);  // the model's last byte
    blob.put('\x7f');
  }

  const auto loaded = load_checkpoint(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kDataLoss);
  EXPECT_FALSE(std::filesystem::exists(objects.front()));
  const std::string hex = objects.front().filename().string();
  std::size_t quarantined = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/quarantine")) {
    EXPECT_EQ(entry.path().filename().string().rfind(hex, 0), 0u);
    ++quarantined;
  }
  EXPECT_EQ(quarantined, 1u);
  remove_checkpoint(path);
}

TEST(Checkpoint, AuxIsBuiltOnlyWhenACheckpointIsDue) {
  engine::Cluster::Config cluster_config;
  cluster_config.num_workers = 1;
  cluster_config.network.time_scale = 0.0;
  engine::Cluster cluster(cluster_config);
  core::AsyncContext ac(cluster, /*num_partitions=*/1);
  SolverConfig config;
  config.checkpoint_every = 4;
  config.checkpoint_path = temp_path("asyncml_ckpt_lazy_aux.bin");
  const linalg::DenseVector w{1.0, 2.0};

  int built = 0;
  for (std::uint64_t update = 1; update <= 12; ++update) {
    detail::maybe_checkpoint(config, ac, w, update, [&] {
      ++built;
      return detail::CheckpointAux{{"alpha_bar", linalg::DenseVector{3.0, 4.0}}};
    });
  }
  EXPECT_EQ(built, 3);  // updates 4, 8 and 12
  const auto loaded = load_checkpoint(config.checkpoint_path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().update_index, 12u);
  EXPECT_EQ(loaded.value().aux.at("alpha_bar"), (linalg::DenseVector{3.0, 4.0}));
  remove_checkpoint(config.checkpoint_path);
}

TEST(Checkpoint, ResumeReproducesContinuation) {
  // The intended workflow: run K updates, checkpoint, restart from the file,
  // continue — the continued state matches an uninterrupted run because the
  // checkpoint carries everything the serial SAGA server owns.
  // (Serial stand-in for the driver loop; the distributed solvers' server
  // state is exactly {w, alpha_bar, update index}.)
  linalg::DenseVector w{1.0, 2.0};
  linalg::DenseVector aux{0.1, 0.2};
  for (int k = 0; k < 5; ++k) {
    w[0] -= 0.1 * aux[0];
    aux[1] += 0.01;
  }

  SolverCheckpoint cp;
  cp.update_index = 5;
  cp.model = w;
  cp.aux["state"] = aux;
  const std::string path = temp_path("asyncml_ckpt_resume.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());

  auto restored = load_checkpoint(path);
  ASSERT_TRUE(restored.is_ok());
  linalg::DenseVector w2 = restored.value().model;
  linalg::DenseVector aux2 = restored.value().aux.at("state");
  for (std::uint64_t k = restored.value().update_index; k < 10; ++k) {
    w2[0] -= 0.1 * aux2[0];
    aux2[1] += 0.01;
  }

  // Uninterrupted reference.
  linalg::DenseVector w_ref{1.0, 2.0};
  linalg::DenseVector aux_ref{0.1, 0.2};
  for (int k = 0; k < 10; ++k) {
    w_ref[0] -= 0.1 * aux_ref[0];
    aux_ref[1] += 0.01;
  }
  EXPECT_EQ(w2, w_ref);
  EXPECT_EQ(aux2, aux_ref);
  remove_checkpoint(path);
}

}  // namespace
}  // namespace asyncml::optim
