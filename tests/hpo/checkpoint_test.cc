// Checkpoint file format: bit-exact round trips, fail-closed loading on
// every corruption mode (magic, version, truncation, checksum), and the
// atomic tmp+rename discipline that keeps the previous checkpoint intact
// through a torn write.
#include "hpo/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "hpo/configuration.h"

namespace bhpo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Configuration MakeConfig(const std::string& lr) {
  Configuration config;
  config.Set("hidden_layer_sizes", "(6)");
  config.Set("learning_rate_init", lr);
  return config;
}

CheckpointState MakeState() {
  CheckpointState state;
  state.method = "sha";
  state.run_tag = "blobs|seed=7";
  state.eval_root = 0xdeadbeefcafef00dull;
  state.rungs_completed = 2;
  state.survivors = {MakeConfig("0.05"), MakeConfig("0.01")};
  state.history.push_back({MakeConfig("0.05"), 0.9125, 100, false});
  state.history.push_back({MakeConfig("0.01"), 0.8875, 100, false});
  // A demoted evaluation with the -inf sentinel must survive the round
  // trip bit-exactly (doubles are stored as raw bit patterns).
  state.history.push_back({MakeConfig("0.001"),
                           -std::numeric_limits<double>::infinity(), 0, true});
  state.num_evaluations = 3;
  state.total_instances = 200;
  state.faults.failed_evals = 1;
  state.faults.failed_folds = 4;
  state.faults.quarantined_folds = 2;
  state.faults.timed_out_folds = 1;
  state.faults.fold_retries = 6;
  state.faults.injected_faults = 9;
  return state;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(CheckpointTest, RoundTripIsBitExact) {
  std::string path = TempPath("ckpt_roundtrip.ckpt");
  CheckpointState state = MakeState();
  ASSERT_TRUE(SaveCheckpoint(path, state).ok());
  CheckpointState loaded = LoadCheckpoint(path).value();

  EXPECT_EQ(loaded.method, state.method);
  EXPECT_EQ(loaded.run_tag, state.run_tag);
  EXPECT_EQ(loaded.eval_root, state.eval_root);
  EXPECT_EQ(loaded.rungs_completed, state.rungs_completed);
  ASSERT_EQ(loaded.survivors.size(), state.survivors.size());
  for (size_t i = 0; i < state.survivors.size(); ++i) {
    EXPECT_TRUE(loaded.survivors[i] == state.survivors[i]) << i;
  }
  ASSERT_EQ(loaded.history.size(), state.history.size());
  for (size_t i = 0; i < state.history.size(); ++i) {
    EXPECT_TRUE(loaded.history[i].config == state.history[i].config) << i;
    // Bit-exact score comparison, -inf included.
    EXPECT_EQ(loaded.history[i].score, state.history[i].score) << i;
    EXPECT_EQ(loaded.history[i].budget, state.history[i].budget) << i;
    EXPECT_EQ(loaded.history[i].eval_failed, state.history[i].eval_failed)
        << i;
  }
  EXPECT_EQ(loaded.num_evaluations, state.num_evaluations);
  EXPECT_EQ(loaded.total_instances, state.total_instances);
  EXPECT_EQ(loaded.faults.failed_evals, state.faults.failed_evals);
  EXPECT_EQ(loaded.faults.failed_folds, state.faults.failed_folds);
  EXPECT_EQ(loaded.faults.quarantined_folds, state.faults.quarantined_folds);
  EXPECT_EQ(loaded.faults.timed_out_folds, state.faults.timed_out_folds);
  EXPECT_EQ(loaded.faults.fold_retries, state.faults.fold_retries);
  EXPECT_EQ(loaded.faults.injected_faults, state.faults.injected_faults);
}

TEST(CheckpointTest, OverwriteReplacesAtomically) {
  std::string path = TempPath("ckpt_overwrite.ckpt");
  CheckpointState state = MakeState();
  ASSERT_TRUE(SaveCheckpoint(path, state).ok());
  state.rungs_completed = 3;
  state.survivors.pop_back();
  ASSERT_TRUE(SaveCheckpoint(path, state).ok());
  CheckpointState loaded = LoadCheckpoint(path).value();
  EXPECT_EQ(loaded.rungs_completed, 3u);
  EXPECT_EQ(loaded.survivors.size(), 1u);
}

TEST(CheckpointTest, MissingFileIsIoError) {
  Result<CheckpointState> loaded =
      LoadCheckpoint(TempPath("ckpt_no_such_file.ckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CheckpointTest, BadMagicFailsClosed) {
  std::string path = TempPath("ckpt_bad_magic.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeState()).ok());
  std::string bytes = ReadAll(path);
  bytes[0] ^= 0x5a;
  WriteAll(path, bytes);
  Result<CheckpointState> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CheckpointTest, CorruptPayloadFailsChecksum) {
  std::string path = TempPath("ckpt_corrupt.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeState()).ok());
  std::string bytes = ReadAll(path);
  // Flip one bit in the middle of the payload (past the 24-byte header).
  bytes[bytes.size() / 2] ^= 0x01;
  WriteAll(path, bytes);
  Result<CheckpointState> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CheckpointTest, EveryTruncationFailsClosed) {
  std::string path = TempPath("ckpt_truncated.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeState()).ok());
  std::string bytes = ReadAll(path);
  // A crash can cut the file anywhere; no prefix may load.
  for (size_t keep : {size_t{0}, size_t{4}, size_t{8}, size_t{16},
                      bytes.size() / 2, bytes.size() - 1}) {
    WriteAll(path, bytes.substr(0, keep));
    Result<CheckpointState> loaded = LoadCheckpoint(path);
    EXPECT_FALSE(loaded.ok()) << "loaded a " << keep << "-byte prefix";
  }
}

TEST(CheckpointTest, VersionMismatchIsRejected) {
  std::string path = TempPath("ckpt_version.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeState()).ok());
  std::string bytes = ReadAll(path);
  // The u32 version sits right after the 8-byte magic.
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);
  WriteAll(path, bytes);
  Result<CheckpointState> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CheckpointTest, NonzeroReservedHeaderIsRejected) {
  std::string path = TempPath("ckpt_reserved.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeState()).ok());
  std::string bytes = ReadAll(path);
  // The u32 reserved word follows the magic and the u32 version; the
  // payload checksum does not cover it.
  bytes[12] = static_cast<char>(bytes[12] ^ 0x01);
  WriteAll(path, bytes);
  Result<CheckpointState> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CheckpointTest, TornWriteLeavesPreviousCheckpointIntact) {
  std::string path = TempPath("ckpt_torn.ckpt");
  CheckpointState first = MakeState();
  ASSERT_TRUE(SaveCheckpoint(path, first).ok());

  // Tear every write: checkpoint_torn_write at rate 1.
  FaultInjector injector(
      ParseFaultSpec("rate=1,seed=1,points=checkpoint_torn_write,permanent=1")
          .value());
  CheckpointState second = MakeState();
  second.rungs_completed = 9;
  Status torn = SaveCheckpoint(path, second, &injector);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(torn.IsTransient());  // Unavailable: a retry may succeed.
  EXPECT_GT(injector.Stats().total(), 0u);

  // The torn write went to the tmp file and was never renamed: the
  // previous checkpoint still loads, bit-exact.
  CheckpointState loaded = LoadCheckpoint(path).value();
  EXPECT_EQ(loaded.rungs_completed, first.rungs_completed);

  // And the torn tmp file itself, if inspected, fails closed.
  Result<CheckpointState> tmp = LoadCheckpoint(path + ".tmp");
  EXPECT_FALSE(tmp.ok());
}

TEST(CheckpointTest, FirstWriteTornMeansNoCheckpointAtAll) {
  std::string path = TempPath("ckpt_torn_first.ckpt");
  std::remove(path.c_str());
  FaultInjector injector(
      ParseFaultSpec("rate=1,seed=1,points=checkpoint_torn_write,permanent=1")
          .value());
  ASSERT_FALSE(SaveCheckpoint(path, MakeState(), &injector).ok());
  // Nothing was renamed into place: the target path does not exist.
  EXPECT_FALSE(LoadCheckpoint(path).ok());
}

TEST(CheckpointTest, EmptySurvivorsAndHistoryRoundTrip) {
  std::string path = TempPath("ckpt_empty.ckpt");
  CheckpointState state;
  state.method = "sha";
  ASSERT_TRUE(SaveCheckpoint(path, state).ok());
  CheckpointState loaded = LoadCheckpoint(path).value();
  EXPECT_EQ(loaded.method, "sha");
  EXPECT_TRUE(loaded.survivors.empty());
  EXPECT_TRUE(loaded.history.empty());
}

}  // namespace
}  // namespace bhpo
