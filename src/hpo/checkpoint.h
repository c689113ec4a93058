#ifndef BHPO_HPO_CHECKPOINT_H_
#define BHPO_HPO_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "hpo/optimizer.h"

namespace bhpo {

// ---------------------------------------------------------------------------
// Crash-safe checkpoint/resume for rung-based searches.
//
// A checkpoint captures everything SuccessiveHalving needs to continue a run
// as if it had never stopped: the evaluation stream root (every evaluation's
// randomness is a pure function of it — see PerEvalRng), the surviving
// configurations, and the accumulated history/counters. Because evaluations
// are deterministic given (eval_root, config, budget), a resumed run
// replays the remaining rungs bit-identically to the uninterrupted run.
//
// File format (native endianness; checkpoints are machine-local):
//   8 bytes   magic "BHPOCKP1"
//   u32       format version (kCheckpointVersion)
//   u32       reserved (zero)
//   u64       payload size in bytes
//   payload   serialized CheckpointState (doubles stored as raw bit
//             patterns, so scores survive the round trip bit-exactly)
//   u64       FNV-1a hash of the payload
//
// Writes are atomic: the file is written to "<path>.tmp" and renamed over
// `path` only after a complete write, so a crash mid-write (or an injected
// kCheckpointTornWrite fault) leaves the previous checkpoint intact. Loads
// verify magic, version, the zero reserved word, payload size and checksum
// and fail closed with IoError on any mismatch — a torn or corrupt file is
// never half-trusted.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kCheckpointVersion = 1;

// The resumable state of a rung-based search, captured after a completed
// rung (never mid-rung: a rung either fully happened or it didn't).
struct CheckpointState {
  // Optimizer name() that wrote the checkpoint; resume refuses a mismatch.
  std::string method;
  // Caller-chosen tag (dataset/seed fingerprint); resume refuses a mismatch
  // when the resuming run specifies a non-empty tag.
  std::string run_tag;
  // The per-run evaluation stream root. Restoring it is what makes the
  // resumed run's remaining evaluations bit-identical.
  uint64_t eval_root = 0;
  // Completed rungs so far.
  size_t rungs_completed = 0;
  // Configurations still in the race.
  std::vector<Configuration> survivors;
  // Full evaluation history up to the checkpoint.
  std::vector<EvaluationRecord> history;
  size_t num_evaluations = 0;
  size_t total_instances = 0;
  FaultReport faults;
};

// Serializes `state` to `path` atomically (tmp + rename). An injected
// kCheckpointTornWrite fault truncates the tmp file and skips the rename —
// simulating a crash mid-write — and returns Unavailable; the previous
// checkpoint at `path` survives. `faults` null means FaultInjector::Global().
[[nodiscard]] Status SaveCheckpoint(const std::string& path,
                                    const CheckpointState& state,
                                    FaultInjector* faults = nullptr);

// Loads and verifies a checkpoint. IoError on missing file, bad magic,
// version mismatch, truncation or checksum failure.
Result<CheckpointState> LoadCheckpoint(const std::string& path);

}  // namespace bhpo

#endif  // BHPO_HPO_CHECKPOINT_H_
