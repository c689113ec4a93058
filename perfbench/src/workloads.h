#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads: complete HPO searches built and run through
// the library's public API, plus the checks every search's output must
// pass. README.md gives the reason each workload exists.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "data/split.h"
#include "hpo/config_space.h"
#include "hpo/eval_cache.h"
#include "hpo/eval_strategy.h"
#include "hpo/optimizer.h"
#include "trace.h"

namespace perfbench {

enum class Method { kShaPlus, kBohbPlus };
enum class Space { kPaper4, kCashTrees };

struct WorkloadSpec {
  const char* name;
  const char* dataset;  // Paper stand-in.
  double scale;         // MakePaperDataset size multiplier.
  Method method;
  Space space;
  size_t pool_workers;  // 0: no pool.
  bool faults;          // Fault storm plus a checkpoint after every rung.
  double test_floor;    // Lowest acceptable test metric of the winner.
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// A run searches a panel of inputs: search i of a run with seed s uses the
// workload seed s + i * kPanelStride for both the dataset and the search,
// so search 0 is exactly `bhpo --seed s` and the others are independent.
inline constexpr uint64_t kPanelStride = 1000003;
inline uint64_t PanelSeed(uint64_t seed, size_t index) {
  return seed + static_cast<uint64_t>(index) * kPanelStride;
}

// Everything one search needs, built by Setup. Building it is the timed
// set-up: dataset + split, Operation 1 grouping, pool, cache and injector.
struct Instance {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  bhpo::TrainTestSplit data;
  bhpo::ConfigSpace space;
  bhpo::StrategyOptions options;
  bhpo::GenFoldsOptions fold_options;
  bhpo::ScoringOptions scoring;
  // Always explicit, so the process-wide BHPO_FAULT injector is never
  // consulted; disabled on the clean workloads.
  std::unique_ptr<bhpo::FaultInjector> faults;
  std::unique_ptr<bhpo::ThreadPool> pool;
  std::unique_ptr<bhpo::EvalCache> cache;
  std::unique_ptr<bhpo::EnhancedStrategy> strategy;
  std::unique_ptr<bhpo::CachingStrategy> caching;
};

// `tracer` may be null; when set, the dataset build and the grouping are
// recorded as spans.
bhpo::Result<std::unique_ptr<Instance>> Setup(const WorkloadSpec& spec,
                                              uint64_t seed, Tracer* tracer);

struct SearchOutcome {
  bhpo::HpoResult result;
  bhpo::FinalEvaluation final;
  double search_s = 0.0;     // Wall time of Optimize.
  double cpu_s = 0.0;        // Process user + system CPU during Optimize.
  double final_fit_s = 0.0;  // Wall time of EvaluateFinalConfig.
  uint64_t digest = 0;
  size_t rungs = 0;
  bhpo::EvalCacheStats cache;
  bhpo::FaultStats fault_stats;
  // Checkpointing workloads only.
  bool checkpoint_loaded = false;
  bool checkpoint_torn = false;  // A torn final write left "<path>.tmp".
  size_t checkpoint_rungs = 0;
  uint64_t checkpoint_bytes = 0;
  double checkpoint_load_s = 0.0;
};

// Runs one search with `eval` (the instance's caching strategy, or a traced
// stand-in for it), then the final fit. `checkpoint_path` is used by the
// fault workload only; stale files there are removed first.
bhpo::Result<SearchOutcome> RunSearch(Instance* instance,
                                      bhpo::EvalStrategy* eval,
                                      const std::string& checkpoint_path,
                                      Tracer* tracer);

// Output checks of one search; returns one message per failed check.
// `index` is the search's position in the run's panel and `seed` the run
// seed: recorded digests and fault counters exist for kDefaultSeed only.
inline constexpr uint64_t kDefaultSeed = 42;
std::vector<std::string> CheckSearch(const Instance& instance,
                                     const SearchOutcome& outcome,
                                     uint64_t seed, size_t index);

// FNV-1a digest of a search's full history (configuration, budget, score
// bits and demotion flag of every evaluation) and its winner. Equal digests
// mean bit-identical searches.
uint64_t HistoryDigest(const bhpo::HpoResult& result);

// Rungs in a history: maximal runs of evaluations at one budget in which no
// configuration repeats.
size_t CountRungs(const std::vector<bhpo::EvaluationRecord>& history);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
