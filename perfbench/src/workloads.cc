#include "workloads.h"

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>

#include "common/stopwatch.h"
#include "data/paper_datasets.h"
#include "hpo/bohb.h"
#include "hpo/checkpoint.h"
#include "hpo/sha.h"

namespace perfbench {

using bhpo::Result;
using bhpo::Status;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Test floors sit well above a trivial classifier (australian is
      // balanced, a9a is 75% one class) and below every seed seen.
      {"sha_plus.australian.serial", "australian", 1.0, Method::kShaPlus,
       Space::kPaper4, 0, false, 0.70},
      // Half of a9a: a BOHB+ search's cost varies with what TPE samples, so
      // a run needs about ten of them to average that out.
      {"bohb_plus.a9a.pool3", "a9a", 0.5, Method::kBohbPlus, Space::kPaper4, 3,
       false, 0.85},
      {"sha_plus.australian.faults", "australian", 1.0, Method::kShaPlus,
       Space::kPaper4, 0, true, 0.70},
      // Not in BENCHMARK.json: its search time depends too much on which
      // model family survives to the top rungs (2.7-8.1 s across seeds) to
      // hold a 25% bound in a run of tens of seconds. It runs by name.
      {"sha_plus.cash_trees.pool3", "a9a", 1.0, Method::kShaPlus,
       Space::kCashTrees, 3, false, 0.85},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

constexpr char kFaultSpec[] = "rate=0.3,seed=7";
constexpr int kMaxIter = 40;

// What a search at kDefaultSeed produced at the commit the benchmark was
// recorded on. A change that alters any of it changes the results.
struct Recorded {
  const char* workload;
  size_t index;  // Position in the panel.
  uint64_t digest;
  size_t injected;
  size_t failed_folds;
  size_t retries;
  size_t demoted;
};

// Searches 0..N-1 of the default seed's panel, as printed on the
// per-search lines of `perfbench --workload NAME --seed 42`.
constexpr Recorded kRecorded[] = {
    {"sha_plus.australian.serial", 0, 0x1fe8aa48b383dd9dull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 1, 0x6bda4be47a5e67e5ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 2, 0x45c9d990068fb9c8ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 3, 0x66dea5cc5390192eull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 4, 0x6f61b53e8d6d1133ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 5, 0xeb735d37a382951bull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 6, 0xd1ad9215bac23305ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 7, 0xfeec426172a9d065ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 8, 0x654244c67d23c56cull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 9, 0xb593a7c9b0973989ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 10, 0xdbb05cd1a64a18c4ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 11, 0x4e079d4ffce84bcaull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 12, 0x565eee78760fba23ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 13, 0x597bf775a1162ec2ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 14, 0x0c1575a649325a87ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 15, 0xd832bfb5b150445full, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 16, 0x4dd2afe440c7cafaull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 17, 0x50911c998fae22f8ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 18, 0x28ea53f94f038c10ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 19, 0xcb98092ac5d61a9cull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 20, 0x6547bfe0cd255ce9ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 21, 0x6df7bf2eabe1b694ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 22, 0x7eba399a753bcac0ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 23, 0xc990c8306cecf7afull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 24, 0xa88b29b58b36a5c5ull, 0, 0, 0, 0},
    {"sha_plus.australian.serial", 25, 0x7c8260a602fc8a80ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 0, 0xdbee02c36cc5ae1full, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 1, 0xdae95664f5aae9d6ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 2, 0x829b05de159d2c82ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 3, 0x18afeaf578893d60ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 4, 0x4e0d6c08f6b10ab7ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 5, 0xf9ad6c5bb3abc162ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 6, 0x90cec1cb8b8d5039ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 7, 0x46b78d9867c89eb5ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 8, 0xea295b096860c60eull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 9, 0x46530ca92185c5aaull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 10, 0x63c40a3f68b347d0ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 11, 0x5684ee730fe1e569ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 12, 0xf56c0b56bd72ae90ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 13, 0x497c87476607ba6dull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 14, 0xe9fb5ab061f4a494ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 15, 0xf38107d267720920ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 16, 0xc73d594096d154d9ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 17, 0x5bc119d3ba5c94e6ull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 18, 0xdc2fd3ccb1910b8bull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 19, 0xfef40b330f4e356eull, 0, 0, 0, 0},
    {"bohb_plus.a9a.pool3", 20, 0x724001a07c7bcd9bull, 0, 0, 0, 0},
    {"sha_plus.australian.faults", 0, 0xc0a8f8391e866e53ull, 1713, 341, 805, 0},
    {"sha_plus.australian.faults", 1, 0x90a2bc61bad16b8aull, 1686, 361, 800, 0},
    {"sha_plus.australian.faults", 2, 0xe901d8dac8cd2744ull, 1685, 327, 792, 0},
    {"sha_plus.australian.faults", 3, 0xfe682f2dd6002efeull, 1717, 343, 811, 0},
    {"sha_plus.australian.faults", 4, 0x5bc010cfdb9913e2ull, 1679, 311, 793, 0},
    {"sha_plus.australian.faults", 5, 0xfbc07029de66ff1bull, 1725, 297, 834, 0},
    {"sha_plus.australian.faults", 6, 0x3ca5378ca00aef64ull, 1724, 345, 796, 0},
    {"sha_plus.australian.faults", 7, 0xa285b54555e456c4ull, 1747, 353, 828, 0},
    {"sha_plus.australian.faults", 8, 0x6191c59d6c198d99ull, 1670, 336, 815, 0},
    {"sha_plus.australian.faults", 9, 0x922c756421b31363ull, 1677, 323, 800, 0},
    {"sha_plus.australian.faults", 10, 0x040b7875ef2b2b89ull, 1722, 316, 816, 0},
    {"sha_plus.australian.faults", 11, 0xc651cb29c6cbd533ull, 1679, 345, 790, 0},
    {"sha_plus.australian.faults", 12, 0xfaffcefa0d8fbae6ull, 1694, 320, 825, 0},
    {"sha_plus.australian.faults", 13, 0x299eeb3f494c519eull, 1729, 362, 813, 0},
    {"sha_plus.australian.faults", 14, 0xdf3f8f6f33ebdaeeull, 1651, 326, 792, 0},
    {"sha_plus.australian.faults", 15, 0x60e257c0ce92f4ebull, 1692, 352, 784, 0},
    {"sha_plus.australian.faults", 16, 0xde69fd1fdf4fbfb1ull, 1735, 372, 786, 0},
    {"sha_plus.australian.faults", 17, 0x9a3e24d6a9aae3fcull, 1673, 366, 762, 0},
    {"sha_plus.australian.faults", 18, 0x5aee57bacdd7a877ull, 1699, 332, 810, 0},
    {"sha_plus.australian.faults", 19, 0x310bebf83fea2611ull, 1740, 340, 813, 0},
    {"sha_plus.australian.faults", 20, 0x4582f97297fc2df1ull, 1703, 339, 839, 0},
    {"sha_plus.australian.faults", 21, 0xa256ff993c36fdfeull, 1710, 318, 818, 0},
    {"sha_plus.australian.faults", 22, 0x5e1363d404bbe7e6ull, 1742, 321, 844, 0},
    {"sha_plus.australian.faults", 23, 0x281b42de1aa5cd0eull, 1728, 354, 831, 0},
    {"sha_plus.australian.faults", 24, 0x045f8f7d08214567ull, 1706, 315, 815, 0},
    {"sha_plus.cash_trees.pool3", 0, 0x36176749d39b55e6ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 1, 0x5293428e7673fadfull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 2, 0x68145a7d622bbfabull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 3, 0x1bb6716439cb28d3ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 4, 0x4319276e8f1ee61aull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 5, 0x59aea61f0ecbf1d8ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 6, 0xe85706fb6468ab08ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 7, 0x49f7b18c4de141b8ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 8, 0x096fef23831a3cc8ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 9, 0xe0827eecc22d45f8ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 10, 0x25e1825c4a97bd4aull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 11, 0x2044637411184d2bull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 12, 0xab7e0c8ed3c698e8ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 13, 0xc4db9386cc832f19ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 14, 0x00fef9309ede9128ull, 0, 0, 0, 0},
    {"sha_plus.cash_trees.pool3", 15, 0x20f21a4965f43aafull, 0, 0, 0, 0},
};

const Recorded* FindRecorded(const std::string& workload, size_t index) {
  for (const Recorded& r : kRecorded) {
    if (workload == r.workload && index == r.index) return &r;
  }
  return nullptr;
}

Result<bhpo::ConfigSpace> MakeSpace(Space space) {
  if (space == Space::kPaper4) return bhpo::ConfigSpace::PaperSpace(4);
  bhpo::ConfigSpace cash;
  BHPO_RETURN_NOT_OK(cash.Add("model", {"random_forest", "gbdt"}));
  BHPO_RETURN_NOT_OK(cash.Add("num_trees", {"20", "50"}));
  BHPO_RETURN_NOT_OK(cash.Add("num_rounds", {"20", "50"}));
  BHPO_RETURN_NOT_OK(cash.Add("max_depth", {"3", "6", "10"}));
  BHPO_RETURN_NOT_OK(cash.Add("min_samples_leaf", {"1", "5"}));
  return cash;
}

double CpuSeconds() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void Mix(uint64_t* h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *h ^= bytes[i];
    *h *= 1099511628211ull;
  }
}

void MixU64(uint64_t* h, uint64_t value) { Mix(h, &value, sizeof(value)); }

void MixString(uint64_t* h, const std::string& s) {
  MixU64(h, s.size());
  Mix(h, s.data(), s.size());
}

}  // namespace

uint64_t HistoryDigest(const bhpo::HpoResult& result) {
  uint64_t h = 14695981039346656037ull;
  MixU64(&h, result.history.size());
  for (const bhpo::EvaluationRecord& record : result.history) {
    MixString(&h, record.config.Key());
    MixU64(&h, record.budget);
    uint64_t bits = 0;
    std::memcpy(&bits, &record.score, sizeof(bits));
    MixU64(&h, bits);
    MixU64(&h, record.eval_failed ? 1 : 0);
  }
  MixString(&h, result.best_config.Key());
  return h;
}

size_t CountRungs(const std::vector<bhpo::EvaluationRecord>& history) {
  size_t rungs = 0;
  size_t budget = 0;
  std::set<std::string> seen;
  for (const bhpo::EvaluationRecord& record : history) {
    std::string key = record.config.Key();
    if (rungs == 0 || record.budget != budget || seen.count(key) > 0) {
      ++rungs;
      budget = record.budget;
      seen.clear();
    }
    seen.insert(std::move(key));
  }
  return rungs;
}

Result<std::unique_ptr<Instance>> Setup(const WorkloadSpec& spec,
                                        uint64_t seed, Tracer* tracer) {
  auto instance = std::make_unique<Instance>();
  instance->spec = &spec;
  instance->seed = seed;
  if (spec.faults) {
    BHPO_ASSIGN_OR_RETURN(bhpo::FaultPlan plan,
                          bhpo::ParseFaultSpec(kFaultSpec));
    instance->faults = std::make_unique<bhpo::FaultInjector>(plan);
  } else {
    instance->faults = std::make_unique<bhpo::FaultInjector>();
  }
  // The caller thread helps drain ParallelFor, so N workers keep N + 1
  // threads busy: 3 workers fill a 4-core machine.
  if (spec.pool_workers > 0) {
    instance->pool = std::make_unique<bhpo::ThreadPool>(spec.pool_workers);
  }
  instance->cache = std::make_unique<bhpo::EvalCache>();
  {
    ScopedSpan span(tracer, SpanKind::kDataBuild);
    BHPO_ASSIGN_OR_RETURN(
        instance->data,
        bhpo::MakePaperDataset(spec.dataset, seed, spec.scale));
  }
  BHPO_ASSIGN_OR_RETURN(instance->space, MakeSpace(spec.space));

  // The same wiring as `bhpo --method X+ --seed <seed> --max-iter 40`.
  bhpo::StrategyOptions& options = instance->options;
  options.factory.max_iter = kMaxIter;
  options.factory.seed = seed + 1;
  options.cv_pool = instance->pool.get();
  options.cache = instance->cache.get();
  options.faults = instance->faults.get();
  options.num_folds =
      instance->fold_options.k_gen + instance->fold_options.k_spe;
  instance->scoring.use_variance = true;
  bhpo::GroupingOptions grouping;
  grouping.seed = seed + 2;
  {
    ScopedSpan span(tracer, SpanKind::kGrouping);
    BHPO_ASSIGN_OR_RETURN(
        instance->strategy,
        bhpo::EnhancedStrategy::Create(instance->data.train, grouping,
                                       instance->fold_options,
                                       instance->scoring, options));
  }
  instance->caching = std::make_unique<bhpo::CachingStrategy>(
      instance->strategy.get(), instance->cache.get());
  return instance;
}

Result<SearchOutcome> RunSearch(Instance* instance, bhpo::EvalStrategy* eval,
                                const std::string& checkpoint_path,
                                Tracer* tracer) {
  const WorkloadSpec& spec = *instance->spec;
  bool checkpointing = spec.faults;
  std::string tmp_path = checkpoint_path + ".tmp";
  if (checkpointing) {
    std::error_code ignored;
    std::filesystem::remove(checkpoint_path, ignored);
    std::filesystem::remove(tmp_path, ignored);
  }

  std::unique_ptr<bhpo::HpoOptimizer> optimizer;
  if (spec.method == Method::kShaPlus) {
    bhpo::ShaOptions sha;
    sha.pool = instance->pool.get();
    if (checkpointing) {
      sha.checkpoint.path = checkpoint_path;
      sha.checkpoint.run_tag =
          std::string(spec.name) + "|seed=" + std::to_string(instance->seed);
      sha.checkpoint.faults = instance->faults.get();
    }
    optimizer = std::make_unique<bhpo::SuccessiveHalving>(
        instance->space.EnumerateGrid(), eval, sha);
  } else {
    bhpo::HyperbandOptions hb;
    hb.pool = instance->pool.get();
    optimizer = std::make_unique<bhpo::Bohb>(&instance->space, eval, hb);
  }

  SearchOutcome out;
  bhpo::Rng rng(instance->seed + 3);
  const bhpo::Dataset& train = instance->data.train;
  {
    ScopedSpan span(tracer, SpanKind::kOptimize);
    if (tracer != nullptr) tracer->set_root(span.id());
    double cpu_before = CpuSeconds();
    bhpo::Stopwatch watch;
    BHPO_ASSIGN_OR_RETURN(out.result, optimizer->Optimize(train, &rng));
    out.search_s = watch.ElapsedSeconds();
    out.cpu_s = CpuSeconds() - cpu_before;
  }
  {
    ScopedSpan span(tracer, SpanKind::kFinalFit);
    bhpo::Stopwatch watch;
    BHPO_ASSIGN_OR_RETURN(
        out.final,
        bhpo::EvaluateFinalConfig(out.result.best_config, train,
                                  instance->data.test,
                                  instance->options.metric,
                                  instance->options.factory));
    out.final_fit_s = watch.ElapsedSeconds();
  }
  {
    ScopedSpan span(tracer, SpanKind::kCacheStats);
    out.cache = instance->cache->Stats();
  }
  out.fault_stats = instance->faults->Stats();
  out.digest = HistoryDigest(out.result);
  out.rungs = CountRungs(out.result.history);

  if (checkpointing) {
    std::error_code error;
    out.checkpoint_torn = std::filesystem::exists(tmp_path, error);
    uintmax_t bytes = std::filesystem::file_size(checkpoint_path, error);
    out.checkpoint_bytes = error ? 0 : static_cast<uint64_t>(bytes);
    ScopedSpan span(tracer, SpanKind::kCheckpointLoad);
    bhpo::Stopwatch watch;
    Result<bhpo::CheckpointState> loaded =
        bhpo::LoadCheckpoint(checkpoint_path);
    out.checkpoint_load_s = watch.ElapsedSeconds();
    if (loaded.ok()) {
      out.checkpoint_loaded = true;
      out.checkpoint_rungs = loaded.value().rungs_completed;
    }
  }
  return out;
}

std::vector<std::string> CheckSearch(const Instance& instance,
                                     const SearchOutcome& outcome,
                                     uint64_t seed, size_t index) {
  const WorkloadSpec& spec = *instance.spec;
  const bhpo::HpoResult& result = outcome.result;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& message) {
    failures.push_back("search " + std::to_string(index) + ": " + message);
  };

  bool in_grid = false;
  for (const bhpo::Configuration& config : instance.space.EnumerateGrid()) {
    if (config == result.best_config) in_grid = true;
  }
  if (!in_grid) fail("winner is not in the grid");
  if (!std::isfinite(result.best_score)) fail("cv_score is not finite");
  if (!(outcome.final.test_metric >= spec.test_floor)) {
    fail("test_metric " + std::to_string(outcome.final.test_metric) +
         " below the floor " + std::to_string(spec.test_floor));
  }

  const bhpo::FaultReport& faults = result.faults;
  if (spec.faults) {
    if (outcome.fault_stats.total() == 0 || faults.failed_folds == 0) {
      fail("the fault storm injected nothing");
    }
    if (!outcome.checkpoint_loaded) {
      fail("the final checkpoint does not load");
    } else if (!outcome.checkpoint_torn &&
               outcome.checkpoint_rungs != outcome.rungs) {
      fail("checkpoint holds " + std::to_string(outcome.checkpoint_rungs) +
           " rungs, the run completed " + std::to_string(outcome.rungs));
    } else if (outcome.checkpoint_torn &&
               outcome.checkpoint_rungs >= outcome.rungs) {
      fail("the final checkpoint write was torn but the checkpoint is "
           "current");
    }
  } else if (outcome.fault_stats.total() != 0 ||
             faults.total_degradations() != 0) {
    fail("faults on a clean workload");
  }

  if (seed != kDefaultSeed) return failures;
  const Recorded* recorded = FindRecorded(spec.name, index);
  if (recorded == nullptr) return failures;
  if (outcome.digest != recorded->digest) fail("history digest differs");
  if (outcome.fault_stats.total() != recorded->injected ||
      faults.failed_folds != recorded->failed_folds ||
      faults.fold_retries != recorded->retries ||
      faults.failed_evals != recorded->demoted) {
    fail("fault counters differ from the recorded ones");
  }
  return failures;
}

}  // namespace perfbench
