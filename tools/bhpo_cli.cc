// bhpo — command-line hyperparameter optimization over a CSV/LibSVM file
// (or a built-in synthetic stand-in), using any of the library's bandit
// methods in vanilla or enhanced ("+") form.
//
// Examples:
//   bhpo --synthetic australian --method sha+
//   bhpo --data train.csv --task classification --method bohb+ --seeds 3
//   bhpo --data data.svm --format libsvm --method hb --metric f1
//
// Run with --help for the full flag list.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "common/fault.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "data/csv_io.h"
#include "data/libsvm_io.h"
#include "data/paper_datasets.h"
#include "hpo/asha.h"
#include "hpo/bohb.h"
#include "hpo/dehb.h"
#include "hpo/eval_cache.h"
#include "hpo/hyperband.h"
#include "hpo/pasha.h"
#include "hpo/random_search.h"
#include "hpo/sha.h"
#include "ml/serialization.h"

namespace bhpo {
namespace {

constexpr char kUsage[] = R"(bhpo — bandit-based hyperparameter optimization

data source (exactly one):
  --data PATH            CSV or LibSVM file
  --synthetic NAME       built-in stand-in (australian, splice, gisette,
                         machine, NTICUSdroid, a9a, fraud, credit2023,
                         satimage, usps, molecules, kc-house)

data options:
  --format csv|libsvm    input format           (default: by extension)
  --task classification|regression              (default: classification)
  --test-fraction F      holdout fraction, --data only (default: 0.2)
  --scale F              synthetic scale factor (default: 0.25)

output options:
  --save-model PATH      persist the final trained model (reload with
                         LoadModelFromFile)
  --json PATH            write a JSON run summary (scores, timings and
                         evaluation-cache hit/miss counters)

Repeated (config, budget) evaluations always replay cached fold scores and
results bit-exactly; the cache changes no result, only the time.

fault-tolerance options:
  --fault SPEC           deterministic fault-injection profile, e.g.
                         "rate=0.3,seed=7" or "off"; overrides the
                         BHPO_FAULT environment variable (see
                         common/fault.h for the grammar)
  --checkpoint PATH      write a crash-safe checkpoint after every rung
                         (sha / sha+ only)
  --resume               continue from the checkpoint at --checkpoint PATH;
                         the resumed run reproduces the uninterrupted run's
                         best configuration and history bit-identically

search options:
  --method M             random | sha | sha+ | hb | hb+ | bohb | bohb+ |
                         asha | asha+ | pasha | pasha+ | dehb | dehb+
                                                (default: sha+)
  --hps K                first K Table-III hyperparameters (default: 4)
  --metric auto|accuracy|f1|r2                  (default: auto)
  --max-iter N           epochs per model fit   (default: 40)
  --seed N               master seed            (default: 42)
  --threads N            rung + CV fold parallelism, 1 to 256
                                                (default: 1)

enhanced-method options (the trailing '+' variants):
  --groups V             number of groups       (default: 2)
  --alpha A              variance weight        (default: 0.1)
  --beta-max B           max size weight        (default: 10)
  --k-gen N / --k-spe N  fold split             (default: 3 / 2)
)";

// The largest --threads accepted. ThreadPool lets the std::system_error of
// a thread it cannot start escape, so a request the OS cannot meet must be
// refused here, as InvalidArgument, before any pool thread starts.
constexpr int kMaxThreads = 256;

const char* const kMethodBases[] = {"random", "sha",  "hb",   "bohb",
                                    "dehb",   "asha", "pasha"};

Status RunCli(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::printf("%s", kUsage);
    return Status::OK();
  }

  // ---- read every flag ----
  // All flags are read, and unknown ones rejected, before any data is
  // touched, so a mistyped flag fails fast. --task and --format belong to
  // --data and the enhanced-method options to the '+' methods; elsewhere
  // they are left unread, so passing them is an unrecognized-flag error.
  std::string data_path = flags.GetString("data", "");
  std::string synthetic = flags.GetString("synthetic", "");
  BHPO_ASSIGN_OR_RETURN(double test_fraction,
                        flags.GetDouble("test-fraction", 0.2));
  BHPO_ASSIGN_OR_RETURN(double scale, flags.GetDouble("scale", 0.25));
  BHPO_ASSIGN_OR_RETURN(int seed, flags.GetInt("seed", 42));
  std::string task_name, format;
  if (!data_path.empty()) {
    task_name = flags.GetString("task", "classification");
    format = flags.GetString("format", "");
  }

  std::string method = flags.GetString("method", "sha+");
  bool enhanced = !method.empty() && method.back() == '+';
  std::string base = enhanced ? method.substr(0, method.size() - 1) : method;
  BHPO_ASSIGN_OR_RETURN(int hps, flags.GetInt("hps", 4));
  std::string save_path = flags.GetString("save-model", "");
  std::string metric_name = flags.GetString("metric", "auto");
  BHPO_ASSIGN_OR_RETURN(int max_iter, flags.GetInt("max-iter", 40));
  BHPO_ASSIGN_OR_RETURN(int threads, flags.GetInt("threads", 1));
  std::string fault_spec = flags.GetString("fault", "");
  std::string checkpoint_path = flags.GetString("checkpoint", "");
  bool resume = flags.Has("resume");
  std::string json_path = flags.GetString("json", "");

  int num_groups = 2, k_gen = 3, k_spe = 2;
  ScoringOptions scoring;
  scoring.use_variance = true;
  if (enhanced) {
    BHPO_ASSIGN_OR_RETURN(num_groups, flags.GetInt("groups", 2));
    BHPO_ASSIGN_OR_RETURN(k_gen, flags.GetInt("k-gen", 3));
    BHPO_ASSIGN_OR_RETURN(k_spe, flags.GetInt("k-spe", 2));
    BHPO_ASSIGN_OR_RETURN(scoring.alpha, flags.GetDouble("alpha", 0.1));
    BHPO_ASSIGN_OR_RETURN(scoring.beta_max,
                          flags.GetDouble("beta-max", 10.0));
  }
  BHPO_RETURN_NOT_OK(flags.CheckUnrecognized());

  // ---- validate ----
  if (std::find(std::begin(kMethodBases), std::end(kMethodBases), base) ==
      std::end(kMethodBases)) {
    return Status::InvalidArgument("unknown --method '" + method + "'");
  }
  if ((data_path.empty()) == (synthetic.empty())) {
    return Status::InvalidArgument(
        "provide exactly one of --data or --synthetic (see --help)");
  }
  if (!(test_fraction > 0.0 && test_fraction < 1.0)) {
    return Status::InvalidArgument("--test-fraction must be in (0, 1)");
  }
  if (!synthetic.empty() && flags.Has("test-fraction")) {
    return Status::InvalidArgument(
        "--test-fraction applies only to --data: a --synthetic stand-in "
        "has its own split");
  }
  Task task = Task::kClassification;
  if (task_name == "regression") {
    task = Task::kRegression;
  } else if (!task_name.empty() && task_name != "classification") {
    return Status::InvalidArgument("unknown --task '" + task_name + "'");
  }
  if (!data_path.empty() && format.empty()) {
    format = data_path.size() > 4 &&
                     data_path.substr(data_path.size() - 4) == ".csv"
                 ? "csv"
                 : "libsvm";
  }
  if (!format.empty() && format != "csv" && format != "libsvm") {
    return Status::InvalidArgument("unknown --format '" + format + "'");
  }
  if (hps < 1 || hps > 8) {
    return Status::InvalidArgument("--hps must be in [1, 8]");
  }
  EvalMetric metric;
  if (metric_name == "auto") {
    metric = EvalMetric::kAuto;
  } else if (metric_name == "accuracy") {
    metric = EvalMetric::kAccuracy;
  } else if (metric_name == "f1") {
    metric = EvalMetric::kF1;
  } else if (metric_name == "r2") {
    metric = EvalMetric::kR2;
  } else {
    return Status::InvalidArgument("unknown --metric '" + metric_name + "'");
  }
  if (threads < 1 || threads > kMaxThreads) {
    return Status::InvalidArgument("--threads must be in [1, " +
                                   std::to_string(kMaxThreads) + "]");
  }
  if (resume && checkpoint_path.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint PATH");
  }
  if (!checkpoint_path.empty() && base != "sha") {
    return Status::InvalidArgument(
        "--checkpoint is supported for --method sha / sha+ only (got '" +
        method + "')");
  }
  if (k_gen < 0 || k_spe < 0) {
    return Status::InvalidArgument("--k-gen and --k-spe must be >= 0");
  }
  BHPO_RETURN_NOT_OK(scoring.Validate());

  // ---- data ----
  TrainTestSplit data;
  if (!synthetic.empty()) {
    BHPO_ASSIGN_OR_RETURN(data, MakePaperDataset(synthetic,
                                                 static_cast<uint64_t>(seed),
                                                 scale));
  } else {
    Dataset full;
    if (format == "csv") {
      CsvOptions options;
      options.task = task;
      BHPO_ASSIGN_OR_RETURN(full, LoadCsv(data_path, options));
    } else {
      LibsvmOptions options;
      options.task = task;
      BHPO_ASSIGN_OR_RETURN(full, LoadLibsvm(data_path, options));
    }
    full = full.Standardized();
    Rng split_rng(static_cast<uint64_t>(seed));
    BHPO_ASSIGN_OR_RETURN(
        data, SplitTrainTest(full, test_fraction, &split_rng,
                             task == Task::kClassification));
  }
  std::printf("train: %s\n", data.train.Summary().c_str());
  std::printf("test:  %s\n", data.test.Summary().c_str());

  // ---- search setup ----
  ConfigSpace space = ConfigSpace::PaperSpace(hps);

  StrategyOptions options;
  options.metric = metric;
  options.factory.max_iter = max_iter;
  options.factory.seed = static_cast<uint64_t>(seed) + 1;

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  // Two-level parallelism on one shared pool: configurations across each
  // rung and CV folds within each evaluation (ParallelFor is nested-safe).
  options.cv_pool = pool.get();

  // Fold-level reuse inside the strategy; whole-result reuse via the
  // decorator below. Both layers share the one cache and its counters.
  EvalCache cache;
  options.cache = &cache;

  // ---- fault tolerance ----
  // --fault builds an explicit injector that overrides the BHPO_FAULT
  // environment variable; without it, the null injector pointers below
  // defer to FaultInjector::Global().
  std::unique_ptr<FaultInjector> fault_injector;
  if (!fault_spec.empty()) {
    BHPO_ASSIGN_OR_RETURN(FaultPlan plan, ParseFaultSpec(fault_spec));
    fault_injector = std::make_unique<FaultInjector>(plan);
  }
  options.faults = fault_injector.get();

  CheckpointState resume_state;
  if (resume) {
    BHPO_ASSIGN_OR_RETURN(resume_state, LoadCheckpoint(checkpoint_path));
    std::printf("resuming from %s: %zu rungs done, %zu survivors, %zu "
                "evaluations\n",
                checkpoint_path.c_str(), resume_state.rungs_completed,
                resume_state.survivors.size(), resume_state.num_evaluations);
  }

  std::unique_ptr<EvalStrategy> strategy;
  if (enhanced) {
    GroupingOptions grouping;
    grouping.num_groups = num_groups;
    grouping.seed = static_cast<uint64_t>(seed) + 2;
    GenFoldsOptions folds;
    folds.k_gen = static_cast<size_t>(k_gen);
    folds.k_spe = static_cast<size_t>(k_spe);
    options.num_folds = folds.k_gen + folds.k_spe;
    BHPO_ASSIGN_OR_RETURN(
        strategy,
        EnhancedStrategy::Create(data.train, grouping, folds, scoring,
                                 options));
  } else {
    strategy = std::make_unique<VanillaStrategy>(options);
  }
  CachingStrategy caching(strategy.get(), &cache);
  EvalStrategy* eval = &caching;

  std::unique_ptr<HpoOptimizer> optimizer;
  RandomConfigSampler hb_sampler(&space);
  ShaOptions sha_options;
  sha_options.pool = pool.get();
  sha_options.checkpoint.path = checkpoint_path;
  // The tag ties the checkpoint to this (method, data, seed) identity so a
  // resume against a different run fails loudly instead of silently mixing
  // histories.
  sha_options.checkpoint.run_tag =
      method + "|" + (synthetic.empty() ? data_path : synthetic) +
      "|seed=" + std::to_string(seed);
  if (resume) sha_options.checkpoint.resume = &resume_state;
  sha_options.checkpoint.faults = fault_injector.get();
  HyperbandOptions hb_options;
  hb_options.pool = pool.get();
  if (base == "random") {
    optimizer = std::make_unique<RandomSearch>(&space, eval, 10);
  } else if (base == "sha") {
    optimizer = std::make_unique<SuccessiveHalving>(space.EnumerateGrid(),
                                                    eval,
                                                    sha_options);
  } else if (base == "hb") {
    optimizer = std::make_unique<Hyperband>(&hb_sampler, eval,
                                            hb_options);
  } else if (base == "bohb") {
    optimizer = std::make_unique<Bohb>(&space, eval, hb_options);
  } else if (base == "dehb") {
    optimizer = std::make_unique<Dehb>(&space, eval, hb_options);
  } else if (base == "asha") {
    optimizer = std::make_unique<Asha>(&space, eval);
  } else if (base == "pasha") {
    optimizer = std::make_unique<Pasha>(&space, eval);
  } else {
    return Status::InvalidArgument("unknown --method '" + method + "'");
  }

  // ---- run ----
  std::printf("method: %s over %zu configurations (%d hyperparameters)\n",
              method.c_str(), space.GridSize(), hps);
  Stopwatch watch;
  Rng rng(static_cast<uint64_t>(seed) + 3);
  BHPO_ASSIGN_OR_RETURN(HpoResult result,
                        optimizer->Optimize(data.train, &rng));
  double search_seconds = watch.ElapsedSeconds();

  // One fit of the winner serves both the final metrics and --save-model.
  BHPO_ASSIGN_OR_RETURN(
      std::unique_ptr<Model> final_model,
      FitFinalModel(result.best_config, data.train, options.factory));
  FinalEvaluation final;
  final.train_metric = EvaluateModel(*final_model, data.train, metric);
  final.test_metric = EvaluateModel(*final_model, data.test, metric);

  std::printf("\nbest configuration: %s\n",
              result.best_config.ToString().c_str());
  std::printf("cv score: %.4f  evaluations: %zu  instance budget: %zu\n",
              result.best_score, result.num_evaluations,
              result.total_instances);
  std::printf("final model: train %.4f, test %.4f (%s)\n",
              final.train_metric, final.test_metric,
              EvalMetricToString(metric));
  std::printf("search time: %.1fs\n", search_seconds);
  const FaultReport& faults = result.faults;
  FaultInjector* active_injector =
      fault_injector != nullptr ? fault_injector.get()
                                : FaultInjector::Global();
  if (active_injector->enabled() || faults.total_degradations() > 0 ||
      faults.fold_retries > 0) {
    std::printf(
        "faults: %zu injected, %zu evals demoted, %zu folds failed "
        "(%zu quarantined, %zu timed out), %zu retries\n",
        faults.injected_faults, faults.failed_evals, faults.failed_folds,
        faults.quarantined_folds, faults.timed_out_folds,
        faults.fold_retries);
  }
  EvalCacheStats cache_stats = cache.Stats();
  std::printf(
      "cache: %zu fold hits / %zu fold misses, %zu result hits / %zu "
      "result misses (hit rate %.1f%%, %zu entries)\n",
      cache_stats.fold_hits, cache_stats.fold_misses, cache_stats.result_hits,
      cache_stats.result_misses, 100.0 * cache_stats.hit_rate(),
      cache_stats.entries);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      return Status::IoError("cannot open --json path '" + json_path + "'");
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"method\": \"%s\",\n", method.c_str());
    std::fprintf(out, "  \"seed\": %d,\n", seed);
    std::fprintf(out, "  \"best_config\": \"%s\",\n",
                 result.best_config.ToString().c_str());
    std::fprintf(out, "  \"cv_score\": %.17g,\n", result.best_score);
    std::fprintf(out, "  \"num_evaluations\": %zu,\n",
                 result.num_evaluations);
    std::fprintf(out, "  \"total_instances\": %zu,\n",
                 result.total_instances);
    std::fprintf(out, "  \"train_metric\": %.17g,\n", final.train_metric);
    std::fprintf(out, "  \"test_metric\": %.17g,\n", final.test_metric);
    std::fprintf(out, "  \"search_seconds\": %.6f,\n", search_seconds);
    std::fprintf(out, "  \"faults\": {\n");
    std::fprintf(out, "    \"injection_enabled\": %s,\n",
                 active_injector->enabled() ? "true" : "false");
    std::fprintf(out, "    \"injected\": %zu,\n", faults.injected_faults);
    std::fprintf(out, "    \"failed_evals\": %zu,\n", faults.failed_evals);
    std::fprintf(out, "    \"failed_folds\": %zu,\n", faults.failed_folds);
    std::fprintf(out, "    \"quarantined_folds\": %zu,\n",
                 faults.quarantined_folds);
    std::fprintf(out, "    \"timed_out_folds\": %zu,\n",
                 faults.timed_out_folds);
    std::fprintf(out, "    \"fold_retries\": %zu\n", faults.fold_retries);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"cache\": {\n");
    std::fprintf(out, "    \"fold_hits\": %zu,\n", cache_stats.fold_hits);
    std::fprintf(out, "    \"fold_misses\": %zu,\n",
                 cache_stats.fold_misses);
    std::fprintf(out, "    \"result_hits\": %zu,\n",
                 cache_stats.result_hits);
    std::fprintf(out, "    \"result_misses\": %zu,\n",
                 cache_stats.result_misses);
    std::fprintf(out, "    \"entries\": %zu,\n", cache_stats.entries);
    std::fprintf(out, "    \"hit_rate\": %.6f\n", cache_stats.hit_rate());
    std::fprintf(out, "  }\n");
    std::fprintf(out, "}\n");
    bool write_failed = std::ferror(out) != 0;
    if (std::fclose(out) != 0 || write_failed) {
      return Status::IoError("cannot write --json path '" + json_path + "'");
    }
    std::printf("wrote JSON summary to %s\n", json_path.c_str());
  }

  if (!save_path.empty()) {
    BHPO_RETURN_NOT_OK(SaveModelToFile(*final_model, save_path));
    std::printf("saved final model to %s\n", save_path.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace bhpo

int main(int argc, char** argv) {
  bhpo::Status status = bhpo::RunCli(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
