// perfbench — end-to-end benchmark of complete bandit HPO searches.
//
//   perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-dir DIR] [--tmp-dir DIR]
//
// Without tracing, a run measures the end-to-end metrics; with --trace 1 it
// alternates untraced and traced searches and reports the per-layer
// metrics. Every search's output is checked. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit codes: 0 all checks passed, 1 a check failed, 2 the run could not
// start or a search returned an error (no result line then).

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "metrics.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 32.0;
  int trace = 0;
  std::string trace_dir;
  std::string tmp_dir = ".bench_build/perfbench/tmp";
};

// The run's private checkpoint directory; Die removes it too, since
// std::exit skips the destructor of the TempDir that owns it.
std::string temp_dir_path;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  if (!temp_dir_path.empty()) {
    std::error_code error;
    std::filesystem::remove_all(temp_dir_path, error);
  }
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Die("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        Die("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Die("--workload is required");
  if (args.workload != "all" && FindWorkload(args.workload) == nullptr) {
    Die("unknown workload " + args.workload);
  }
  return args;
}

// The library reads these at first use: BHPO_FAULT would inject faults into
// the clean workloads through FaultInjector::Global(), and the others
// change what is measured.
void RefuseLibraryEnvironment() {
  for (char** env = environ; *env != nullptr; ++env) {
    std::string entry = *env;
    std::string name = entry.substr(0, entry.find('='));
    if (name == "BHPO_FAULT" || name == "BHPO_SIMD" ||
        name == "BHPO_LOG_LEVEL" || name.rfind("BHPO_BENCH_", 0) == 0) {
      Die("refusing to run with " + name +
          " set; unset it (the benchmark must measure the default library)");
    }
  }
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

// Peak resident memory of one search. Linux resets the process's
// high-water mark when "5" is written to /proc/self/clear_refs; where that
// is refused, the process-lifetime peak (ru_maxrss) is reported instead.
// Free heap kept from earlier searches is returned first, so each search
// starts from the footprint a fresh process would have.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// A private directory for checkpoint files, removed with everything in it
// (including the ".tmp" a torn write leaves) when the run ends.
class TempDir {
 public:
  explicit TempDir(const std::string& base) {
    std::error_code error;
    std::filesystem::create_directories(base, error);
    std::string pattern = base + "/run.XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (mkdtemp(buffer.data()) == nullptr) {
      Die("cannot create a temporary directory under " + base);
    }
    path_ = buffer.data();
    temp_dir_path = path_;
  }
  ~TempDir() {
    std::error_code error;
    std::filesystem::remove_all(path_, error);
    temp_dir_path.clear();
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Report {
  size_t attempted = 0;  // Evaluations attempted.
  size_t failed = 0;     // Evaluations demoted.
  std::vector<std::string> failures;
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;  // How each value was formed.
};

template <typename T>
T Unwrap(bhpo::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Record(Report* report, const Instance& instance,
            const SearchOutcome& out, uint64_t seed, size_t index,
            const char* kind) {
  report->attempted += out.result.num_evaluations;
  report->failed += out.result.faults.failed_evals;
  std::vector<std::string> failures =
      CheckSearch(instance, out, seed, index);
  std::printf(
      "%s search %zu seed=%llu search_s=%.4f cpu_s=%.4f final_fit_s=%.4f "
      "evals=%zu test_metric=%.4f cv_score=%.6f digest=%016llx "
      "injected=%zu failed_folds=%zu retries=%zu demoted=%zu checks=%s\n",
      kind, index, static_cast<unsigned long long>(instance.seed),
      out.search_s, out.cpu_s, out.final_fit_s, out.result.num_evaluations,
      out.final.test_metric, out.result.best_score,
      static_cast<unsigned long long>(out.digest), out.fault_stats.total(),
      out.result.faults.failed_folds, out.result.faults.fold_retries,
      out.result.faults.failed_evals, failures.empty() ? "ok" : "FAILED");
  for (const std::string& f : failures) report->failures.push_back(f);
}

// Set-up is cheap next to a search, so it is repeated until its median is
// stable: at least kMinSetups times and kMinSetupSeconds in total.
constexpr size_t kMinSetups = 9;
constexpr size_t kMaxSetups = 1000;
constexpr double kMinSetupSeconds = 0.5;

Report RunUntraced(const WorkloadSpec& spec, const Args& args,
                   const std::string& checkpoint) {
  Report report;
  std::vector<double> setup_s, search_s, cpu_s, test, rss;
  double evals = 0.0;
  bool per_search_rss = true;
  bhpo::Stopwatch run;
  for (size_t i = 0; i == 0 || run.ElapsedSeconds() < args.seconds; ++i) {
    per_search_rss = ResetPeakRss() && per_search_rss;
    bhpo::Stopwatch watch;
    std::unique_ptr<Instance> instance =
        Unwrap(Setup(spec, PanelSeed(args.seed, i), nullptr), "setup");
    setup_s.push_back(watch.ElapsedSeconds());
    SearchOutcome out = Unwrap(
        RunSearch(instance.get(), instance->caching.get(), checkpoint,
                  nullptr),
        "search");
    Record(&report, *instance, out, args.seed, i, "untraced");
    search_s.push_back(out.search_s);
    cpu_s.push_back(out.cpu_s);
    test.push_back(out.final.test_metric);
    rss.push_back(PeakRssMb());
    evals += static_cast<double>(out.result.num_evaluations);
  }
  size_t searches = search_s.size();
  double setup_total = 0.0;
  for (double s : setup_s) setup_total += s;
  for (size_t j = 0; setup_s.size() < kMaxSetups &&
                     (setup_s.size() < kMinSetups ||
                      setup_total < kMinSetupSeconds);
       ++j) {
    bhpo::Stopwatch watch;
    std::unique_ptr<Instance> instance = Unwrap(
        Setup(spec, PanelSeed(args.seed, j % searches), nullptr), "setup");
    setup_s.push_back(watch.ElapsedSeconds());
    setup_total += setup_s.back();
  }

  double total_search = 0.0;
  for (double s : search_s) total_search += s;
  std::string per_search =
      "mean of " + std::to_string(searches) + " searches";
  report.values["search_s"] = Mean(search_s);
  report.notes["search_s"] = per_search + ", median " +
                             std::to_string(Median(search_s));
  report.values["setup_s"] = Median(setup_s);
  report.notes["setup_s"] =
      "median of " + std::to_string(setup_s.size()) + " set-ups";
  report.values["cpu_s"] = Mean(cpu_s);
  report.notes["cpu_s"] = per_search + ", median " +
                          std::to_string(Median(cpu_s));
  report.values["peak_rss_mb"] = Mean(rss);
  report.notes["peak_rss_mb"] =
      per_search_rss ? per_search + " (set-up, search, final fit)"
                     : "process peak over the run";
  report.values["evals_per_s"] = total_search > 0.0 ? evals / total_search
                                                    : 0.0;
  report.notes["evals_per_s"] = "evaluations / search seconds over " +
                                std::to_string(searches) + " searches";
  report.values["test_metric"] = Mean(test);
  report.notes["test_metric"] = per_search;
  return report;
}

Report RunTraced(const WorkloadSpec& spec, const Args& args,
                 const std::string& checkpoint) {
  Report report;
  std::vector<std::map<std::string, double>> per_search;
  std::vector<std::vector<Span>> groups;
  bhpo::Stopwatch run;
  for (size_t i = 0; i == 0 || run.ElapsedSeconds() < args.seconds; ++i) {
    uint64_t seed = PanelSeed(args.seed, i);
    double untraced_s = 0.0;
    uint64_t untraced_digest = 0;
    {
      std::unique_ptr<Instance> instance =
          Unwrap(Setup(spec, seed, nullptr), "setup");
      SearchOutcome out = Unwrap(
          RunSearch(instance.get(), instance->caching.get(), checkpoint,
                    nullptr),
          "search");
      Record(&report, *instance, out, args.seed, i, "untraced");
      untraced_s = out.search_s;
      untraced_digest = out.digest;
    }

    Tracer tracer;
    FoldCounters counters;
    std::unique_ptr<Instance> instance =
        Unwrap(Setup(spec, seed, &tracer), "setup");
    TracedEnhancedStrategy traced(&instance->strategy->grouping(),
                                  instance->fold_options, instance->scoring,
                                  instance->options, &tracer, &counters);
    bhpo::CachingStrategy caching(&traced, instance->cache.get());
    EvalSpanStrategy outer(&caching, &tracer);
    SearchOutcome out = Unwrap(
        RunSearch(instance.get(), &outer, checkpoint, &tracer), "search");
    Record(&report, *instance, out, args.seed, i, "traced");
    if (out.digest != untraced_digest) {
      report.failures.push_back("search " + std::to_string(i) +
                                ": traced digest differs from untraced");
    }

    std::vector<Span> spans = tracer.spans();
    std::map<std::string, double> m = SpanMetrics(spans);
    auto count = [](size_t v) { return static_cast<double>(v); };
    size_t folds_failed = counters.failed + counters.quarantined +
                          counters.timed_out;
    m["cv.folds_attempted"] = count(counters.attempted);
    m["cv.folds_scored"] = count(counters.scored);
    m["cv.folds_failed"] = count(counters.failed);
    m["cv.folds_quarantined"] = count(counters.quarantined);
    m["cv.fold_retries"] = count(counters.retries);
    m["hpo.cache.result_hits"] = count(out.cache.result_hits);
    m["hpo.cache.result_misses"] = count(out.cache.result_misses);
    m["hpo.cache.fold_hits"] = count(out.cache.fold_hits);
    m["hpo.cache.fold_misses"] = count(out.cache.fold_misses);
    m["hpo.cache.hit_ratio"] = out.cache.hit_rate();
    m["hpo.cache.entries"] = count(out.cache.entries);
    m["hpo.rungs"] = count(out.rungs);
    m["hpo.evaluations"] = count(out.result.num_evaluations);
    m["hpo.instances"] = count(out.result.total_instances);
    m["hpo.checkpoint.bytes"] = count(out.checkpoint_bytes);
    m["hpo.checkpoint.load_s"] = out.checkpoint_load_s;
    m["fault.injected"] = count(out.fault_stats.total());
    m["fault.evals_demoted"] = count(out.result.faults.failed_evals);
    m["eval_fail_ratio"] =
        out.result.num_evaluations > 0
            ? count(out.result.faults.failed_evals) /
                  count(out.result.num_evaluations)
            : 0.0;
    m["fold_fail_ratio"] = counters.attempted > 0
                               ? count(folds_failed) / count(counters.attempted)
                               : 0.0;
    m["hpo.final_fit_s"] = out.final_fit_s;
    m["trace.overhead_s"] = out.search_s - untraced_s;
    per_search.push_back(std::move(m));
    groups.push_back(std::move(spans));
  }

  for (const MetricSpec& metric : PerLayerMetrics()) {
    std::vector<double> values;
    for (const auto& m : per_search) {
      auto it = m.find(metric.name);
      if (it != m.end()) values.push_back(it->second);
    }
    if (values.empty()) continue;
    report.values[metric.name] = Mean(values);
    report.notes[metric.name] =
        "mean of " + std::to_string(values.size()) + " traced searches";
  }
  size_t nproc = Nproc();
  report.values["trace.searches"] = static_cast<double>(per_search.size());
  report.values["env.nproc"] = static_cast<double>(nproc);
  report.values["env.timings_reliable"] = nproc >= 4 ? 1.0 : 0.0;

  if (!args.trace_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(args.trace_dir, error);
    std::string path = args.trace_dir + "/" + spec.name + ".seed" +
                       std::to_string(args.seed) + ".trace.json";
    bhpo::Status written = WriteChromeTrace(path, groups);
    if (!written.ok()) Die(written.ToString());
    std::printf("trace written to %s\n", path.c_str());
  }
  return report;
}

// Prints the catalogue's metrics in order, each with its unit and how it
// was formed, and returns the JSON "metrics" object.
std::string Metrics(const Report& report,
                    const std::vector<MetricSpec>& catalogue,
                    const std::string& prefix,
                    std::vector<std::string>* failures) {
  std::string json;
  for (const MetricSpec& metric : catalogue) {
    auto it = report.values.find(metric.name);
    double value = it == report.values.end() ? 0.0 : it->second;
    if (it == report.values.end() || !std::isfinite(value)) {
      failures->push_back(std::string("metric ") + metric.name +
                          " was not measured");
      value = 0.0;
    }
    auto note = report.notes.find(metric.name);
    std::printf("metric %s%s = %.6g %s (%s)\n", prefix.c_str(), metric.name,
                value, metric.unit,
                note == report.notes.end() ? "single value"
                                           : note->second.c_str());
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", prefix.c_str(), metric.name,
                  value, metric.unit);
    json += buffer;
  }
  return json;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  RefuseLibraryEnvironment();
  TempDir tmp(args.tmp_dir);
  size_t nproc = Nproc();

  std::vector<const WorkloadSpec*> specs;
  if (args.workload == "all") {
    for (const WorkloadSpec& spec : Workloads()) specs.push_back(&spec);
  } else {
    specs.push_back(FindWorkload(args.workload));
  }
  const std::vector<MetricSpec>& catalogue =
      args.trace == 1 ? PerLayerMetrics() : EndToEndMetrics();

  size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::string json;
  for (const WorkloadSpec* spec : specs) {
    std::printf("workload %s seed=%llu seconds=%g trace=%d nproc=%zu "
                "pool_workers=%zu%s\n",
                spec->name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace, nproc, spec->pool_workers,
                nproc < 4 ? " timings=UNRELIABLE (nproc < 4)" : "");
    std::string checkpoint = tmp.path() + "/" + spec->name + ".ckpt";
    Report report = args.trace == 1 ? RunTraced(*spec, args, checkpoint)
                                    : RunUntraced(*spec, args, checkpoint);
    std::string prefix =
        specs.size() > 1 ? std::string(spec->name) + "/" : std::string();
    std::string part = Metrics(report, catalogue, prefix, &report.failures);
    json += (json.empty() ? "" : ", ") + part;
    attempted += report.attempted;
    failed += report.failed;
    for (const std::string& f : report.failures) {
      failures.push_back(std::string(spec->name) + ": " + f);
    }
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED %s\n", f.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      failures.empty() ? "true" : "false", attempted, failed, json.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
