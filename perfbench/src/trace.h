#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span tracing for the traced benchmark run. Spans are recorded
// only here, around calls into the library's public functions; nothing in
// the library is instrumented. A span names the layer call, its start and
// end on the steady clock, the thread ("lane") it ran on, and the span that
// caused it, so self times and pool lane occupancy can be derived after the
// run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cv/gen_folds.h"
#include "cv/grouping.h"
#include "hpo/eval_strategy.h"
#include "hpo/scoring.h"
#include "ml/model.h"
#include "stats.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kDataBuild,       // MakePaperDataset
  kGrouping,        // EnhancedStrategy::Create (Operation 1)
  kOptimize,        // HpoOptimizer::Optimize
  kEval,            // EvalStrategy::Evaluate through the result cache
  kStrategy,        // the strategy's own Evaluate (cache misses only)
  kSample,          // SampleFromGroups
  kFolds,           // GenFolds (Operation 2)
  kCrossVal,        // CrossValidate
  kFit,             // Model::Fit
  kPredict,         // Model::Predict*
  kCacheFold,       // EvalCache::LookupFold / InsertFold
  kCacheStats,      // EvalCache::Stats
  kFinalFit,        // EvaluateFinalConfig
  kCheckpointLoad,  // LoadCheckpoint
};
const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kEval;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: no parent.
  uint32_t lane = 0;    // Dense thread index, in order of first span.
  double start = 0.0;   // Seconds since the tracer was created.
  double end = 0.0;
  uint64_t rows = 0;    // Training rows, for fit spans.
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  double Now() const;
  // Stores a finished span, stamping it with the calling thread's lane.
  void Record(Span span);
  std::vector<Span> spans() const;

  // The open Optimize span; evaluation spans hang off it because the
  // optimizer may run them on pool threads.
  void set_root(uint32_t id) { root_.store(id, std::memory_order_relaxed); }
  uint32_t root() const { return root_.load(std::memory_order_relaxed); }

 private:
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint32_t> next_id_{1};
  std::atomic<uint32_t> root_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> lanes_;
};

// Times one call. The parent defaults to the innermost span open on this
// thread; calls that cross threads pass it explicitly. A null tracer makes
// the span a no-op, so set-up code is shared by traced and untraced runs.
class ScopedSpan {
 public:
  static constexpr uint32_t kInherit = 0xffffffffu;

  ScopedSpan(Tracer* tracer, SpanKind kind, uint32_t parent = kInherit,
             uint32_t id = 0, uint64_t rows = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

// Fold outcomes seen at the CrossValidate boundary of the traced strategy.
struct FoldCounters {
  std::atomic<size_t> attempted{0};
  std::atomic<size_t> scored{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> quarantined{0};
  std::atomic<size_t> timed_out{0};
  std::atomic<size_t> retries{0};
};

// EnhancedStrategy::Evaluate re-stated through the same public calls, with
// a span around each and a timing proxy around every model, since Fit and
// Predict are only reachable through the model the strategy builds. Its
// results must be bit-identical to the real strategy's; the benchmark
// compares run digests to prove it.
class TracedEnhancedStrategy : public bhpo::EvalStrategy {
 public:
  // `grouping` (Operation 1, built by EnhancedStrategy::Create), `tracer`
  // and `counters` are not owned and must outlive the strategy.
  TracedEnhancedStrategy(const bhpo::Grouping* grouping,
                         bhpo::GenFoldsOptions fold_options,
                         bhpo::ScoringOptions scoring,
                         bhpo::StrategyOptions options, Tracer* tracer,
                         FoldCounters* counters);

  bhpo::Result<bhpo::EvalResult> Evaluate(const bhpo::Configuration& config,
                                          const bhpo::Dataset& train,
                                          size_t budget,
                                          bhpo::Rng* rng) override;
  std::string name() const override { return "enhanced"; }

 private:
  const bhpo::Grouping* grouping_;
  bhpo::GenFoldsOptions fold_options_;
  bhpo::ScoringOptions scoring_;
  bhpo::StrategyOptions options_;
  Tracer* tracer_;
  FoldCounters* counters_;
};

// Outermost evaluation span: wraps the result-cache decorator, so cache
// hits are timed as evaluations too.
class EvalSpanStrategy : public bhpo::EvalStrategy {
 public:
  EvalSpanStrategy(bhpo::EvalStrategy* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  bhpo::Result<bhpo::EvalResult> Evaluate(const bhpo::Configuration& config,
                                          const bhpo::Dataset& train,
                                          size_t budget,
                                          bhpo::Rng* rng) override;
  std::string name() const override { return inner_->name(); }

 private:
  bhpo::EvalStrategy* inner_;
  Tracer* tracer_;
};

// Per-layer metrics derived from one traced search's spans (exactly one
// kOptimize span): layer times and call counts, self times, fit and
// evaluation latency percentiles, and pool lane occupancy.
std::map<std::string, double> SpanMetrics(const std::vector<Span>& spans);

// Writes the spans as a Chrome trace-event JSON file (chrome://tracing,
// ui.perfetto.dev). `groups` holds one span list per traced search; each
// becomes its own process row.
bhpo::Status WriteChromeTrace(const std::string& path,
                              const std::vector<std::vector<Span>>& groups);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
