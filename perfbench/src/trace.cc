#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>

#include "data/dataset_view.h"
#include "hpo/eval_cache.h"
#include "hpo/model_factory.h"

namespace perfbench {

using bhpo::Status;

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDataBuild:
      return "data.build";
    case SpanKind::kGrouping:
      return "cv.grouping";
    case SpanKind::kOptimize:
      return "hpo.optimize";
    case SpanKind::kEval:
      return "hpo.eval";
    case SpanKind::kStrategy:
      return "hpo.strategy";
    case SpanKind::kSample:
      return "cv.sample";
    case SpanKind::kFolds:
      return "cv.folds";
    case SpanKind::kCrossVal:
      return "cv.crossval";
    case SpanKind::kFit:
      return "ml.fit";
    case SpanKind::kPredict:
      return "ml.predict";
    case SpanKind::kCacheFold:
      return "hpo.cache.fold";
    case SpanKind::kCacheStats:
      return "hpo.cache.stats";
    case SpanKind::kFinalFit:
      return "hpo.final_fit";
    case SpanKind::kCheckpointLoad:
      return "hpo.checkpoint.load";
  }
  return "unknown";
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::Record(Span span) {
  std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(lanes_.begin(), lanes_.end(), self);
  span.lane = static_cast<uint32_t>(it - lanes_.begin());
  if (it == lanes_.end()) lanes_.push_back(self);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

// Ids of the spans open on this thread, innermost last. Nesting on one
// thread is strictly last-in first-out, also when a pool thread helps run
// another evaluation's task in the middle of its own.
thread_local std::vector<uint32_t> open_spans;

}  // namespace

ScopedSpan::ScopedSpan(Tracer* tracer, SpanKind kind, uint32_t parent,
                       uint32_t id, uint64_t rows)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.kind = kind;
  span_.id = id != 0 ? id : tracer_->NewId();
  if (parent == kInherit) {
    parent = open_spans.empty() ? 0 : open_spans.back();
  }
  span_.parent = parent;
  span_.rows = rows;
  open_spans.push_back(span_.id);
  span_.start = tracer_->Now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = tracer_->Now();
  open_spans.pop_back();
  tracer_->Record(span_);
}

namespace {

// Forwards every Model call to the real model under a span. Results are
// untouched, so CV scores stay bit-identical.
class TimingModel : public bhpo::Model {
 public:
  TimingModel(std::unique_ptr<bhpo::Model> inner, Tracer* tracer,
              uint32_t parent)
      : inner_(std::move(inner)), tracer_(tracer), parent_(parent) {}

  using bhpo::Model::Fit;

  Status Fit(const bhpo::DatasetView& train) override {
    ScopedSpan span(tracer_, SpanKind::kFit, parent_, 0, train.n());
    return inner_->Fit(train);
  }
  std::vector<int> PredictLabels(const bhpo::Matrix& features) const override {
    ScopedSpan span(tracer_, SpanKind::kPredict, parent_);
    return inner_->PredictLabels(features);
  }
  std::vector<double> PredictValues(
      const bhpo::Matrix& features) const override {
    ScopedSpan span(tracer_, SpanKind::kPredict, parent_);
    return inner_->PredictValues(features);
  }
  std::vector<int> PredictLabels(
      const bhpo::DatasetView& view) const override {
    ScopedSpan span(tracer_, SpanKind::kPredict, parent_);
    return inner_->PredictLabels(view);
  }
  std::vector<double> PredictValues(
      const bhpo::DatasetView& view) const override {
    ScopedSpan span(tracer_, SpanKind::kPredict, parent_);
    return inner_->PredictValues(view);
  }

 private:
  std::unique_ptr<bhpo::Model> inner_;
  Tracer* tracer_;
  uint32_t parent_;
};

}  // namespace

TracedEnhancedStrategy::TracedEnhancedStrategy(
    const bhpo::Grouping* grouping, bhpo::GenFoldsOptions fold_options,
    bhpo::ScoringOptions scoring, bhpo::StrategyOptions options,
    Tracer* tracer, FoldCounters* counters)
    : grouping_(grouping),
      fold_options_(fold_options),
      scoring_(scoring),
      options_(options),
      tracer_(tracer),
      counters_(counters) {}

bhpo::Result<bhpo::EvalResult> TracedEnhancedStrategy::Evaluate(
    const bhpo::Configuration& config, const bhpo::Dataset& train,
    size_t budget, bhpo::Rng* rng) {
  using namespace bhpo;  // NOLINT: mirrors the library's own code.
  ScopedSpan strategy_span(tracer_, SpanKind::kStrategy);
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  if (train.n() != grouping_->group_of.size()) {
    return Status::FailedPrecondition("grouping built over another dataset");
  }
  size_t b = ClampBudget(budget, train.n(), options_.num_folds);
  uint64_t config_hash = config.Hash();
  uint64_t subset_id = EvalSubsetId(*rng, budget, train.n());

  std::vector<size_t> subset;
  if (b >= train.n()) {
    subset.resize(train.n());
    std::iota(subset.begin(), subset.end(), 0);
  } else {
    ScopedSpan span(tracer_, SpanKind::kSample);
    subset = SampleFromGroups(*grouping_, b, rng);
  }

  FoldSet folds;
  {
    ScopedSpan span(tracer_, SpanKind::kFolds);
    BHPO_ASSIGN_OR_RETURN(folds,
                          GenFolds(*grouping_, subset, fold_options_, rng));
  }

  // Same per-evaluation model seed as the library's strategies draw.
  FactoryOptions factory_options = options_.factory;
  factory_options.seed = rng->engine()();
  BHPO_ASSIGN_OR_RETURN(FoldModelFactory factory,
                        MakeFoldModelFactory(config, factory_options));
  uint32_t cv_id = tracer_->NewId();
  FoldModelFactory timed = [factory, tracer = tracer_,
                            cv_id](size_t fold) -> std::unique_ptr<Model> {
    return std::make_unique<TimingModel>(factory(fold), tracer, cv_id);
  };

  CvOptions cv_options;
  cv_options.metric = options_.metric;
  cv_options.pool = options_.cv_pool;
  cv_options.guard = options_.guard;
  cv_options.faults = options_.faults;
  cv_options.fault_site = subset_id;
  std::vector<bool> injected(folds.num_folds(), false);
  if (options_.cache != nullptr) {
    ScopedSpan span(tracer_, SpanKind::kCacheFold);
    for (size_t f = 0; f < folds.num_folds(); ++f) {
      std::optional<EvalCache::FoldScore> hit = options_.cache->LookupFold(
          config_hash, subset_id, static_cast<uint32_t>(f));
      if (!hit.has_value()) continue;
      cv_options.precomputed.push_back(
          PrecomputedFold{f, hit->score, hit->failed});
      injected[f] = true;
    }
  }

  EvalResult result;
  {
    ScopedSpan span(tracer_, SpanKind::kCrossVal, ScopedSpan::kInherit,
                    cv_id);
    BHPO_ASSIGN_OR_RETURN(
        result.cv, CrossValidate(DatasetView(train), folds, timed, cv_options));
  }
  result.budget_used = b;
  result.gamma_percent =
      100.0 * static_cast<double>(b) / static_cast<double>(train.n());
  result.score = ScoreOutcome(result.cv, result.gamma_percent, scoring_);

  counters_->retries += result.cv.fold_retries;
  const std::vector<FoldOutcome>& outcomes = result.cv.folds;
  for (size_t f = 0; f < outcomes.size(); ++f) {
    if (outcomes[f].status == FoldStatus::kSkipped || injected[f]) continue;
    ++counters_->attempted;
    switch (outcomes[f].status) {
      case FoldStatus::kScored:
        ++counters_->scored;
        break;
      case FoldStatus::kFailed:
        ++counters_->failed;
        break;
      case FoldStatus::kQuarantined:
        ++counters_->quarantined;
        break;
      case FoldStatus::kTimedOut:
        ++counters_->timed_out;
        break;
      default:
        break;
    }
  }

  if (options_.cache != nullptr) {
    // The library's fold-cache store rule: deterministic outcomes are
    // memoized, transient failures and timeouts are not.
    ScopedSpan span(tracer_, SpanKind::kCacheFold);
    for (size_t f = 0; f < outcomes.size(); ++f) {
      if (outcomes[f].status == FoldStatus::kSkipped) continue;
      if (injected[f]) {
        ++result.cache_fold_hits;
        continue;
      }
      ++result.cache_fold_misses;
      if (outcomes[f].transient_failure ||
          outcomes[f].status == FoldStatus::kTimedOut) {
        continue;
      }
      EvalCache::FoldScore value;
      if (outcomes[f].status == FoldStatus::kScored) {
        value.score = outcomes[f].score;
      } else if (outcomes[f].status == FoldStatus::kFailed) {
        value.failed = true;
      } else if (outcomes[f].status == FoldStatus::kQuarantined) {
        value.score = std::numeric_limits<double>::quiet_NaN();
      } else {
        continue;
      }
      options_.cache->InsertFold(config_hash, subset_id,
                                 static_cast<uint32_t>(f), value);
    }
  }
  return result;
}

bhpo::Result<bhpo::EvalResult> EvalSpanStrategy::Evaluate(
    const bhpo::Configuration& config, const bhpo::Dataset& train,
    size_t budget, bhpo::Rng* rng) {
  ScopedSpan span(tracer_, SpanKind::kEval, tracer_->root());
  return inner_->Evaluate(config, train, budget, rng);
}

std::map<std::string, double> SpanMetrics(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, std::vector<Interval>> children;
  std::unordered_map<uint32_t, double> total;  // by kind
  std::unordered_map<uint32_t, size_t> calls;  // by kind
  const Span* optimize = nullptr;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
    total[static_cast<uint32_t>(s.kind)] += s.end - s.start;
    ++calls[static_cast<uint32_t>(s.kind)];
    if (s.kind == SpanKind::kOptimize) optimize = &s;
  }
  auto sum = [&](SpanKind kind) { return total[static_cast<uint32_t>(kind)]; };
  auto count = [&](SpanKind kind) {
    return static_cast<double>(calls[static_cast<uint32_t>(kind)]);
  };
  auto self_of = [&](SpanKind kind) {
    double self = 0.0;
    for (const Span& s : spans) {
      if (s.kind == kind) self += SelfTime({s.start, s.end}, children[s.id]);
    }
    return self;
  };
  auto millis = [&](SpanKind kind) {
    std::vector<double> ms;
    for (const Span& s : spans) {
      if (s.kind == kind) ms.push_back(1e3 * (s.end - s.start));
    }
    return ms;
  };

  std::map<std::string, double> m;
  Interval window;
  if (optimize != nullptr) window = {optimize->start, optimize->end};
  double search_s = window.end - window.start;
  m["trace.search_s"] = search_s;
  m["data.build_s"] = sum(SpanKind::kDataBuild);
  m["cv.grouping_s"] = sum(SpanKind::kGrouping);

  m["cv.sample_s"] = sum(SpanKind::kSample);
  m["cv.sample_calls"] = count(SpanKind::kSample);
  m["cv.folds_s"] = sum(SpanKind::kFolds);
  m["cv.folds_calls"] = count(SpanKind::kFolds);
  m["cv.crossval_s"] = sum(SpanKind::kCrossVal);
  m["cv.crossval_self_s"] = self_of(SpanKind::kCrossVal);

  std::vector<double> fit_ms = millis(SpanKind::kFit);
  Tail fit_tail = TailPercentile(fit_ms);
  double fit_rows = 0.0;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kFit) fit_rows += static_cast<double>(s.rows);
  }
  m["ml.fit_s"] = sum(SpanKind::kFit);
  m["ml.fit_calls"] = count(SpanKind::kFit);
  m["ml.fit_ms_p50"] = Median(fit_ms);
  m["ml.fit_ms_tail"] = fit_tail.value;
  m["ml.fit_ms_tail_pct"] = fit_tail.percentile;
  m["ml.fit_rows"] = fit_rows;
  m["ml.fit_rows_per_s"] =
      m["ml.fit_s"] > 0.0 ? fit_rows / m["ml.fit_s"] : 0.0;
  m["ml.predict_s"] = sum(SpanKind::kPredict);
  m["ml.predict_calls"] = count(SpanKind::kPredict);

  std::vector<double> eval_ms = millis(SpanKind::kEval);
  Tail eval_tail = TailPercentile(eval_ms);
  m["hpo.eval_calls"] = count(SpanKind::kEval);
  m["hpo.eval_ms_p50"] = Median(eval_ms);
  m["hpo.eval_ms_tail"] = eval_tail.value;
  m["hpo.eval_ms_tail_pct"] = eval_tail.percentile;
  m["hpo.eval_self_s"] = self_of(SpanKind::kStrategy);
  // The result-cache decorator's own time is what an evaluation span holds
  // beyond its strategy call; fold-cache calls are timed directly.
  m["hpo.cache.self_s"] = self_of(SpanKind::kEval) + sum(SpanKind::kCacheFold);
  m["hpo.optimizer_self_s"] =
      optimize != nullptr ? SelfTime(window, children[optimize->id]) : 0.0;

  // Pool lanes: every thread that ran search work. A lane is busy while it
  // runs leaf work (fits, predicts, sampling, folds, fold-cache calls);
  // the rest of the search window it is idle or blocked.
  std::set<uint32_t> lanes;
  std::map<uint32_t, std::vector<Interval>> busy;
  for (const Span& s : spans) {
    if (s.end < window.start || s.start > window.end) continue;
    switch (s.kind) {
      case SpanKind::kFit:
      case SpanKind::kPredict:
      case SpanKind::kSample:
      case SpanKind::kFolds:
      case SpanKind::kCacheFold:
        busy[s.lane].push_back({std::max(s.start, window.start),
                                std::min(s.end, window.end)});
        [[fallthrough]];
      case SpanKind::kOptimize:
      case SpanKind::kEval:
      case SpanKind::kStrategy:
      case SpanKind::kCrossVal:
        lanes.insert(s.lane);
        break;
      default:
        break;
    }
  }
  double busy_s = 0.0;
  for (auto& [lane, intervals] : busy) busy_s += UnionLength(intervals);
  double lane_s = static_cast<double>(lanes.size()) * search_s;
  m["pool.lanes"] = static_cast<double>(lanes.size());
  m["pool.busy_s"] = busy_s;
  m["pool.idle_s"] = std::max(0.0, lane_s - busy_s);
  m["pool.utilization"] = lane_s > 0.0 ? busy_s / lane_s : 0.0;
  // Shares of the search's lane-seconds (equal to shares of search_s on a
  // single lane).
  auto share = [&](double seconds) {
    return lane_s > 0.0 ? seconds / lane_s : 0.0;
  };
  m["ml.fit_share"] = share(m["ml.fit_s"]);
  m["cv.sample_share"] = share(m["cv.sample_s"]);
  m["cv.folds_share"] = share(m["cv.folds_s"]);
  return m;
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<std::vector<Span>>& groups) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IoError("cannot write trace " + path);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const Span& s : groups[g]) {
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                   "\"X\", \"pid\": %zu, \"tid\": %u, \"ts\": %.3f, \"dur\": "
                   "%.3f, \"args\": {\"id\": %u, \"parent\": %u, \"rows\": "
                   "%llu}}",
                   first ? "" : ",\n", SpanName(s.kind), g + 1, s.lane,
                   1e6 * s.start, 1e6 * (s.end - s.start), s.id, s.parent,
                   static_cast<unsigned long long>(s.rows));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) return Status::IoError("cannot close " + path);
  return Status::OK();
}

}  // namespace perfbench
