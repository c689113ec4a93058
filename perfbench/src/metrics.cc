#include "metrics.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"search_s", "s", "lower"},
      {"setup_s", "s", "lower"},
      {"cpu_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"evals_per_s", "1/s", "higher"},
      {"test_metric", "ratio", "higher"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"data.build_s", "s", "lower"},
      {"cv.grouping_s", "s", "lower"},
      {"cv.sample_s", "s", "lower"},
      {"cv.sample_calls", "count", "lower"},
      {"cv.sample_share", "ratio", "lower"},
      {"cv.folds_s", "s", "lower"},
      {"cv.folds_calls", "count", "lower"},
      {"cv.folds_share", "ratio", "lower"},
      {"cv.crossval_s", "s", "lower"},
      {"cv.crossval_self_s", "s", "lower"},
      {"cv.folds_attempted", "count", "lower"},
      {"cv.folds_scored", "count", "higher"},
      {"cv.folds_failed", "count", "lower"},
      {"cv.folds_quarantined", "count", "lower"},
      {"cv.fold_retries", "count", "lower"},
      {"ml.fit_s", "s", "lower"},
      {"ml.fit_calls", "count", "lower"},
      {"ml.fit_ms_p50", "ms", "lower"},
      {"ml.fit_ms_tail", "ms", "lower"},
      {"ml.fit_ms_tail_pct", "pct", "higher"},
      {"ml.fit_rows", "count", "lower"},
      {"ml.fit_rows_per_s", "1/s", "higher"},
      {"ml.fit_share", "ratio", "lower"},
      {"ml.predict_s", "s", "lower"},
      {"ml.predict_calls", "count", "lower"},
      {"hpo.eval_calls", "count", "lower"},
      {"hpo.eval_ms_p50", "ms", "lower"},
      {"hpo.eval_ms_tail", "ms", "lower"},
      {"hpo.eval_ms_tail_pct", "pct", "higher"},
      {"hpo.eval_self_s", "s", "lower"},
      {"hpo.cache.result_hits", "count", "higher"},
      {"hpo.cache.result_misses", "count", "lower"},
      {"hpo.cache.fold_hits", "count", "higher"},
      {"hpo.cache.fold_misses", "count", "lower"},
      {"hpo.cache.hit_ratio", "ratio", "higher"},
      {"hpo.cache.self_s", "s", "lower"},
      {"hpo.cache.entries", "count", "lower"},
      {"hpo.optimizer_self_s", "s", "lower"},
      {"hpo.final_fit_s", "s", "lower"},
      {"hpo.rungs", "count", "lower"},
      {"hpo.evaluations", "count", "lower"},
      {"hpo.instances", "count", "lower"},
      {"hpo.checkpoint.bytes", "bytes", "lower"},
      {"hpo.checkpoint.load_s", "s", "lower"},
      {"fault.injected", "count", "lower"},
      {"fault.evals_demoted", "count", "lower"},
      {"eval_fail_ratio", "ratio", "lower"},
      {"fold_fail_ratio", "ratio", "lower"},
      {"pool.lanes", "count", "higher"},
      {"pool.busy_s", "s", "lower"},
      {"pool.idle_s", "s", "lower"},
      {"pool.utilization", "ratio", "higher"},
      {"trace.search_s", "s", "lower"},
      {"trace.overhead_s", "s", "lower"},
      {"trace.searches", "count", "higher"},
      {"env.nproc", "count", "higher"},
      {"env.timings_reliable", "bool", "higher"},
  };
  return kMetrics;
}

}  // namespace perfbench
