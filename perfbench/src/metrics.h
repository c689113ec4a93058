#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

// The benchmark's metric catalogue. A run without tracing reports exactly
// the end-to-end metrics, a traced run exactly the per-layer ones, in this
// order; BENCHMARK.json lists the same names and units.

#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
