#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Small numeric helpers the benchmark reports with. They depend on nothing
// from the library so the benchmark's own tests can pin them down exactly.

#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

// Median of `values` (mean of the middle pair for an even count); 0 for an
// empty input.
double Median(std::vector<double> values);

// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

// A tail latency: the highest percentile of the ladder
// {50, 75, 90, 95, 99, 99.9} that still has at least 10 samples beyond it,
// by the nearest-rank rule (rank = ceil(p/100 * n), beyond = n - rank).
// With fewer than 20 samples no percentile qualifies and the median rank
// (p50) is reported instead, with its smaller `beyond`.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailPercentile(std::vector<double> values);

// A closed time interval in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

// Total length covered by the union of `intervals` (overlaps counted once;
// empty or inverted intervals contribute nothing).
double UnionLength(std::vector<Interval> intervals);

// A span's self time: its duration minus the part of it covered by the
// union of its children. Children may overlap each other and may run on
// other threads; only the part inside `parent` is subtracted.
double SelfTime(const Interval& parent, const std::vector<Interval>& children);

// Metric names are 1-64 characters of letters, digits, '_', '.' and '-',
// starting with a letter or a digit.
bool IsValidMetricName(std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
