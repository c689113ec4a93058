#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

// 1-based nearest rank of percentile p over n samples, clamped to [1, n].
size_t NearestRank(double p, size_t n) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

Tail TailPercentile(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  constexpr size_t kMinBeyond = 10;
  double chosen = 50.0;
  for (double p : kLadder) {
    if (values.size() - NearestRank(p, values.size()) >= kMinBeyond) {
      chosen = p;
      break;
    }
  }
  size_t rank = NearestRank(chosen, values.size());
  tail.value = values[rank - 1];
  tail.percentile = chosen;
  tail.beyond = values.size() - rank;
  return tail;
}

double UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double total = 0.0;
  bool open = false;
  Interval run;
  for (const Interval& iv : intervals) {
    if (!(iv.end > iv.start)) continue;
    if (open && iv.start <= run.end) {
      run.end = std::max(run.end, iv.end);
      continue;
    }
    if (open) total += run.end - run.start;
    run = iv;
    open = true;
  }
  if (open) total += run.end - run.start;
  return total;
}

double SelfTime(const Interval& parent,
                const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& child : children) {
    clipped.push_back({std::max(child.start, parent.start),
                       std::min(child.end, parent.end)});
  }
  return std::max(0.0, (parent.end - parent.start) - UnionLength(clipped));
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
