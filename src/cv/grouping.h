#ifndef BHPO_CV_GROUPING_H_
#define BHPO_CV_GROUPING_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace bhpo {

// Options for the paper's instance grouping (Section III-A, Operation 1).
struct GroupingOptions {
  // v: number of feature clusters == number of groups == number of special
  // folds. The paper recommends 2-5.
  int num_groups = 2;
  // r_group: a cluster is re-clustered away when it holds fewer than
  // min_cluster_ratio * n / v instances. The experiments use 0.8.
  double min_cluster_ratio = 0.8;
  // k-means iteration budget ("defaults to 10" in the paper). Balanced
  // k-means produces the feature categories c_i^x.
  int kmeans_iterations = 10;
  // Classes smaller than rare_class_ratio * n / u are merged into one rare
  // pseudo-class before grouping (the paper uses 10%).
  double rare_class_ratio = 0.1;
  // Regression targets are quantile-binned into this many pseudo-classes.
  int regression_bins = 4;
  uint64_t seed = 0;

  // InvalidArgument unless num_groups >= 2. BuildGrouping calls it.
  Status Validate() const;
};

// The result of Operation 1: every instance carries a group id, and the
// class-by-group contingency counts are retained for diagnostics/tests.
struct Grouping {
  int num_groups = 0;
  std::vector<int> group_of;                   // size n, in [0, num_groups)
  std::vector<std::vector<size_t>> members;    // group -> absolute row ids
  std::vector<std::vector<size_t>> counts;     // [class][group] contingency
  std::vector<int> effective_labels;           // after rare-class merge/binning
  int num_effective_classes = 0;

  // Members of group g restricted to `subset` (absolute ids).
  std::vector<std::vector<size_t>> MembersWithin(
      const std::vector<size_t>& subset) const;
};

// Builds groups from feature clusters and (effective) labels per
// Operation 1: count the class-by-cluster contingency, assign each
// cluster's top-k classes to its group, then attach the remaining
// instances to the group whose cluster holds the largest share of their
// class (ties broken by the instance's own cluster).
Result<Grouping> BuildGrouping(const Dataset& data,
                               const GroupingOptions& options);

// Effective labels used by the grouping: class labels with rare classes
// merged (classification) or quantile bins (regression). Exposed for tests.
std::vector<int> EffectiveLabels(const Dataset& data,
                                 const GroupingOptions& options,
                                 int* num_effective_classes);

// Group-stratified subset sampling: draws `count` instances allocating
// quota proportionally to group sizes (the paper's replacement for
// random/stratified subset sampling when the bandit allocates budget b_t).
std::vector<size_t> SampleFromGroups(const Grouping& grouping, size_t count,
                                     Rng* rng);

}  // namespace bhpo

#endif  // BHPO_CV_GROUPING_H_
