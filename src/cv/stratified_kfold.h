#ifndef BHPO_CV_STRATIFIED_KFOLD_H_
#define BHPO_CV_STRATIFIED_KFOLD_H_

#include <vector>

#include "common/rng.h"
#include "cv/folds.h"
#include "data/dataset.h"

namespace bhpo {

// Label-stratified k-fold (the paper's "stratified KFold" baseline): each
// fold receives a near-proportional share of every class. For regression
// datasets the targets are quantile-binned first so stratification remains
// meaningful.
class StratifiedKFold {
 public:
  explicit StratifiedKFold(int regression_bins = 4)
      : regression_bins_(regression_bins) {}

  Result<FoldSet> Build(const Dataset& data, const std::vector<size_t>& subset,
                        size_t k, Rng* rng) const;

 private:
  int regression_bins_;
};

// Shared helper: per-instance stratum labels. Classification uses the class
// label; regression quantile-bins the target into `bins` strata.
std::vector<int> StratumLabels(const Dataset& data, int bins);

}  // namespace bhpo

#endif  // BHPO_CV_STRATIFIED_KFOLD_H_
