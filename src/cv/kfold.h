#ifndef BHPO_CV_KFOLD_H_
#define BHPO_CV_KFOLD_H_

#include "common/rng.h"
#include "cv/folds.h"
#include "data/dataset.h"

namespace bhpo {

// Plain random k-fold: shuffle the subset and cut it into k near-equal
// slices (the paper's "random KFold" baseline).
class RandomKFold {
 public:
  Result<FoldSet> Build(const Dataset& data, const std::vector<size_t>& subset,
                        size_t k, Rng* rng) const;
};

}  // namespace bhpo

#endif  // BHPO_CV_KFOLD_H_
