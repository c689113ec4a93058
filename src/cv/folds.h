#ifndef BHPO_CV_FOLDS_H_
#define BHPO_CV_FOLDS_H_

#include <vector>

#include "common/status.h"

namespace bhpo {

// A k-fold partition of an evaluation subset. Indices are absolute row ids
// of the dataset the folds were built over; the folds are pairwise disjoint
// and their union is exactly the subset handed to the builder.
struct FoldSet {
  std::vector<std::vector<size_t>> folds;

  size_t num_folds() const { return folds.size(); }
  size_t TotalSize() const;

  // Checks disjointness and that ids are < n.
  Status Validate(size_t n) const;

  // All indices not in fold f (the training side of CV round f).
  std::vector<size_t> ComplementOf(size_t f) const;
};

}  // namespace bhpo

#endif  // BHPO_CV_FOLDS_H_
