#ifndef BHPO_CV_GEN_FOLDS_H_
#define BHPO_CV_GEN_FOLDS_H_

#include "cv/folds.h"
#include "cv/grouping.h"

namespace bhpo {

// Options for the paper's fold construction (Section III-B, Operation 2).
// The paper keeps k_gen + k_spe == 5 and uses k_gen = 3, k_spe = 2 with a
// ~80/20 biased draw for the special folds.
struct GenFoldsOptions {
  size_t k_gen = 3;
  size_t k_spe = 2;
  // Fraction of a special fold drawn from its home group; the remainder is
  // stratified over the other groups.
  double special_bias = 0.8;

  // InvalidArgument unless k_gen + k_spe >= 2 (without wrapping round) and
  // special_bias is in (0, 1]. GenFolds calls it.
  Status Validate() const;
};

// Builds k_gen general + k_spe special folds over `subset` (absolute row
// ids). The folds are a partition of the subset so standard k-fold CV
// semantics hold: folds[0 .. k_gen) are general (group-stratified slices),
// folds[k_gen .. k_gen+k_spe) are special (fold k_gen + j is biased toward
// group j % v). Requires |subset| >= k_gen + k_spe >= 2.
Result<FoldSet> GenFolds(const Grouping& grouping,
                         const std::vector<size_t>& subset,
                         const GenFoldsOptions& options, Rng* rng);

}  // namespace bhpo

#endif  // BHPO_CV_GEN_FOLDS_H_
