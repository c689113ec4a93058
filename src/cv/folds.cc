#include "cv/folds.h"

#include <string>
#include <unordered_set>

namespace bhpo {

size_t FoldSet::TotalSize() const {
  size_t total = 0;
  for (const auto& f : folds) total += f.size();
  return total;
}

Status FoldSet::Validate(size_t n) const {
  std::unordered_set<size_t> seen;
  seen.reserve(TotalSize());
  for (size_t f = 0; f < folds.size(); ++f) {
    for (size_t idx : folds[f]) {
      if (idx >= n) {
        return Status::OutOfRange("fold index " + std::to_string(idx) +
                                  " >= dataset size " + std::to_string(n));
      }
      if (!seen.insert(idx).second) {
        return Status::InvalidArgument("index " + std::to_string(idx) +
                                       " appears in more than one fold");
      }
    }
  }
  return Status::OK();
}

std::vector<size_t> FoldSet::ComplementOf(size_t f) const {
  BHPO_CHECK_LT(f, folds.size());
  std::vector<size_t> out;
  out.reserve(TotalSize() - folds[f].size());
  for (size_t g = 0; g < folds.size(); ++g) {
    if (g == f) continue;
    out.insert(out.end(), folds[g].begin(), folds[g].end());
  }
  return out;
}

}  // namespace bhpo
