#include "common/col_block_matrix.h"

#include <algorithm>

#include "common/matrix.h"

namespace bhpo {
namespace {

// Construction tiles: a panel of source rows is revisited once per column
// block, so panel * block working sets stay inside L1/L2 while destination
// writes stream down kColBlock columns in lockstep.
constexpr size_t kRowPanel = 128;
constexpr size_t kColBlock = 8;

}  // namespace

ColBlockMatrix ColBlockMatrix::FromRowMajor(const double* src,
                                            size_t src_stride, size_t cols,
                                            const size_t* indices,
                                            size_t count) {
  ColBlockMatrix out;
  out.rows_ = count;
  out.cols_ = cols;
  out.data_.resize(count * cols);
  if (count == 0 || cols == 0) return out;

  double* dst = out.data_.data();
  for (size_t r0 = 0; r0 < count; r0 += kRowPanel) {
    size_t r1 = std::min(count, r0 + kRowPanel);
    for (size_t f0 = 0; f0 < cols; f0 += kColBlock) {
      size_t f1 = std::min(cols, f0 + kColBlock);
      for (size_t r = r0; r < r1; ++r) {
        const double* s = src + (indices ? indices[r] : r) * src_stride;
        for (size_t f = f0; f < f1; ++f) {
          dst[f * count + r] = s[f];
        }
      }
    }
  }
  return out;
}

ColBlockMatrix ColBlockMatrix::FromMatrix(const Matrix& m) {
  return FromRowMajor(m.data().data(), m.cols(), m.cols(), nullptr, m.rows());
}

ColBlockMatrix ColBlockMatrix::FromMatrix(const Matrix& m,
                                          const std::vector<size_t>& indices) {
  for (size_t idx : indices) BHPO_CHECK_LT(idx, m.rows());
  return FromRowMajor(m.data().data(), m.cols(), m.cols(), indices.data(),
                      indices.size());
}

}  // namespace bhpo
