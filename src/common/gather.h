#ifndef BHPO_COMMON_GATHER_H_
#define BHPO_COMMON_GATHER_H_

#include <cstddef>

namespace bhpo {

// Indexed row gather: the one memory-movement primitive behind every
// explicit materialization in the library (DatasetView::GatherFeatures,
// Matrix::SelectRows, the MLP mini-batch gather, GBDT's per-round stage
// gather). Copies `count` rows of `cols` doubles each out of a row-major
// source whose rows are `src_stride` doubles apart:
//
//   dst[i * cols + j] = src[indices[i] * src_stride + j]
//
// into a packed row-major destination. The kernel only moves bytes, it
// never computes, so it is bit-exact by construction. Rung subsets and
// fold complements are sorted index lists, so long stretches satisfy
// indices[i+1] == indices[i] + 1; when src_stride == cols those source
// rows are adjacent in memory and a whole run collapses into one large
// memcpy. Every other row is one memcpy, prefetched a few rows ahead.
//
// `indices` may repeat (bootstrap resampling) and must all be < the number
// of source rows; src and dst must not overlap.
void GatherRows(const double* src, size_t src_stride, size_t cols,
                const size_t* indices, size_t count, double* dst);

namespace internal {

// Reference implementation: the pre-kernel per-row copy loop. Exposed so
// bit-exactness tests and benches can compare against the exact historical
// baseline.
void GatherRowsScalar(const double* src, size_t src_stride, size_t cols,
                      const size_t* indices, size_t count, double* dst);

}  // namespace internal

}  // namespace bhpo

#endif  // BHPO_COMMON_GATHER_H_
