#ifndef BHPO_COMMON_COL_BLOCK_MATRIX_H_
#define BHPO_COMMON_COL_BLOCK_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace bhpo {

class Matrix;

// Column-blocked (feature-major) mirror of a set of rows from a row-major
// matrix: column f of the source lives at Column(f) as one contiguous
// array of rows() doubles. Tree training scans this instead of striding
// rows — a split search touches one feature at a time across all rows,
// which in row-major order costs a cache line per element; here it streams
// a single column.
//
// "Blocked" refers to construction: the gather-transpose that builds the
// structure walks the source in row panels x column blocks so the panel
// stays cache resident while kColBlock destination columns advance
// together.
//
// The copy is pure byte movement — values are the same doubles as the
// source, so any consumer reading Column(f)[i] is bit-identical to reading
// source(indices[i], f).
class ColBlockMatrix {
 public:
  ColBlockMatrix() = default;

  // Gather-transpose rows `indices[0..count)` of a row-major source
  // (`src_stride` doubles between consecutive rows). indices == nullptr
  // selects rows 0..count-1 (identity). Indices may repeat.
  static ColBlockMatrix FromRowMajor(const double* src, size_t src_stride,
                                     size_t cols, const size_t* indices,
                                     size_t count);
  // Convenience: all rows of `m`, or the subset `indices`.
  static ColBlockMatrix FromMatrix(const Matrix& m);
  static ColBlockMatrix FromMatrix(const Matrix& m,
                                   const std::vector<size_t>& indices);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // Contiguous column f: entries 0..rows()-1.
  const double* Column(size_t f) const {
    BHPO_CHECK_LT(f, cols_);
    return data_.data() + f * rows_;
  }

  double at(size_t r, size_t f) const {
    BHPO_CHECK_LT(r, rows_);
    return Column(f)[r];
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace bhpo

#endif  // BHPO_COMMON_COL_BLOCK_MATRIX_H_
