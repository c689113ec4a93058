#ifndef BHPO_COMMON_MATRIX_H_
#define BHPO_COMMON_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace bhpo {

// Dense row-major matrix of doubles. This is the numeric workhorse for the
// MLP substrate and the clustering substrate; products are the `...Into`
// kernels after the class, which write into caller-owned storage.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Entries drawn iid from N(0, stddev^2).
  static Matrix RandomGaussian(size_t rows, size_t cols, Rng* rng,
                               double stddev = 1.0);
  // Builds a matrix from nested initializer data; all rows must have equal
  // length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    BHPO_CHECK_LT(r, rows_);
    BHPO_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    BHPO_CHECK_LT(r, rows_);
    BHPO_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  // Raw row access for hot loops (bounds-checked once).
  double* Row(size_t r) {
    BHPO_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const double* Row(size_t r) const {
    BHPO_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  // Selects a subset of rows (gather).
  Matrix SelectRows(const std::vector<size_t>& indices) const;

  Matrix Transpose() const;

  // Elementwise in-place ops; shapes must match.
  void Add(const Matrix& other);
  void Scale(double factor);

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

// Non-owning row-major views over caller-owned storage: the operands of the
// allocation-free kernels below. A view must not outlive its storage.
struct ConstMatrixView {
  const double* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;

  ConstMatrixView() = default;
  ConstMatrixView(const double* d, size_t r, size_t c)
      : data(d), rows(r), cols(c) {}
  // Implicit, so every Matrix is usable where a read-only view is expected.
  ConstMatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : data(m.data().data()), rows(m.rows()), cols(m.cols()) {}

  size_t size() const { return rows * cols; }
  const double* Row(size_t r) const { return data + r * cols; }
};

struct MatrixView {
  double* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;

  MatrixView() = default;
  MatrixView(double* d, size_t r, size_t c) : data(d), rows(r), cols(c) {}
  MatrixView(Matrix& m)  // NOLINT(google-explicit-constructor)
      : data(m.data().data()), rows(m.rows()), cols(m.cols()) {}

  size_t size() const { return rows * cols; }
  double* Row(size_t r) const { return data + r * cols; }
  operator ConstMatrixView() const {  // NOLINT(google-explicit-constructor)
    return ConstMatrixView(data, rows, cols);
  }
};

// Allocation-free products into caller-owned `out`, which is fully
// overwritten and must not alias an operand. Each output entry is summed in
// the reference order: k ascending, seeded at +0.0, one rounding per
// multiply and per add (the library builds with -ffp-contract=off, so no
// FMA). Results are therefore bit-identical to the textbook loops, which
// MatMulInto and TransposeMatMulInto still run, skipping zero entries of
// `a`, whenever `b` holds an Inf or NaN. DESIGN.md "The MLP fit engine"
// gives the argument.
//
// out (a.rows x b.cols) = a * b.
void MatMulInto(ConstMatrixView a, ConstMatrixView b, MatrixView out);
// out (a.cols x b.cols) = a^T * b, without materializing the transpose.
void TransposeMatMulInto(ConstMatrixView a, ConstMatrixView b,
                         MatrixView out);
// out (a.rows x b.rows) = a * b^T. `bt` is scratch of shape
// (b.cols x b.rows) that receives the transpose of b.
void MatMulTransposeInto(ConstMatrixView a, ConstMatrixView b, MatrixView bt,
                         MatrixView out);

namespace internal {

// The register tile comes in three widths with identical results: 2 lanes
// (SSE2, baseline x86-64), 4 lanes (AVX2 without FMA) and 8 lanes
// (AVX-512F without FMA, masked to cover a whole layer width per pass). The
// kernels above run the widest one the CPU supports, chosen once per
// process. Exposed so bit-identity tests can run each width and benches can
// report which ran.
enum class TileWidth { kSse2, kAvx2, kAvx512 };

bool TileWidthSupported(TileWidth width);
TileWidth DispatchedTileWidth();
// "sse2", "avx2" or "avx512".
const char* TileWidthName(TileWidth width);

// The kernels above at an explicit width, which must be supported.
void MatMulInto(TileWidth width, ConstMatrixView a, ConstMatrixView b,
                MatrixView out);
void TransposeMatMulInto(TileWidth width, ConstMatrixView a,
                         ConstMatrixView b, MatrixView out);
void MatMulTransposeInto(TileWidth width, ConstMatrixView a,
                         ConstMatrixView b, MatrixView bt, MatrixView out);

}  // namespace internal

}  // namespace bhpo

#endif  // BHPO_COMMON_MATRIX_H_
