#include "common/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/gather.h"

namespace bhpo {

Matrix Matrix::RandomGaussian(size_t rows, size_t cols, Rng* rng,
                              double stddev) {
  BHPO_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->Gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    BHPO_CHECK_EQ(rows[r].size(), m.cols_) << "ragged row " << r;
    for (size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  for (size_t idx : indices) BHPO_CHECK_LT(idx, rows_);
  Matrix out(indices.size(), cols_);
  GatherRows(data_.data(), cols_, cols_, indices.data(), indices.size(),
             out.data_.data());
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = Row(r);
    for (size_t c = 0; c < cols_; ++c) out(c, r) = src[c];
  }
  return out;
}

void Matrix::Add(const Matrix& other) {
  BHPO_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Scale(double factor) {
  for (double& x : data_) x *= factor;
}

std::string Matrix::ShapeString() const {
  std::ostringstream os;
  os << "(" << rows_ << " x " << cols_ << ")";
  return os.str();
}

namespace {

std::string Shape(ConstMatrixView m) {
  std::ostringstream os;
  os << "(" << m.rows << " x " << m.cols << ")";
  return os.str();
}

// True when every entry is finite. x - x is +0.0 for finite x and NaN for
// Inf or NaN, so OR-ing the differences leaves all bits clear exactly when
// nothing is Inf or NaN.
bool AllFinite(ConstMatrixView m) {
  const double* p = m.data;
  size_t n = m.size();
  size_t i = 0;
#if defined(__SSE2__)
  __m128d any = _mm_setzero_pd();
  for (; i + 2 <= n; i += 2) {
    __m128d x = _mm_loadu_pd(p + i);
    any = _mm_or_pd(any, _mm_sub_pd(x, x));
  }
  if (_mm_movemask_epi8(_mm_cmpeq_epi32(_mm_castpd_si128(any),
                                        _mm_setzero_si128())) != 0xFFFF) {
    return false;
  }
#endif
  for (; i < n; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

// One R x C block of a tiled product:
//
//   o[r * ldo + c] = sum_k a[r * a_row + k * a_k] * b[k * ldb + c]
//
// over k = 0..depth-1 ascending, each sum seeded at +0.0 and rounded once
// per multiply and once per add: the reference loops' order, with the
// accumulators held in registers for C columns at a time. a_row/a_k select
// how A is walked: (lda, 1) for a * b and (1, lda) for a^T * b.
template <int R, int C>
void Tile(const double* a, size_t a_row, size_t a_k, const double* b,
          size_t ldb, size_t depth, double* o, size_t ldo) {
#if defined(__SSE2__)
  if constexpr (C >= 2) {
    constexpr int kVecs = C / 2;
    __m128d acc[R][kVecs];
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm_setzero_pd();
    }
    for (size_t k = 0; k < depth; ++k) {
      const double* bk = b + k * ldb;
      __m128d bv[kVecs];
      for (int v = 0; v < kVecs; ++v) bv[v] = _mm_loadu_pd(bk + 2 * v);
      for (int r = 0; r < R; ++r) {
        __m128d ar = _mm_set1_pd(a[r * a_row + k * a_k]);
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = _mm_add_pd(acc[r][v], _mm_mul_pd(ar, bv[v]));
        }
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < kVecs; ++v) {
        _mm_storeu_pd(o + r * ldo + 2 * v, acc[r][v]);
      }
    }
    return;
  }
#endif
  double acc[R][C] = {};
  for (size_t k = 0; k < depth; ++k) {
    const double* bk = b + k * ldb;
    for (int r = 0; r < R; ++r) {
      double ar = a[r * a_row + k * a_k];
      for (int c = 0; c < C; ++c) acc[r][c] += ar * bk[c];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) o[r * ldo + c] = acc[r][c];
  }
}

template <int R>
void TileRow(const double* a, size_t a_row, size_t a_k, const double* b,
             size_t ldb, size_t depth, size_t cols, double* o, size_t ldo) {
  size_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    Tile<R, 8>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
  }
  if (j + 4 <= cols) {
    Tile<R, 4>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
    j += 4;
  }
  if (j + 2 <= cols) {
    Tile<R, 2>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
    j += 2;
  }
  if (j < cols) Tile<R, 1>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
}

// o (rows x b.cols) = the product whose row i, depth k entry of A is
// a[i * a_row + k * a_k], tiled two output rows at a time.
void TiledProduct(const double* a, size_t a_row, size_t a_k, size_t rows,
                  ConstMatrixView b, MatrixView out) {
  size_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    TileRow<2>(a + i * a_row, a_row, a_k, b.data, b.cols, b.rows, b.cols,
               out.Row(i), out.cols);
  }
  if (i < rows) {
    TileRow<1>(a + i * a_row, a_row, a_k, b.data, b.cols, b.rows, b.cols,
               out.Row(i), out.cols);
  }
}

}  // namespace

void MatMulInto(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  BHPO_CHECK_EQ(a.cols, b.rows) << Shape(a) << " x " << Shape(b);
  BHPO_CHECK(out.rows == a.rows && out.cols == b.cols) << Shape(out);
  if (AllFinite(b)) {
    TiledProduct(a.data, a.cols, 1, a.rows, b, out);
    return;
  }
  // Inf/NaN in b: 0 * Inf is NaN, so zero entries of a must really be
  // skipped. ikj order streams through b and out rows contiguously.
  std::fill(out.data, out.data + out.size(), 0.0);
  for (size_t i = 0; i < a.rows; ++i) {
    const double* ai = a.Row(i);
    double* o = out.Row(i);
    for (size_t k = 0; k < a.cols; ++k) {
      double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b.Row(k);
      for (size_t j = 0; j < b.cols; ++j) o[j] += aik * bk[j];
    }
  }
}

void TransposeMatMulInto(ConstMatrixView a, ConstMatrixView b,
                         MatrixView out) {
  BHPO_CHECK_EQ(a.rows, b.rows) << Shape(a) << "^T x " << Shape(b);
  BHPO_CHECK(out.rows == a.cols && out.cols == b.cols) << Shape(out);
  if (AllFinite(b)) {
    TiledProduct(a.data, 1, a.cols, a.cols, b, out);
    return;
  }
  std::fill(out.data, out.data + out.size(), 0.0);
  for (size_t r = 0; r < a.rows; ++r) {
    const double* ar = a.Row(r);
    const double* br = b.Row(r);
    for (size_t i = 0; i < a.cols; ++i) {
      double ai = ar[i];
      if (ai == 0.0) continue;
      double* o = out.Row(i);
      for (size_t j = 0; j < b.cols; ++j) o[j] += ai * br[j];
    }
  }
}

void MatMulTransposeInto(ConstMatrixView a, ConstMatrixView b, MatrixView bt,
                         MatrixView out) {
  BHPO_CHECK_EQ(a.cols, b.cols) << Shape(a) << " x " << Shape(b) << "^T";
  BHPO_CHECK(bt.rows == b.cols && bt.cols == b.rows) << Shape(bt);
  BHPO_CHECK(out.rows == a.rows && out.cols == b.rows) << Shape(out);
  // The reference dot-product loop skips nothing, so the tile needs no
  // finiteness gate: it runs the same multiplies and adds for any input.
  for (size_t j = 0; j < b.rows; ++j) {
    const double* bj = b.Row(j);
    for (size_t k = 0; k < b.cols; ++k) bt.data[k * bt.cols + j] = bj[k];
  }
  TiledProduct(a.data, a.cols, 1, a.rows, bt, out);
}

}  // namespace bhpo
