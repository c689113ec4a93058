#include "common/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/gather.h"

// The 4-lane tile is x86-64 only; elsewhere the 2-lane body is the one
// width, and the compiler maps its vectors onto whatever the target has.
#if defined(__x86_64__)
#define BHPO_TILE_AVX2 1
#else
#define BHPO_TILE_AVX2 0
#endif

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

// The tile's register types: GCC vector extensions, so one template body
// serves every width. Arithmetic on them is lane-wise IEEE double
// arithmetic, a scalar operand is broadcast to every lane, and the lanes
// never mix, so each output column gets the same operations at any width.
// Plain `double` is the one-lane case. Loads and stores go through memcpy,
// which compiles to unaligned vector moves.
typedef double Lanes2 __attribute__((vector_size(16)));
typedef double Lanes4 __attribute__((vector_size(32)));

template <typename V>
constexpr int kLanes = sizeof(V) / sizeof(double);

// Everything below is always_inline: a width's kernels are compiled inside
// its entry points, so the 4-lane body inherits their target("avx2") and
// becomes 256-bit code, while the 2-lane body stays baseline SSE2.

// True when every entry is finite. x - x is +0.0 for finite x and NaN for
// Inf or NaN, so a lane that ever compares unequal to itself saw one.
template <typename V>
[[gnu::always_inline]] inline bool AllFiniteLanes(ConstMatrixView m) {
  constexpr int kW = kLanes<V>;
  const double* p = m.data;
  size_t n = m.size();
  size_t i = 0;
  decltype(V{} != V{}) bad = {};
  for (; i + kW <= n; i += kW) {
    V x;
    std::memcpy(&x, p + i, sizeof(V));
    V d = x - x;
    bad |= d != d;
  }
  for (int l = 0; l < kW; ++l) {
    if (bad[l] != 0) return false;
  }
  for (; i < n; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

// One R x C block of a tiled product, in vectors of type V:
//
//   o[r * ldo + c] = sum_k a[r * a_row + k * a_k] * b[k * ldb + c]
//
// over k = 0..depth-1 ascending, each sum seeded at +0.0 and rounded once
// per multiply and once per add: the reference loops' order, with the
// accumulators held in registers for C columns at a time. a_row/a_k select
// how A is walked: (lda, 1) for a * b and (1, lda) for a^T * b. The unroll
// pragmas matter: without them GCC keeps acc[] on the stack.
template <typename V, int R, int C>
[[gnu::always_inline]] inline void Tile(const double* a, size_t a_row,
                                        size_t a_k, const double* b,
                                        size_t ldb, size_t depth, double* o,
                                        size_t ldo) {
  constexpr int kW = kLanes<V>;
  constexpr int kVecs = C / kW;
  static_assert(kVecs * kW == C, "a tile is a whole number of vectors");
  V acc[R * kVecs] = {};
  for (size_t k = 0; k < depth; ++k) {
    const double* bk = b + k * ldb;
    V bv[kVecs];
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&bv[v], bk + kW * v, sizeof(V));
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      double ar = a[r * a_row + k * a_k];
#pragma GCC unroll 16
      for (int v = 0; v < kVecs; ++v) {
        acc[r * kVecs + v] = acc[r * kVecs + v] + ar * bv[v];
      }
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(o + r * ldo + kW * v, &acc[r * kVecs + v], sizeof(V));
    }
  }
}

// R output rows, all columns: 4-vector tiles (8 accumulators at R = 2),
// then at most one 2-vector and one 1-vector tile, then narrower tails
// down to a single column.
template <typename V, int R>
[[gnu::always_inline]] inline void TileRow(const double* a, size_t a_row,
                                           size_t a_k, const double* b,
                                           size_t ldb, size_t depth,
                                           size_t cols, double* o,
                                           size_t ldo) {
  constexpr int kW = kLanes<V>;
  size_t j = 0;
  for (; j + 4 * kW <= cols; j += 4 * kW) {
    Tile<V, R, 4 * kW>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
  }
  if (j + 2 * kW <= cols) {
    Tile<V, R, 2 * kW>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
    j += 2 * kW;
  }
  if (j + kW <= cols) {
    Tile<V, R, kW>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
    j += kW;
  }
  if constexpr (kW > 2) {
    if (j + 2 <= cols) {
      Tile<Lanes2, R, 2>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
      j += 2;
    }
  }
  if (j < cols) {
    Tile<double, R, 1>(a, a_row, a_k, b + j, ldb, depth, o + j, ldo);
  }
}

// o (rows x b.cols) = the product whose row i, depth k entry of A is
// a[i * a_row + k * a_k], tiled two output rows at a time.
template <typename V>
[[gnu::always_inline]] inline void TiledProduct(const double* a, size_t a_row,
                                                size_t a_k, size_t rows,
                                                ConstMatrixView b,
                                                MatrixView out) {
  size_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    TileRow<V, 2>(a + i * a_row, a_row, a_k, b.data, b.cols, b.rows, b.cols,
                  out.Row(i), out.cols);
  }
  if (i < rows) {
    TileRow<V, 1>(a + i * a_row, a_row, a_k, b.data, b.cols, b.rows, b.cols,
                  out.Row(i), out.cols);
  }
}

// The two entry points of one width.
struct TileKernels {
  bool (*all_finite)(ConstMatrixView m);
  void (*product)(const double* a, size_t a_row, size_t a_k, size_t rows,
                  ConstMatrixView b, MatrixView out);
};

bool AllFiniteSse2(ConstMatrixView m) { return AllFiniteLanes<Lanes2>(m); }
void TiledProductSse2(const double* a, size_t a_row, size_t a_k, size_t rows,
                      ConstMatrixView b, MatrixView out) {
  TiledProduct<Lanes2>(a, a_row, a_k, rows, b, out);
}

#if BHPO_TILE_AVX2
// AVX2 and not FMA: a fused multiply-add rounds once where the reference
// rounds twice.
[[gnu::target("avx2")]] bool AllFiniteAvx2(ConstMatrixView m) {
  return AllFiniteLanes<Lanes4>(m);
}
[[gnu::target("avx2")]] void TiledProductAvx2(const double* a, size_t a_row,
                                              size_t a_k, size_t rows,
                                              ConstMatrixView b,
                                              MatrixView out) {
  TiledProduct<Lanes4>(a, a_row, a_k, rows, b, out);
}
#endif

const TileKernels& KernelsFor(internal::TileWidth width) {
  static constexpr TileKernels kSse2 = {AllFiniteSse2, TiledProductSse2};
#if BHPO_TILE_AVX2
  static constexpr TileKernels kAvx2 = {AllFiniteAvx2, TiledProductAvx2};
  if (width == internal::TileWidth::kAvx2) {
    BHPO_CHECK(internal::TileWidthSupported(width))
        << "the avx2 tile needs a CPU with AVX2";
    return kAvx2;
  }
#endif
  BHPO_CHECK(width == internal::TileWidth::kSse2)
      << "no avx2 tile in this build";
  return kSse2;
}

}  // namespace

namespace internal {

bool TileWidthSupported(TileWidth width) {
  if (width == TileWidth::kSse2) return true;
#if BHPO_TILE_AVX2
  // __builtin_cpu_supports also requires the OS to save the YMM state.
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

TileWidth DispatchedTileWidth() {
  return TileWidthSupported(TileWidth::kAvx2) ? TileWidth::kAvx2
                                              : TileWidth::kSse2;
}

const char* TileWidthName(TileWidth width) {
  return width == TileWidth::kAvx2 ? "avx2" : "sse2";
}

void MatMulInto(TileWidth width, ConstMatrixView a, ConstMatrixView b,
                MatrixView out) {
  BHPO_CHECK_EQ(a.cols, b.rows) << Shape(a) << " x " << Shape(b);
  BHPO_CHECK(out.rows == a.rows && out.cols == b.cols) << Shape(out);
  const TileKernels& kernels = KernelsFor(width);
  if (kernels.all_finite(b)) {
    kernels.product(a.data, a.cols, 1, a.rows, b, out);
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

void TransposeMatMulInto(TileWidth width, ConstMatrixView a,
                         ConstMatrixView b, MatrixView out) {
  BHPO_CHECK_EQ(a.rows, b.rows) << Shape(a) << "^T x " << Shape(b);
  BHPO_CHECK(out.rows == a.cols && out.cols == b.cols) << Shape(out);
  const TileKernels& kernels = KernelsFor(width);
  if (kernels.all_finite(b)) {
    kernels.product(a.data, 1, a.cols, a.cols, b, out);
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

void MatMulTransposeInto(TileWidth width, ConstMatrixView a,
                         ConstMatrixView b, MatrixView bt, MatrixView out) {
  BHPO_CHECK_EQ(a.cols, b.cols) << Shape(a) << " x " << Shape(b) << "^T";
  BHPO_CHECK(bt.rows == b.cols && bt.cols == b.rows) << Shape(bt);
  BHPO_CHECK(out.rows == a.rows && out.cols == b.rows) << Shape(out);
  // The reference dot-product loop skips nothing, so the tile needs no
  // finiteness gate: it runs the same multiplies and adds for any input.
  for (size_t j = 0; j < b.rows; ++j) {
    const double* bj = b.Row(j);
    for (size_t k = 0; k < b.cols; ++k) bt.data[k * bt.cols + j] = bj[k];
  }
  KernelsFor(width).product(a.data, a.cols, 1, a.rows, bt, out);
}

}  // namespace internal

void MatMulInto(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  internal::MatMulInto(internal::DispatchedTileWidth(), a, b, out);
}

void TransposeMatMulInto(ConstMatrixView a, ConstMatrixView b,
                         MatrixView out) {
  internal::TransposeMatMulInto(internal::DispatchedTileWidth(), a, b, out);
}

void MatMulTransposeInto(ConstMatrixView a, ConstMatrixView b, MatrixView bt,
                         MatrixView out) {
  internal::MatMulTransposeInto(internal::DispatchedTileWidth(), a, b, bt,
                                out);
}

}  // namespace bhpo
