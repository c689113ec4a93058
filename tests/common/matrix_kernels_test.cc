// Bit-identity of the register-tiled `...Into` kernels against the loops
// they replaced. The reference loops below are frozen copies of the
// original Matrix::MatMul / TransposeMatMul / MatMulTranspose bodies (zero
// skip included), so this test keeps pinning the historical results even as
// the kernels change. The public kernels run the tile width the CPU
// dispatches to; MatrixKernelsWidthTest runs each width explicitly through
// the internal:: entry points and checks the dispatched kernel against it.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"

namespace bhpo {
namespace internal {

// Names the width in gtest's parameter output.
void PrintTo(TileWidth width, std::ostream* os) { *os << TileWidthName(width); }

}  // namespace internal
namespace {

Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.Row(i);
    double* o = out.Row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b.Row(k);
      for (size_t j = 0; j < b.cols(); ++j) o[j] += aik * bk[j];
    }
  }
  return out;
}

Matrix ReferenceTransposeMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.Row(r);
    const double* br = b.Row(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      double ai = ar[i];
      if (ai == 0.0) continue;
      double* o = out.Row(i);
      for (size_t j = 0; j < b.cols(); ++j) o[j] += ai * br[j];
    }
  }
  return out;
}

Matrix ReferenceMatMulTranspose(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.Row(i);
    double* o = out.Row(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* bj = b.Row(j);
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += ai[k] * bj[k];
      o[j] = acc;
    }
  }
  return out;
}

// Operand flavours. kDense: Gaussian entries. kReluA: A has the exact
// +0.0 entries a ReLU layer produces. kSignedZeros: A and B mix +0.0 and
// -0.0 with negatives, so products of either sign of zero occur. kNonFiniteB:
// B holds Inf, -Inf and NaN next to a sparse A (the zero-skip fallback).
// kNonFiniteA: A holds Inf and NaN while B is finite (the tiled path).
enum class Flavour { kDense, kReluA, kSignedZeros, kNonFiniteB, kNonFiniteA };

const char* FlavourName(Flavour f) {
  switch (f) {
    case Flavour::kDense:
      return "dense";
    case Flavour::kReluA:
      return "relu_a";
    case Flavour::kSignedZeros:
      return "signed_zeros";
    case Flavour::kNonFiniteB:
      return "nonfinite_b";
    case Flavour::kNonFiniteA:
      return "nonfinite_a";
  }
  return "?";
}

Matrix MakeOperand(size_t rows, size_t cols, Rng* rng, bool is_a,
                   Flavour flavour) {
  Matrix m = Matrix::RandomGaussian(rows, cols, rng);
  for (double& x : m.data()) {
    double u = rng->Uniform(0.0, 1.0);
    switch (flavour) {
      case Flavour::kDense:
        break;
      case Flavour::kReluA:
        if (is_a) x = std::max(0.0, x);
        break;
      case Flavour::kSignedZeros:
        if (u < 0.2) x = 0.0;
        else if (u < 0.4) x = -0.0;
        else if (u < 0.5) x = -std::fabs(x);
        break;
      case Flavour::kNonFiniteB:
        if (is_a) {
          if (u < 0.4) x = 0.0;
          else if (u < 0.5) x = -0.0;
        } else {
          if (u < 0.05) x = std::numeric_limits<double>::infinity();
          else if (u < 0.1) x = -std::numeric_limits<double>::infinity();
          else if (u < 0.15) x = std::numeric_limits<double>::quiet_NaN();
        }
        break;
      case Flavour::kNonFiniteA:
        if (is_a) {
          if (u < 0.05) x = std::numeric_limits<double>::infinity();
          else if (u < 0.1) x = std::numeric_limits<double>::quiet_NaN();
          else if (u < 0.4) x = 0.0;
        } else if (u < 0.2) {
          x = 0.0;
        }
        break;
    }
  }
  return m;
}

// Every entry must have the reference's exact bits, signed zeros and
// infinities included. The one exception is which NaN comes out when two
// NaNs meet in an add: IEEE 754 leaves that payload unspecified, and the
// compiled reference loop picks one by how the compiler ordered the
// operands. A NaN anywhere makes the fit's loss NaN (or is flattened to 0 by
// ReLU), so its sign and payload never reach a score.
::testing::AssertionResult BitIdentical(const Matrix& expected,
                                        const Matrix& actual) {
  if (!expected.SameShape(actual)) {
    return ::testing::AssertionFailure()
           << "shape " << actual.ShapeString() << " vs "
           << expected.ShapeString();
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::isnan(expected.data()[i]) && std::isnan(actual.data()[i])) {
      continue;
    }
    if (std::memcmp(&expected.data()[i], &actual.data()[i], sizeof(double)) !=
        0) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << actual.data()[i] << " vs reference "
             << expected.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Output rows x cols cover every tile remainder of both widths: 2-row pairs
// plus a single row; 8/4/2/1-column blocks of the 2-lane tile and
// 16/8/4/2/1-column blocks of the 4-lane tile, on each side of every block
// edge. 50 and 123 are the MLP's hidden and a9a input widths.
const size_t kRows[] = {1, 2, 3, 8, 441};
const size_t kCols[] = {1,  2,  3,  7,  8,  9,  15, 16,
                        17, 31, 32, 33, 50, 123};
const size_t kDepths[] = {1, 6, 33};
const Flavour kFlavours[] = {Flavour::kDense, Flavour::kReluA,
                             Flavour::kSignedZeros, Flavour::kNonFiniteB,
                             Flavour::kNonFiniteA};

TEST(MatrixKernelsTest, MatMulIntoMatchesReferenceBitForBit) {
  Rng rng(101);
  for (Flavour f : kFlavours) {
    for (size_t rows : kRows) {
      for (size_t cols : kCols) {
        for (size_t depth : kDepths) {
          Matrix a = MakeOperand(rows, depth, &rng, true, f);
          Matrix b = MakeOperand(depth, cols, &rng, false, f);
          // Garbage in `out` must be overwritten, not accumulated into.
          Matrix out(rows, cols, 7.0);
          MatMulInto(a, b, out);
          EXPECT_TRUE(BitIdentical(ReferenceMatMul(a, b), out))
              << FlavourName(f) << " " << rows << "x" << depth << " * "
              << depth << "x" << cols;
        }
      }
    }
  }
}

TEST(MatrixKernelsTest, TransposeMatMulIntoMatchesReferenceBitForBit) {
  Rng rng(202);
  for (Flavour f : kFlavours) {
    for (size_t rows : kRows) {
      for (size_t cols : kCols) {
        for (size_t depth : kDepths) {
          Matrix a = MakeOperand(depth, rows, &rng, true, f);
          Matrix b = MakeOperand(depth, cols, &rng, false, f);
          Matrix out(rows, cols, 7.0);
          TransposeMatMulInto(a, b, out);
          EXPECT_TRUE(BitIdentical(ReferenceTransposeMatMul(a, b), out))
              << FlavourName(f) << " (" << depth << "x" << rows << ")^T * "
              << depth << "x" << cols;
        }
      }
    }
  }
}

TEST(MatrixKernelsTest, MatMulTransposeIntoMatchesReferenceBitForBit) {
  Rng rng(303);
  for (Flavour f : kFlavours) {
    for (size_t rows : kRows) {
      for (size_t cols : kCols) {
        for (size_t depth : kDepths) {
          Matrix a = MakeOperand(rows, depth, &rng, true, f);
          Matrix b = MakeOperand(cols, depth, &rng, false, f);
          Matrix bt(depth, cols);
          Matrix out(rows, cols, 7.0);
          MatMulTransposeInto(a, b, bt, out);
          EXPECT_TRUE(BitIdentical(ReferenceMatMulTranspose(a, b), out))
              << FlavourName(f) << " " << rows << "x" << depth << " * ("
              << cols << "x" << depth << ")^T";
          EXPECT_TRUE(BitIdentical(b.Transpose(), bt));
        }
      }
    }
  }
}

using internal::TileWidth;

// One tile width, run explicitly. Each case is also run through the
// dispatched public kernel, which must give the same bits as every width.
class MatrixKernelsWidthTest : public ::testing::TestWithParam<TileWidth> {
 protected:
  void SetUp() override {
    if (!internal::TileWidthSupported(GetParam())) {
      GTEST_SKIP() << "this CPU has no " << internal::TileWidthName(GetParam())
                   << " tile";
    }
  }
};

TEST_P(MatrixKernelsWidthTest, MatMulIntoMatchesReferenceBitForBit) {
  Rng rng(101);
  for (Flavour f : kFlavours) {
    for (size_t rows : kRows) {
      for (size_t cols : kCols) {
        for (size_t depth : kDepths) {
          Matrix a = MakeOperand(rows, depth, &rng, true, f);
          Matrix b = MakeOperand(depth, cols, &rng, false, f);
          Matrix out(rows, cols, 7.0);
          internal::MatMulInto(GetParam(), a, b, out);
          Matrix dispatched(rows, cols, 7.0);
          MatMulInto(a, b, dispatched);
          EXPECT_TRUE(BitIdentical(ReferenceMatMul(a, b), out))
              << FlavourName(f) << " " << rows << "x" << depth << " * "
              << depth << "x" << cols;
          EXPECT_TRUE(BitIdentical(out, dispatched));
        }
      }
    }
  }
}

TEST_P(MatrixKernelsWidthTest, TransposeMatMulIntoMatchesReferenceBitForBit) {
  Rng rng(202);
  for (Flavour f : kFlavours) {
    for (size_t rows : kRows) {
      for (size_t cols : kCols) {
        for (size_t depth : kDepths) {
          Matrix a = MakeOperand(depth, rows, &rng, true, f);
          Matrix b = MakeOperand(depth, cols, &rng, false, f);
          Matrix out(rows, cols, 7.0);
          internal::TransposeMatMulInto(GetParam(), a, b, out);
          Matrix dispatched(rows, cols, 7.0);
          TransposeMatMulInto(a, b, dispatched);
          EXPECT_TRUE(BitIdentical(ReferenceTransposeMatMul(a, b), out))
              << FlavourName(f) << " (" << depth << "x" << rows << ")^T * "
              << depth << "x" << cols;
          EXPECT_TRUE(BitIdentical(out, dispatched));
        }
      }
    }
  }
}

TEST_P(MatrixKernelsWidthTest, MatMulTransposeIntoMatchesReferenceBitForBit) {
  Rng rng(303);
  for (Flavour f : kFlavours) {
    for (size_t rows : kRows) {
      for (size_t cols : kCols) {
        for (size_t depth : kDepths) {
          Matrix a = MakeOperand(rows, depth, &rng, true, f);
          Matrix b = MakeOperand(cols, depth, &rng, false, f);
          Matrix bt(depth, cols);
          Matrix out(rows, cols, 7.0);
          internal::MatMulTransposeInto(GetParam(), a, b, bt, out);
          Matrix dispatched_bt(depth, cols);
          Matrix dispatched(rows, cols, 7.0);
          MatMulTransposeInto(a, b, dispatched_bt, dispatched);
          EXPECT_TRUE(BitIdentical(ReferenceMatMulTranspose(a, b), out))
              << FlavourName(f) << " " << rows << "x" << depth << " * ("
              << cols << "x" << depth << ")^T";
          EXPECT_TRUE(BitIdentical(b.Transpose(), bt));
          EXPECT_TRUE(BitIdentical(out, dispatched));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TileWidths, MatrixKernelsWidthTest,
    ::testing::Values(TileWidth::kSse2, TileWidth::kAvx2),
    [](const ::testing::TestParamInfo<TileWidth>& info) {
      return std::string(internal::TileWidthName(info.param));
    });

TEST(MatrixKernelsTest, DispatchesToTheWidestSupportedWidth) {
  EXPECT_TRUE(internal::TileWidthSupported(TileWidth::kSse2));
  EXPECT_EQ(internal::DispatchedTileWidth(),
            internal::TileWidthSupported(TileWidth::kAvx2) ? TileWidth::kAvx2
                                                           : TileWidth::kSse2);
}

TEST(MatrixKernelsTest, EmptyDepthYieldsPositiveZeros) {
  Matrix a(3, 0);
  Matrix b(0, 5);
  Matrix out(3, 5, -1.0);
  MatMulInto(a, b, out);
  EXPECT_TRUE(BitIdentical(Matrix(3, 5), out));
}

TEST(MatrixKernelsDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 3), b(4, 2), out(2, 2);
  EXPECT_DEATH(MatMulInto(a, b, out), "BHPO_CHECK");
  Matrix wrong_out(3, 3);
  EXPECT_DEATH(MatMulInto(a, Matrix(3, 2), wrong_out), "BHPO_CHECK");
}

}  // namespace
}  // namespace bhpo
