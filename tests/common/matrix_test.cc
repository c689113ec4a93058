#include "common/matrix.h"

#include <gtest/gtest.h>

namespace bhpo {
namespace {

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixDeathTest, FromRowsRejectsRagged) {
  EXPECT_DEATH(Matrix::FromRows({{1, 2}, {3}}), "ragged");
}

TEST(MatrixTest, MatMulKnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c(2, 2);
  MatMulInto(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatMulIdentityIsNoop) {
  Rng rng(3);
  Matrix a = Matrix::RandomGaussian(4, 4, &rng);
  Matrix c(4, 4);
  Matrix identity = Matrix::FromRows(
      {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}});
  MatMulInto(a, identity, c);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t col = 0; col < 4; ++col) {
      EXPECT_DOUBLE_EQ(c(r, col), a(r, col));
    }
  }
}

TEST(MatrixTest, TransposeMatMulMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a = Matrix::RandomGaussian(5, 3, &rng);
  Matrix b = Matrix::RandomGaussian(5, 4, &rng);
  Matrix direct(3, 4);
  TransposeMatMulInto(a, b, direct);
  Matrix expected(3, 4);
  MatMulInto(a.Transpose(), b, expected);
  ASSERT_TRUE(direct.SameShape(expected));
  for (size_t r = 0; r < direct.rows(); ++r) {
    for (size_t c = 0; c < direct.cols(); ++c) {
      EXPECT_NEAR(direct(r, c), expected(r, c), 1e-12);
    }
  }
}

TEST(MatrixTest, MatMulTransposeMatchesExplicitTranspose) {
  Rng rng(7);
  Matrix a = Matrix::RandomGaussian(4, 6, &rng);
  Matrix b = Matrix::RandomGaussian(3, 6, &rng);
  Matrix bt(6, 3);
  Matrix direct(4, 3);
  MatMulTransposeInto(a, b, bt, direct);
  Matrix expected(4, 3);
  MatMulInto(a, b.Transpose(), expected);
  ASSERT_TRUE(direct.SameShape(expected));
  for (size_t r = 0; r < direct.rows(); ++r) {
    for (size_t c = 0; c < direct.cols(); ++c) {
      EXPECT_NEAR(direct(r, c), expected(r, c), 1e-12);
    }
  }
}

TEST(MatrixDeathTest, MatMulShapeMismatchAborts) {
  Matrix a(2, 3), b(4, 2), out(2, 2);
  EXPECT_DEATH(MatMulInto(a, b, out), "BHPO_CHECK");
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(1, 1), 44.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 5.5);
}

TEST(MatrixTest, SelectRows) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Matrix s = a.SelectRows({2, 0});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
}

}  // namespace
}  // namespace bhpo
