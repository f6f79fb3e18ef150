// Dense linear algebra tests: solves, factorizations, rank, properties.
#include "grid/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace psse::grid {
namespace {

TEST(Vector, BasicOps) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ((a + b)[0], 5.0);
  EXPECT_DOUBLE_EQ((b - a)[2], 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0)[1], 4.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ(a.norm2(), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(a.max_abs(), 3.0);
  EXPECT_THROW((void)a.dot(Vector(2)), LinAlgError);
}

TEST(Matrix, IdentityAndDiagonal) {
  Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  Matrix d = Matrix::diagonal(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
}

TEST(Matrix, MultiplyAndTranspose) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  Matrix at = a.transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
  Matrix aat = a * at;
  EXPECT_DOUBLE_EQ(aat(0, 0), 14.0);
  EXPECT_DOUBLE_EQ(aat(0, 1), 32.0);
  EXPECT_DOUBLE_EQ(aat(1, 1), 77.0);
  Vector v{1.0, 1.0, 1.0};
  Vector av = a * v;
  EXPECT_DOUBLE_EQ(av[0], 6.0);
  EXPECT_DOUBLE_EQ(av[1], 15.0);
}

TEST(Matrix, LuSolveKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  Vector x = a.lu_solve(Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, LuSolveSingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(a.lu_solve(Vector{1.0, 2.0}), LinAlgError);
}

TEST(Matrix, InverseRoundTrip) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = d(rng);
    a(i, i) += 5.0;  // diagonally dominant => nonsingular
  }
  Matrix inv = a.inverse();
  Matrix prod = a * inv;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Matrix, CholeskyMatchesLu) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  Matrix b(6, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) b(i, j) = d(rng);
  }
  Matrix spd = b.transposed() * b;
  for (std::size_t i = 0; i < 4; ++i) spd(i, i) += 1.0;
  Vector rhs{1.0, -2.0, 0.5, 3.0};
  Vector x1 = spd.cholesky_solve(rhs);
  Vector x2 = spd.lu_solve(rhs);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(Matrix, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = -1;
  EXPECT_THROW(a.cholesky_solve(Vector{1.0, 1.0}), LinAlgError);
}

TEST(Matrix, RankDetectsDeficiency) {
  Matrix a(3, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 2;
  a(1, 1) = 4;
  a(1, 2) = 6;  // 2 * row0
  a(2, 0) = 1;
  a(2, 1) = 0;
  a(2, 2) = 1;
  EXPECT_EQ(a.rank(), 2u);
  EXPECT_EQ(Matrix::identity(5).rank(), 5u);
  EXPECT_EQ(Matrix(3, 4).rank(), 0u);
}

// Property: for random A and x, lu_solve(A, A*x) == x.
TEST(Matrix, PropertySolveInvertsMultiply) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> d(-3.0, 3.0);
  for (int iter = 0; iter < 50; ++iter) {
    std::size_t n = 2 + rng() % 6;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = d(rng);
      a(i, i) += 8.0;
    }
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = d(rng);
    Vector got = a.lu_solve(a * x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], x[i], 1e-9);
  }
}

}  // namespace
}  // namespace psse::grid
