#include "calib/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "ptsim/rng.hpp"

namespace tsvpt::calib {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a{n, n};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

TEST(Cholesky, FactorReconstructs) {
  Rng rng{1};
  const Matrix a = random_spd(6, rng);
  const Matrix l = cholesky(a);
  const Matrix rebuilt = l * l.transposed();
  EXPECT_LT((rebuilt - a).norm(), 1e-9 * a.norm());
}

TEST(Cholesky, JitterHandlesSemiDefinite) {
  // Rank-deficient: two identical correlation rows.
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  const Matrix l = cholesky(a, 1e-3);
  EXPECT_TRUE(std::isfinite(l(1, 1)));
  EXPECT_GT(l(0, 0), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a{{1.0, 0.0}, {0.0, -2.0}};
  EXPECT_THROW((void)cholesky(a), std::runtime_error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW((void)cholesky(Matrix{2, 3}), std::invalid_argument);
}

TEST(LuSolve, KnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = lu_solve(a, Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolve, PivotingHandlesZeroDiagonal) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = lu_solve(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolve, SingularThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW((void)lu_solve(a, Vector{1.0, 2.0}), std::runtime_error);
}

TEST(LuSolve, RandomRoundTrip) {
  Rng rng{3};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 8));
    Matrix a{n, n};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
      a(i, i) += 3.0;  // diagonally dominant: well-conditioned
    }
    Vector x_true(n);
    for (double& v : x_true) v = rng.gaussian();
    const Vector x = lu_solve(a, a * x_true);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(QrLeastSquares, ExactSquareSystem) {
  const Matrix a{{1.0, 1.0}, {1.0, -1.0}};
  const Vector x = qr_least_squares(a, Vector{3.0, 1.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(QrLeastSquares, OverdeterminedMinimizesResidual) {
  // Fit y = 2x + 1 through noisy-free overdetermined samples.
  Matrix a{4, 2};
  Vector b{1.0, 3.0, 5.0, 7.0};
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = static_cast<double>(i);
  }
  const Vector x = qr_least_squares(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(QrLeastSquares, LeastSquaresBeatsAnyPerturbation) {
  Rng rng{4};
  Matrix a{20, 3};
  Vector b(20);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = rng.gaussian();
    b[i] = rng.gaussian();
  }
  const Vector x = qr_least_squares(a, b);
  auto residual = [&](const Vector& v) {
    double acc = 0.0;
    for (std::size_t i = 0; i < 20; ++i) {
      double r = -b[i];
      for (std::size_t j = 0; j < 3; ++j) r += a(i, j) * v[j];
      acc += r * r;
    }
    return acc;
  };
  const double best = residual(x);
  for (int k = 0; k < 50; ++k) {
    Vector perturbed = x;
    for (double& v : perturbed) v += 0.01 * rng.gaussian();
    EXPECT_GE(residual(perturbed), best - 1e-12);
  }
}

TEST(QrLeastSquares, UnderdeterminedThrows) {
  EXPECT_THROW((void)qr_least_squares(Matrix{2, 3}, Vector{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Inverse, MatchesIdentity) {
  Rng rng{5};
  const Matrix a = random_spd(4, rng);
  const Matrix inv = inverse(a);
  const Matrix prod = a * inv;
  EXPECT_LT((prod - Matrix::identity(4)).norm(), 1e-8);
}

TEST(ConditionEstimate, IdentityIsOne) {
  EXPECT_NEAR(condition_estimate(Matrix::identity(5)), 1.0, 1e-6);
}

TEST(ConditionEstimate, DiagonalRatio) {
  const Matrix a{{100.0, 0.0}, {0.0, 1.0}};
  EXPECT_NEAR(condition_estimate(a), 100.0, 1.0);
}

}  // namespace
}  // namespace tsvpt::calib
