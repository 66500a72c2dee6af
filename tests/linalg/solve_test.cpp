#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "reference/least_squares.hpp"
#include "support/rng.hpp"

namespace asyncml::linalg {
namespace {

TEST(Cholesky, FactorizesIdentity) {
  DenseMatrix a(3, 3);
  for (int i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  ASSERT_TRUE(reference::cholesky_factorize(a).is_ok());
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(a.at(i, i), 1.0);
}

TEST(Cholesky, KnownFactor) {
  // A = [[4, 2], [2, 5]] => L = [[2, 0], [1, 2]]
  DenseMatrix a(2, 2);
  a.at(0, 0) = 4;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 5;
  ASSERT_TRUE(reference::cholesky_factorize(a).is_ok());
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 2.0);
}

TEST(Cholesky, RejectsNonSquare) {
  DenseMatrix a(2, 3);
  EXPECT_FALSE(reference::cholesky_factorize(a).is_ok());
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(1, 1) = -1;
  EXPECT_FALSE(reference::cholesky_factorize(a).is_ok());
}

TEST(CholeskySolve, RoundTrip) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 4;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 5;
  DenseMatrix l = a;
  ASSERT_TRUE(reference::cholesky_factorize(l).is_ok());
  const DenseVector b{10.0, 13.0};
  const DenseVector x = reference::cholesky_solve(l, b);
  // Verify A x == b.
  EXPECT_NEAR(4 * x[0] + 2 * x[1], 10.0, 1e-12);
  EXPECT_NEAR(2 * x[0] + 5 * x[1], 13.0, 1e-12);
}

TEST(LeastSquares, RecoversExactSolutionDense) {
  // Overdetermined consistent system: b = A w*.
  support::RngStream rng(3);
  const std::size_t n = 50, d = 6;
  DenseMatrix a(n, d);
  DenseVector w_star(d);
  for (std::size_t j = 0; j < d; ++j) w_star[j] = rng.next_gaussian();
  DenseVector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) a.at(i, j) = rng.next_gaussian();
    b[i] = dot(a.row(i), w_star.span());
  }
  const auto solved = reference::least_squares_optimum(a, b);
  ASSERT_TRUE(solved.is_ok());
  EXPECT_LT(max_abs_diff(solved.value().span(), w_star.span()), 1e-6);
}

TEST(LeastSquares, RecoversExactSolutionSparse) {
  support::RngStream rng(5);
  const std::size_t n = 60, d = 8;
  CsrMatrix a = CsrMatrix::for_appending(d);
  DenseVector w_star(d);
  for (std::size_t j = 0; j < d; ++j) w_star[j] = rng.next_gaussian();
  DenseVector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    SparseVector row;
    double margin = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      if (rng.bernoulli(0.5)) {
        const double v = rng.next_gaussian();
        row.push_back(static_cast<std::uint32_t>(j), v);
        margin += v * w_star[j];
      }
    }
    a.append_row(row);
    b[i] = margin;
  }
  const auto solved = reference::least_squares_optimum(a, b, 1e-12);
  ASSERT_TRUE(solved.is_ok());
  EXPECT_LT(max_abs_diff(solved.value().span(), w_star.span()), 1e-5);
}

TEST(LeastSquares, SizeMismatchRejected) {
  DenseMatrix a(3, 2);
  DenseVector b(4);
  EXPECT_FALSE(reference::least_squares_optimum(a, b).is_ok());
}

}  // namespace
}  // namespace asyncml::linalg
