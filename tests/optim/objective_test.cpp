#include "optim/objective.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "reference/least_squares.hpp"

namespace asyncml::optim {
namespace {

TEST(FullObjective, ZeroAtTrueParameterNoiseless) {
  const auto problem = data::synthetic::tiny(50, 6, 0.0, 1);
  LeastSquaresLoss loss;
  EXPECT_NEAR(full_objective(problem.dataset, loss, problem.w_star), 0.0, 1e-18);
}

TEST(FullObjective, PositiveAwayFromOptimum) {
  const auto problem = data::synthetic::tiny(50, 6, 0.0, 1);
  LeastSquaresLoss loss;
  linalg::DenseVector w(6);  // zero vector
  EXPECT_GT(full_objective(problem.dataset, loss, w), 0.1);
}

TEST(FullObjective, HandMadeExample) {
  // Two points: x = [1], labels 1 and 3; w = [2] -> mean of (2-1)^2,(2-3)^2 = 1.
  linalg::DenseMatrix x(2, 1);
  x.at(0, 0) = 1.0;
  x.at(1, 0) = 1.0;
  data::Dataset d("hand", std::move(x), linalg::DenseVector{1.0, 3.0});
  LeastSquaresLoss loss;
  EXPECT_DOUBLE_EQ(full_objective(d, loss, linalg::DenseVector{2.0}), 1.0);
}

TEST(FullGradient, ZeroAtLeastSquaresOptimum) {
  const auto problem = data::synthetic::tiny(60, 5, 0.1, 2);  // noisy
  const auto w_opt = linalg::reference::least_squares_optimum(
      problem.dataset.dense_features(), problem.dataset.labels(), 0.0);
  ASSERT_TRUE(w_opt.is_ok());
  LeastSquaresLoss loss;
  const linalg::DenseVector g = full_gradient(problem.dataset, loss, w_opt.value());
  EXPECT_LT(linalg::nrm2(g.span()), 1e-8);
}

TEST(FullGradient, MatchesFiniteDifferenceOfObjective) {
  const auto problem = data::synthetic::tiny(30, 4, 0.2, 3);
  LogisticLoss loss;  // use a nonlinear loss for a stronger check
  // Binarize labels for logistic.
  linalg::DenseVector labels(problem.dataset.rows());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = problem.dataset.labels()[i] >= 0 ? 1.0 : -1.0;
  }
  data::Dataset d("logit", problem.dataset.dense_features(), labels);

  linalg::DenseVector w(4);
  w[0] = 0.3;
  w[2] = -0.7;
  const linalg::DenseVector g = full_gradient(d, loss, w);
  const double eps = 1e-6;
  for (std::size_t j = 0; j < 4; ++j) {
    linalg::DenseVector wp = w, wm = w;
    wp[j] += eps;
    wm[j] -= eps;
    const double fd = (full_objective(d, loss, wp) - full_objective(d, loss, wm)) /
                      (2 * eps);
    EXPECT_NEAR(g[j], fd, 1e-5);
  }
}

}  // namespace
}  // namespace asyncml::optim
