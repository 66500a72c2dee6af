#pragma once

// Direct least-squares solves for small systems: the *exact* optimum that
// convergence error is measured against at test scale (d <= a few hundred),
// by forming the normal equations and running Cholesky. The solvers never
// need it; nothing under src/ includes it.

#include <cmath>
#include <cstddef>
#include <utility>

#include "linalg/dense_matrix.hpp"
#include "linalg/dense_vector.hpp"
#include "linalg/sparse.hpp"
#include "support/status.hpp"

namespace asyncml::linalg::reference {

using support::Status;
using support::StatusCode;
using support::StatusOr;

/// In-place Cholesky factorization A = L·Lᵀ of a symmetric positive-definite
/// matrix (lower triangle used). Fails with kFailedPrecondition if A is not
/// positive definite.
[[nodiscard]] inline Status cholesky_factorize(DenseMatrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) {
    return Status(StatusCode::kInvalidArgument, "cholesky: matrix not square");
  }
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a.at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a.at(j, k) * a.at(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status(StatusCode::kFailedPrecondition,
                    "cholesky: matrix not positive definite");
    }
    const double ljj = std::sqrt(diag);
    a.at(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a.at(i, k) * a.at(j, k);
      a.at(i, j) = v / ljj;
    }
  }
  return Status::ok();
}

/// Solves L·Lᵀ x = b given the factor produced by cholesky_factorize.
[[nodiscard]] inline DenseVector cholesky_solve(const DenseMatrix& l,
                                              const DenseVector& b) {
  const std::size_t n = l.rows();
  DenseVector y(n);
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l.at(i, k) * y[k];
    y[i] = v / l.at(i, i);
  }
  // Backward substitution Lᵀ x = y.
  DenseVector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l.at(k, ii) * x[k];
    x[ii] = v / l.at(ii, ii);
  }
  return x;
}

/// Shared implementation once the normal matrix AᵀA and vector Aᵀb are formed.
[[nodiscard]] inline StatusOr<DenseVector> solve_normal_equations(DenseMatrix gram,
                                                                  DenseVector rhs,
                                                                  double ridge) {
  for (std::size_t i = 0; i < gram.rows(); ++i) gram.at(i, i) += ridge;
  if (Status s = cholesky_factorize(gram); !s.is_ok()) return s;
  return cholesky_solve(gram, rhs);
}

/// Least-squares optimum argmin_w ||A w - b||² via normal equations with a
/// small ridge term for numerical safety. Intended for d small (test scale).
[[nodiscard]] inline StatusOr<DenseVector> least_squares_optimum(const DenseMatrix& a,
                                                                 const DenseVector& b,
                                                                 double ridge = 1e-10) {
  if (a.rows() != b.size()) {
    return Status(StatusCode::kInvalidArgument, "least_squares: size mismatch");
  }
  const std::size_t d = a.cols();
  DenseMatrix gram(d, d);
  DenseVector rhs(d);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    for (std::size_t i = 0; i < d; ++i) {
      const double xi = row[i];
      if (xi == 0.0) continue;
      for (std::size_t j = i; j < d; ++j) gram.at(i, j) += xi * row[j];
      rhs[i] += xi * b[r];
    }
  }
  // Mirror the upper triangle.
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < i; ++j) gram.at(i, j) = gram.at(j, i);
  return solve_normal_equations(std::move(gram), std::move(rhs), ridge);
}

/// Sparse-matrix overload (densifies the normal matrix; d must be small).
[[nodiscard]] inline StatusOr<DenseVector> least_squares_optimum(const CsrMatrix& a,
                                                                 const DenseVector& b,
                                                                 double ridge = 1e-10) {
  if (a.rows() != b.size()) {
    return Status(StatusCode::kInvalidArgument, "least_squares: size mismatch");
  }
  const std::size_t d = a.cols();
  DenseMatrix gram(d, d);
  DenseVector rhs(d);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const SparseRowView row = a.row(r);
    for (std::size_t ki = 0; ki < row.nnz(); ++ki) {
      const std::size_t i = row.indices[ki];
      const double xi = row.values[ki];
      for (std::size_t kj = ki; kj < row.nnz(); ++kj) {
        gram.at(i, row.indices[kj]) += xi * row.values[kj];
      }
      rhs[i] += xi * b[r];
    }
  }
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < i; ++j) gram.at(i, j) = gram.at(j, i);
  return solve_normal_equations(std::move(gram), std::move(rhs), ridge);
}

}  // namespace asyncml::linalg::reference
