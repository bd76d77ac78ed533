// Dense row-major matrix with just the linear algebra the regression
// pipeline needs: the Gram products of the normal equations, Cholesky
// and Householder-QR solves. Sizes here are tiny (a handful of
// regressors), so clarity wins over blocking/vectorisation tricks.
#pragma once

#include <cstddef>
#include <vector>

namespace wavm3::stats {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Raw storage access (row-major), for bulk fills.
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// this^T * this — the Gram matrix used by normal equations.
  Matrix gram() const;

  /// this^T * v for a column vector v (v.size() == rows()).
  std::vector<double> transpose_times(const std::vector<double>& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b for symmetric positive-definite A via Cholesky.
/// Throws util::ContractError when A is not SPD (within tolerance).
std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b);

/// Least-squares solve of min ||A x - b||_2 via Householder QR with
/// column-pivot-free factorisation. Requires rows >= cols and full
/// column rank; throws util::ContractError on rank deficiency.
std::vector<double> qr_least_squares(const Matrix& a, const std::vector<double>& b);

}  // namespace wavm3::stats
