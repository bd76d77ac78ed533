#include "stats/matrix.hpp"

#include <cmath>

#include "kernels/kernels.hpp"
#include "util/error.hpp"

namespace wavm3::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

double& Matrix::at(std::size_t r, std::size_t c) {
  WAVM3_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  WAVM3_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

Matrix Matrix::gram() const {
  // Row-major upper-triangle accumulation as one kernels::axpy per
  // (sample row, pivot column): the axpy's element-wise y[j] += a*x[j]
  // performs exactly the adds of the historical inner j loop in the
  // same sequence, so normal-equation fits are bit-identical to the
  // pre-kernels implementation on every backend.
  Matrix out(cols_, cols_);
  const std::span<const double> data(data_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto row = data.subspan(r * cols_, cols_);
    for (std::size_t i = 0; i < cols_; ++i) {
      const double a = row[i];
      if (a == 0.0) continue;
      kernels::axpy(a, row.subspan(i),
                    std::span<double>(out.data()).subspan(i * cols_ + i, cols_ - i));
    }
  }
  for (std::size_t i = 0; i < cols_; ++i)
    for (std::size_t j = 0; j < i; ++j) out.at(i, j) = out.at(j, i);
  return out;
}

std::vector<double> Matrix::transpose_times(const std::vector<double>& v) const {
  WAVM3_REQUIRE(v.size() == rows_, "vector length must equal row count");
  // One axpy per row: out[c] += v[r] * at(r, c), the historical
  // element order.
  std::vector<double> out(cols_, 0.0);
  const std::span<const double> data(data_);
  for (std::size_t r = 0; r < rows_; ++r) {
    kernels::axpy(v[r], data.subspan(r * cols_, cols_), out);
  }
  return out;
}

std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b) {
  const std::size_t n = a.rows();
  WAVM3_REQUIRE(a.cols() == n, "cholesky_solve needs a square matrix");
  WAVM3_REQUIRE(b.size() == n, "rhs length mismatch");

  // Lower-triangular factor L with A = L L^T.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l.at(i, k) * l.at(j, k);
      if (i == j) {
        WAVM3_REQUIRE(sum > 1e-12, "matrix is not positive definite");
        l.at(i, i) = std::sqrt(sum);
      } else {
        l.at(i, j) = sum / l.at(j, j);
      }
    }
  }

  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l.at(i, k) * y[k];
    y[i] = sum / l.at(i, i);
  }

  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = 0; ii < n; ++ii) {
    const std::size_t i = n - 1 - ii;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l.at(k, i) * x[k];
    x[i] = sum / l.at(i, i);
  }
  return x;
}

std::vector<double> qr_least_squares(const Matrix& a, const std::vector<double>& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  WAVM3_REQUIRE(m >= n && n > 0, "need rows >= cols >= 1");
  WAVM3_REQUIRE(b.size() == m, "rhs length mismatch");

  Matrix r = a;              // reduced in place to R
  std::vector<double> qtb = b;  // accumulates Q^T b

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += r.at(i, k) * r.at(i, k);
    norm = std::sqrt(norm);
    WAVM3_REQUIRE(norm > 1e-12, "rank-deficient design matrix in QR");

    const double alpha = (r.at(k, k) >= 0.0) ? -norm : norm;
    std::vector<double> v(m - k, 0.0);
    v[0] = r.at(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r.at(i, k);
    double vnorm2 = 0.0;
    for (const double vi : v) vnorm2 += vi * vi;
    if (vnorm2 > 1e-24) {
      // Apply H = I - 2 v v^T / (v^T v) to the trailing block and to qtb.
      for (std::size_t c = k; c < n; ++c) {
        double dot = 0.0;
        for (std::size_t i = k; i < m; ++i) dot += v[i - k] * r.at(i, c);
        const double scale = 2.0 * dot / vnorm2;
        for (std::size_t i = k; i < m; ++i) r.at(i, c) -= scale * v[i - k];
      }
      double dot = 0.0;
      for (std::size_t i = k; i < m; ++i) dot += v[i - k] * qtb[i];
      const double scale = 2.0 * dot / vnorm2;
      for (std::size_t i = k; i < m; ++i) qtb[i] -= scale * v[i - k];
    }
    r.at(k, k) = alpha;
    for (std::size_t i = k + 1; i < m; ++i) r.at(i, k) = 0.0;
  }

  // Back substitution on the top n x n block of R.
  std::vector<double> x(n);
  for (std::size_t ii = 0; ii < n; ++ii) {
    const std::size_t i = n - 1 - ii;
    double sum = qtb[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= r.at(i, k) * x[k];
    WAVM3_REQUIRE(std::abs(r.at(i, i)) > 1e-12, "rank-deficient design matrix in QR");
    x[i] = sum / r.at(i, i);
  }
  return x;
}

}  // namespace wavm3::stats
