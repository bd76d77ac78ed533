#include "stats/linreg.hpp"

#include <cmath>

#include "stats/metrics.hpp"
#include "util/error.hpp"

namespace wavm3::stats {

namespace {

/// The design matrix of `columns`, with a constant-1 column appended
/// when `add_intercept`.
Matrix design_matrix(std::span<const std::span<const double>> columns, bool add_intercept) {
  WAVM3_REQUIRE(!columns.empty(), "need at least one regressor column");
  const std::size_t rows = columns.front().size();
  WAVM3_REQUIRE(rows > 0, "need at least one sample");
  Matrix x(rows, columns.size() + (add_intercept ? 1 : 0));
  for (std::size_t c = 0; c < columns.size(); ++c) {
    WAVM3_REQUIRE(columns[c].size() == rows, "ragged regressor columns");
    for (std::size_t r = 0; r < rows; ++r) x.at(r, c) = columns[c][r];
  }
  if (add_intercept) {
    for (std::size_t r = 0; r < rows; ++r) x.at(r, columns.size()) = 1.0;
  }
  return x;
}

/// Solves the (ridge-regularised) normal equations, falling back to QR
/// when the Gram matrix is ill-conditioned.
std::vector<double> solve_ols(const Matrix& x, const std::vector<double>& y, double ridge_lambda,
                              bool has_intercept) {
  Matrix gram = x.gram();
  if (ridge_lambda > 0.0) {
    // Do not regularise the intercept column.
    const std::size_t stop = gram.rows() - (has_intercept ? 1 : 0);
    for (std::size_t i = 0; i < stop; ++i) gram.at(i, i) += ridge_lambda;
  }
  const std::vector<double> xty = x.transpose_times(y);
  try {
    return cholesky_solve(gram, xty);
  } catch (const util::ContractError&) {
    return qr_least_squares(x, y);
  }
}

/// Shared fitting core over an already-assembled design matrix `x`
/// (intercept column last when options.add_intercept). Both the
/// row-wise and the columnar entry points funnel here, so the two
/// produce bit-identical fits on the same data.
LinearFit fit_linear_on_design(const Matrix& x, const std::vector<double>& targets,
                               const LinregOptions& options) {
  WAVM3_REQUIRE(x.rows() == targets.size(), "feature/target size mismatch");
  WAVM3_REQUIRE(x.rows() > 0, "need at least one sample");
  const std::size_t n_cols = x.cols();
  const std::size_t n_features = n_cols - (options.add_intercept ? 1 : 0);
  WAVM3_REQUIRE(x.rows() >= n_cols, "need at least as many samples as coefficients");

  std::vector<bool> active(n_features, true);  // intercept handled separately, always active
  std::vector<double> coeffs;

  for (int pass = 0; pass < static_cast<int>(n_features) + 1; ++pass) {
    // Build a reduced design with only active feature columns.
    std::vector<std::size_t> active_idx;
    for (std::size_t i = 0; i < n_features; ++i)
      if (active[i]) active_idx.push_back(i);

    Matrix xa(x.rows(), active_idx.size() + (options.add_intercept ? 1 : 0));
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < active_idx.size(); ++c) xa.at(r, c) = x.at(r, active_idx[c]);
      if (options.add_intercept) xa.at(r, active_idx.size()) = 1.0;
    }

    const std::vector<double> reduced =
        solve_ols(xa, targets, options.ridge_lambda, options.add_intercept);

    // Scatter back into full coefficient vector.
    coeffs.assign(n_cols, 0.0);
    for (std::size_t c = 0; c < active_idx.size(); ++c) coeffs[active_idx[c]] = reduced[c];
    if (options.add_intercept) coeffs[n_features] = reduced[active_idx.size()];

    if (!options.nonnegative) break;

    // Deactivate the most negative coefficient, if any, and refit.
    double worst = 0.0;
    std::size_t worst_idx = n_features;
    for (std::size_t i = 0; i < n_features; ++i) {
      if (active[i] && coeffs[i] < worst) {
        worst = coeffs[i];
        worst_idx = i;
      }
    }
    if (worst_idx == n_features) break;  // all nonnegative
    active[worst_idx] = false;
    coeffs[worst_idx] = 0.0;
  }

  LinearFit fit;
  fit.coefficients = std::move(coeffs);
  fit.has_intercept = options.add_intercept;
  fit.n_samples = x.rows();

  // Training residual metrics, accumulated in LinearFit::predict's
  // order (intercept first, then regressors left to right).
  std::vector<double> predicted(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double y = options.add_intercept ? fit.coefficients.back() : 0.0;
    for (std::size_t c = 0; c < n_features; ++c) y += fit.coefficients[c] * x.at(r, c);
    predicted[r] = y;
  }
  fit.r2 = r_squared(predicted, targets);
  fit.residual_rmse = rmse(predicted, targets);
  return fit;
}

}  // namespace

LinearFit fit_linear(std::span<const std::span<const double>> columns,
                     std::span<const double> targets, const LinregOptions& options) {
  return fit_linear_on_design(design_matrix(columns, options.add_intercept),
                              std::vector<double>(targets.begin(), targets.end()), options);
}

}  // namespace wavm3::stats
