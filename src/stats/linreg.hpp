// Ordinary least squares multiple linear regression. This is the fitting
// engine for WAVM3's per-phase linear power models (Eqs. 5-7) and for the
// HUANG / LIU / STRUNK baselines (Eqs. 8-11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/matrix.hpp"

namespace wavm3::stats {

/// Result of an OLS fit.
struct LinearFit {
  std::vector<double> coefficients;  ///< one per regressor; intercept last when add_intercept
  bool has_intercept = false;
  double r2 = 0.0;                   ///< coefficient of determination on the training data
  double residual_rmse = 0.0;        ///< RMSE of training residuals
  std::size_t n_samples = 0;
};

/// Options for fitting.
struct LinregOptions {
  bool add_intercept = true;     ///< append a constant-1 column
  double ridge_lambda = 0.0;     ///< L2 regularisation strength (0 = pure OLS)
  bool nonnegative = false;      ///< clamp-and-refit active-set projection to coeffs >= 0
};

/// Fits min ||X b - y||, where each element of `columns` is one
/// regressor column (equal lengths), the layout FeatureBatch exposes;
/// the design matrix is built straight from the columns. With
/// options.nonnegative, runs a simple active-set scheme: fit OLS, clamp
/// negative coefficients to zero, refit on the remaining columns, and
/// repeat until all free coefficients are nonnegative. The intercept is
/// never clamped.
LinearFit fit_linear(std::span<const std::span<const double>> columns,
                     std::span<const double> targets, const LinregOptions& options = {});

}  // namespace wavm3::stats
