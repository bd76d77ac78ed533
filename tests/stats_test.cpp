// Unit tests for the stats substrate: matrix solvers, descriptive
// statistics, error metrics, OLS, Levenberg-Marquardt, splitting, and
// the SV-B repetition criterion.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "kernels/kernels.hpp"
#include "stats/convergence.hpp"
#include "stats/descriptive.hpp"
#include "stats/diagnostics.hpp"
#include "stats/integrate.hpp"
#include "stats/linreg.hpp"
#include "stats/lm.hpp"
#include "stats/matrix.hpp"
#include "stats/metrics.hpp"
#include "stats/split.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavm3::stats {
namespace {

/// A row-major matrix from nested initialiser rows of equal width.
Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.begin()->size());
  std::size_t r = 0;
  for (const auto& row : rows) {
    std::size_t c = 0;
    for (const double v : row) m.at(r, c++) = v;
    ++r;
  }
  return m;
}

TEST(Matrix, BasicOps) {
  Matrix a(2, 3);
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  for (const double v : a.data()) EXPECT_EQ(v, 0.0);
  a.at(1, 0) = 3.0;
  a.at(0, 2) = 5.0;
  // Row-major storage: element (r, c) sits at r * cols + c.
  EXPECT_DOUBLE_EQ(a.data()[1 * 3 + 0], 3.0);
  EXPECT_DOUBLE_EQ(a.data()[0 * 3 + 2], 5.0);
  const Matrix& ca = a;
  EXPECT_DOUBLE_EQ(ca.at(1, 0), 3.0);
}

TEST(Matrix, GramMatchesExplicitProduct) {
  const Matrix a = from_rows({{1, 2, 0}, {0, 1, 4}, {2, 2, 2}, {1, 0, 1}});
  const Matrix g = a.gram();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      double expect = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) expect += a.at(r, i) * a.at(r, j);
      EXPECT_NEAR(g.at(i, j), expect, 1e-12);
    }
  }
  const std::vector<double> v = {1, -1, 2, 0.5};
  const std::vector<double> atv = a.transpose_times(v);
  for (std::size_t c = 0; c < 3; ++c) {
    double expect = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) expect += a.at(r, c) * v[r];
    EXPECT_NEAR(atv[c], expect, 1e-12);
  }
}

TEST(Matrix, CholeskySolvesSpdSystem) {
  const Matrix a = from_rows({{4, 2}, {2, 3}});
  const auto x = cholesky_solve(a, {2, 1});
  EXPECT_NEAR(4 * x[0] + 2 * x[1], 2.0, 1e-12);
  EXPECT_NEAR(2 * x[0] + 3 * x[1], 1.0, 1e-12);
}

TEST(Matrix, CholeskyRejectsIndefinite) {
  const Matrix a = from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_THROW(cholesky_solve(a, {1, 1}), util::ContractError);
}

TEST(Matrix, QrLeastSquaresRecoversExactSolution) {
  // Overdetermined but consistent system.
  const Matrix a = from_rows({{1, 0}, {0, 1}, {1, 1}});
  const std::vector<double> b = {2, 3, 5};  // x = (2,3) exactly
  const auto x = qr_least_squares(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(Matrix, QrRejectsRankDeficient) {
  const Matrix a = from_rows({{1, 2}, {2, 4}, {3, 6}});
  EXPECT_THROW(qr_least_squares(a, {1, 2, 3}), util::ContractError);
}

TEST(Descriptive, SummaryAndQuantiles) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.variance, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
}

TEST(Descriptive, OnlineMatchesBatch) {
  util::RngStream rng(3);
  std::vector<double> v;
  OnlineStats online;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.gaussian(5.0, 3.0);
    v.push_back(x);
    online.add(x);
  }
  const Summary batch = summarize(v);
  EXPECT_NEAR(online.mean(), batch.mean, 1e-10);
  EXPECT_NEAR(online.variance(), batch.variance, 1e-8);
}

TEST(Metrics, KnownValues) {
  const std::vector<double> obs = {10, 10, 10, 10};
  const std::vector<double> pred = {11, 9, 12, 8};
  EXPECT_DOUBLE_EQ(mae(pred, obs), 1.5);
  EXPECT_NEAR(rmse(pred, obs), std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(nrmse(pred, obs), std::sqrt(2.5) / 10.0, 1e-12);
}

TEST(Metrics, PerfectPredictionIsZeroErrorUnitR2) {
  const std::vector<double> obs = {1, 2, 3};
  const ErrorMetrics m = compute_error_metrics(obs, obs);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
  EXPECT_DOUBLE_EQ(m.rmse, 0.0);
  EXPECT_DOUBLE_EQ(m.r2, 1.0);
}

TEST(Metrics, RangeNormalization) {
  const std::vector<double> obs = {0, 10};
  const std::vector<double> pred = {1, 9};
  EXPECT_NEAR(nrmse(pred, obs, Normalization::kRange), 0.1, 1e-12);
}

TEST(Metrics, SizeMismatchThrows) {
  EXPECT_THROW(mae({1.0}, {1.0, 2.0}), util::ContractError);
}

TEST(Metrics, TryNrmseMatchesThrowingFormOnHealthyWindows) {
  const std::vector<double> obs = {10, 10, 10, 10};
  const std::vector<double> pred = {11, 9, 12, 8};
  const std::optional<double> v = try_nrmse(pred, obs);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, nrmse(pred, obs));
}

TEST(Metrics, TryNrmseIsNulloptOnDegenerateWindows) {
  // A feedback window of one repeated scenario: the observed column is
  // constant at zero, so no normaliser exists. The throwing form keeps
  // its offline contract; the online form must not kill the process.
  const std::vector<double> obs = {0, 0, 0};
  const std::vector<double> pred = {1, 2, 3};
  EXPECT_FALSE(try_nrmse(pred, obs).has_value());
  EXPECT_FALSE(try_nrmse(pred, obs, Normalization::kRange).has_value());
  EXPECT_THROW(nrmse(pred, obs), util::ContractError);
  // Constant non-zero observations: mean-normalisation still works,
  // range-normalisation has no spread to normalise by.
  const std::vector<double> flat = {5, 5, 5};
  EXPECT_TRUE(try_nrmse(pred, flat).has_value());
  EXPECT_FALSE(try_nrmse(pred, flat, Normalization::kRange).has_value());
  // Empty windows are "no evidence", not an abort.
  EXPECT_FALSE(try_nrmse(std::vector<double>{}, std::vector<double>{}).has_value());
  // A size mismatch is still a programming error in either form.
  EXPECT_THROW(try_nrmse({1.0}, {1.0, 2.0}), util::ContractError);
}

TEST(Integrate, TrapezoidKnownArea) {
  const std::vector<double> t = {0.0, 1.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(trapezoid(t, y), 3.0 + 8.0);
}

TEST(Integrate, TrapezoidRejectsNonMonotonicTime) {
  // Out-of-order timestamps flip the sign of a panel: before the fix
  // this returned 3 - 8 + 13 = silently wrong area instead of failing.
  const std::vector<double> t = {0.0, 2.0, 1.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 4.0, 4.0};
  EXPECT_THROW(trapezoid(t, y), util::ContractError);
  // Repeated timestamps (a stalled meter) are legal: zero-width panel.
  const std::vector<double> t2 = {0.0, 1.0, 1.0, 2.0};
  const std::vector<double> y2 = {2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(trapezoid(t2, y2), 4.0);
}

TEST(Integrate, InterpAtClampsAndInterpolates) {
  const std::vector<double> t = {0.0, 1.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 8.0};
  EXPECT_DOUBLE_EQ(kernels::interp_at(t, y, -1.0), 2.0);   // clamp left
  EXPECT_DOUBLE_EQ(kernels::interp_at(t, y, 5.0), 8.0);    // clamp right
  EXPECT_DOUBLE_EQ(kernels::interp_at(t, y, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(kernels::interp_at(t, y, 2.0), 6.0);
  EXPECT_DOUBLE_EQ(kernels::interp_at(t, y, 1.0), 4.0);    // exact sample
  // Repeated timestamps: the later sample wins, no division by zero.
  const std::vector<double> t2 = {0.0, 1.0, 1.0, 2.0};
  const std::vector<double> y2 = {0.0, 2.0, 6.0, 6.0};
  EXPECT_DOUBLE_EQ(kernels::interp_at(t2, y2, 1.0), 6.0);
}

TEST(Integrate, WindowTrapezoidSplitsExactly) {
  // Splitting [t0, t1] at any interior point conserves the integral —
  // the property PowerTrace::energy_between and the planner's history
  // windows both rely on.
  const std::vector<double> t = {0.0, 1.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 4.0, 0.0};
  const double whole = window_trapezoid(t, y, 0.0, 4.0);
  EXPECT_DOUBLE_EQ(whole, trapezoid(t, y));
  for (const double cut : {0.5, 1.0, 2.7, 3.9}) {
    EXPECT_DOUBLE_EQ(window_trapezoid(t, y, 0.0, cut) + window_trapezoid(t, y, cut, 4.0),
                     whole);
  }
  // Sub-sample window inside one panel: plain trapezoid of the lerped
  // endpoints.
  EXPECT_DOUBLE_EQ(window_trapezoid(t, y, 1.5, 2.5), 4.0);
  // Windows beyond the sampled extent clamp; fully disjoint gives 0.
  EXPECT_DOUBLE_EQ(window_trapezoid(t, y, -5.0, 10.0), whole);
  EXPECT_DOUBLE_EQ(window_trapezoid(t, y, 10.0, 20.0), 0.0);
}

TEST(Integrate, IsNonDecreasingScreensIngestAxes) {
  EXPECT_TRUE(is_non_decreasing(std::vector<double>{0.0, 1.0, 1.0, 2.5}));
  EXPECT_TRUE(is_non_decreasing(std::vector<double>{}));
  EXPECT_FALSE(is_non_decreasing(std::vector<double>{0.0, 2.0, 1.0}));
  EXPECT_FALSE(is_non_decreasing(
      std::vector<double>{0.0, std::numeric_limits<double>::quiet_NaN(), 1.0}));
}

/// fit_linear over per-sample feature rows: transposes them into the
/// regressor columns the fitter takes.
LinearFit fit_rows(const std::vector<std::vector<double>>& rows, const std::vector<double>& y,
                   const LinregOptions& options = {}) {
  std::vector<std::vector<double>> columns(rows.front().size());
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) columns[c].push_back(row[c]);
  }
  std::vector<std::span<const double>> views(columns.begin(), columns.end());
  return fit_linear(views, y, options);
}

TEST(Linreg, RecoversPlantedCoefficients) {
  util::RngStream rng(17);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(0, 32);
    const double b = rng.uniform(0, 4);
    x.push_back({a, b});
    y.push_back(2.5 * a + 7.0 * b + 430.0 + rng.gaussian(0, 0.5));
  }
  const LinearFit fit = fit_rows(x, y);
  ASSERT_EQ(fit.coefficients.size(), 3u);
  EXPECT_NEAR(fit.coefficients[0], 2.5, 0.05);
  EXPECT_NEAR(fit.coefficients[1], 7.0, 0.3);
  EXPECT_NEAR(fit.coefficients[2], 430.0, 1.5);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(Linreg, NonnegativeClampsNegativeCoefficient) {
  // y depends negatively on feature 1; nonnegative fit must zero it.
  util::RngStream rng(23);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(0, 10);
    const double b = rng.uniform(0, 10);
    x.push_back({a, b});
    y.push_back(3.0 * a - 2.0 * b + 5.0 + rng.gaussian(0, 0.1));
  }
  LinregOptions opts;
  opts.nonnegative = true;
  const LinearFit fit = fit_rows(x, y, opts);
  EXPECT_NEAR(fit.coefficients[0], 3.0, 0.2);
  EXPECT_DOUBLE_EQ(fit.coefficients[1], 0.0);
}

TEST(Linreg, RidgeHandlesCollinearColumns) {
  // Second column constant -> collinear with intercept; plain OLS would
  // be singular, ridge resolves it.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back({static_cast<double>(i), 4.0});
    y.push_back(2.0 * i + 10.0);
  }
  LinregOptions opts;
  opts.ridge_lambda = 1e-6;
  const LinearFit fit = fit_rows(x, y, opts);
  ASSERT_EQ(fit.coefficients.size(), 3u);
  const double at_25 =
      fit.coefficients[0] * 25.0 + fit.coefficients[1] * 4.0 + fit.coefficients[2];
  EXPECT_NEAR(at_25, 60.0, 0.1);
}

TEST(Lm, ConvergesToOlsOnLinearProblem) {
  util::RngStream rng(31);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) {
    const double a = rng.uniform(0, 20);
    x.push_back({a});
    y.push_back(1.7 * a + 600.0 + rng.gaussian(0, 1.0));
  }
  const LinearFit ols = fit_rows(x, y);

  const auto model = [](const std::vector<double>& p, const std::vector<double>& f) {
    return p[0] * f[0] + p[1];
  };
  const LmResult lm = levenberg_marquardt(curve_residuals(model, x, y), {0.0, 0.0});
  EXPECT_TRUE(lm.converged);
  EXPECT_NEAR(lm.params[0], ols.coefficients[0], 1e-4);
  EXPECT_NEAR(lm.params[1], ols.coefficients[1], 1e-2);
}

TEST(Lm, FitsNonlinearSaturationCurve) {
  // y = A * (1 - exp(-x / B)), the fresh-dirty-page law.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 1; i <= 60; ++i) {
    const double t = i * 0.5;
    x.push_back({t});
    y.push_back(950.0 * (1.0 - std::exp(-t / 7.0)));
  }
  const auto model = [](const std::vector<double>& p, const std::vector<double>& f) {
    return p[0] * (1.0 - std::exp(-f[0] / std::max(1e-6, p[1])));
  };
  const LmResult lm = levenberg_marquardt(curve_residuals(model, x, y), {500.0, 2.0});
  EXPECT_NEAR(lm.params[0], 950.0, 1.0);
  EXPECT_NEAR(lm.params[1], 7.0, 0.05);
}

TEST(Split, SizesAndDisjointness) {
  const IndexSplit s = train_test_split(100, 0.2, 42);
  EXPECT_EQ(s.train.size(), 20u);
  EXPECT_EQ(s.test.size(), 80u);
  std::vector<bool> seen(100, false);
  for (const auto i : s.train) seen[i] = true;
  for (const auto i : s.test) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  for (const bool b : seen) EXPECT_TRUE(b);
}

TEST(Split, DeterministicInSeed) {
  const IndexSplit a = train_test_split(50, 0.3, 7);
  const IndexSplit b = train_test_split(50, 0.3, 7);
  EXPECT_EQ(a.train, b.train);
  const IndexSplit c = train_test_split(50, 0.3, 8);
  EXPECT_NE(a.train, c.train);
}

TEST(Split, AlwaysLeavesBothSidesNonEmpty) {
  const IndexSplit s = train_test_split(2, 0.01, 1);
  EXPECT_EQ(s.train.size(), 1u);
  EXPECT_EQ(s.test.size(), 1u);
}

TEST(Repetition, RequiresMinRuns) {
  RunRepetition rep;
  for (int i = 0; i < 9; ++i) {
    rep.add_run(100.0 + (i % 2));
    EXPECT_FALSE(rep.converged());
  }
  rep.add_run(100.0);  // 10th run, variance already stable
  EXPECT_TRUE(rep.converged());
}

TEST(Repetition, KeepsGoingWhileVarianceMoves) {
  RepetitionOptions opts;
  opts.min_runs = 10;
  opts.max_runs = 40;
  RunRepetition rep(opts);
  // Alternating wildly growing values keep the variance changing.
  for (int i = 0; i < 10; ++i) rep.add_run(i % 2 == 0 ? 100.0 : 100.0 + 10.0 * i);
  EXPECT_FALSE(rep.converged());
}

TEST(Repetition, MaxRunsCap) {
  RepetitionOptions opts;
  opts.min_runs = 2;
  opts.max_runs = 5;
  RunRepetition rep(opts);
  for (int i = 0; i < 5; ++i) rep.add_run(std::pow(3.0, i));
  EXPECT_TRUE(rep.converged());
  EXPECT_EQ(rep.runs(), 5u);
}

TEST(Diagnostics, WhiteNoiseResidualsLookWhite) {
  util::RngStream rng(41);
  std::vector<double> pred;
  std::vector<double> obs;
  for (int i = 0; i < 2000; ++i) {
    const double truth = 500.0 + i * 0.01;
    pred.push_back(truth);
    obs.push_back(truth + rng.gaussian(0.0, 3.0));
  }
  const ResidualDiagnostics d = residual_diagnostics(pred, obs);
  EXPECT_NEAR(d.mean, 0.0, 0.3);
  EXPECT_NEAR(d.stddev, 3.0, 0.3);
  EXPECT_NEAR(d.durbin_watson, 2.0, 0.15);
  EXPECT_NEAR(d.lag1_autocorr, 0.0, 0.07);
  EXPECT_NEAR(d.skew, 0.0, 0.15);
}

TEST(Diagnostics, Ar1ResidualsDetected) {
  util::RngStream rng(43);
  std::vector<double> pred(2000, 0.0);
  std::vector<double> obs(2000);
  double state = 0.0;
  for (int i = 0; i < 2000; ++i) {
    state = 0.8 * state + rng.gaussian(0.0, 1.0);
    obs[static_cast<std::size_t>(i)] = state;
  }
  const ResidualDiagnostics d = residual_diagnostics(pred, obs);
  EXPECT_LT(d.durbin_watson, 0.8);     // strong positive autocorrelation
  EXPECT_GT(d.lag1_autocorr, 0.6);
}

TEST(Diagnostics, SkewnessSignsCorrect) {
  std::vector<double> right_skewed;
  std::vector<double> symmetric;
  util::RngStream rng(47);
  for (int i = 0; i < 3000; ++i) {
    const double g = rng.gaussian(0.0, 1.0);
    right_skewed.push_back(std::exp(g));  // lognormal: skew > 0
    symmetric.push_back(g);
  }
  EXPECT_GT(skewness(right_skewed), 1.0);
  EXPECT_NEAR(skewness(symmetric), 0.0, 0.15);
}

TEST(Diagnostics, DurbinWatsonEdgeCases) {
  // Alternating residuals -> negative autocorrelation -> DW near 4.
  std::vector<double> alternating;
  for (int i = 0; i < 200; ++i) alternating.push_back(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(durbin_watson(alternating), 3.5);
  EXPECT_LT(autocorrelation(alternating, 1), -0.9);
  EXPECT_THROW(durbin_watson({1.0}), util::ContractError);
  EXPECT_THROW(autocorrelation({1.0, 2.0}, 2), util::ContractError);
}

// Property sweep: OLS recovers planted coefficients across noise levels.
class LinregNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(LinregNoiseSweep, RecoversSlopeWithinNoiseBound) {
  const double noise = GetParam();
  util::RngStream rng(static_cast<std::uint64_t>(noise * 1000) + 1);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) {
    const double a = rng.uniform(0, 32);
    x.push_back({a});
    y.push_back(11.0 * a + 430.0 + rng.gaussian(0, noise));
  }
  const LinearFit fit = fit_rows(x, y);
  EXPECT_NEAR(fit.coefficients[0], 11.0, 0.02 + noise * 0.05);
  EXPECT_NEAR(fit.coefficients[1], 430.0, 0.5 + noise);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, LinregNoiseSweep,
                         ::testing::Values(0.0, 0.5, 2.0, 8.0, 20.0));

}  // namespace
}  // namespace wavm3::stats
