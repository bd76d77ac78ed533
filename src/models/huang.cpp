#include "models/huang.hpp"

#include <algorithm>

#include "models/design_apply.hpp"
#include "util/error.hpp"

namespace wavm3::models {

namespace {

FeatureBatch::Column regressor_column(HuangModel::CpuRegressor r) {
  return r == HuangModel::CpuRegressor::kHostCpu ? FeatureBatch::Column::kCpuHost
                                                 : FeatureBatch::Column::kCpuVm;
}

/// Fills `dst` (full batch length) with the sum of the three per-phase
/// kTotal integrals of `col` — the unfiltered trapezoid integral over
/// the whole migration. Copy initiation, then axpy transfer and
/// activation on top: the historical per-phase add order, element for
/// element (a * x with a == 1.0 is exact).
void fill_total_integral(const FeatureBatch& batch, FeatureBatch::Column col,
                         std::span<double> dst) {
  using migration::MigrationPhase;
  const std::span<const double> init = batch.integral(col, MigrationPhase::kInitiation);
  std::copy(init.begin(), init.end(), dst.begin());
  kernels::axpy(1.0, batch.integral(col, MigrationPhase::kTransfer), dst);
  kernels::axpy(1.0, batch.integral(col, MigrationPhase::kActivation), dst);
}

}  // namespace

void HuangModel::fit(const Dataset& train) {
  fits_.clear();
  FeatureBatch::BuildOptions build;
  build.with_samples = true;
  const FeatureBatch batch(train, build);
  std::vector<double> regressor;
  std::vector<double> power;
  for (const HostRole role : {HostRole::kSource, HostRole::kTarget}) {
    const std::span<const std::size_t> samples = batch.sample_slice(role);
    if (samples.size() < 4) continue;  // role absent from this training set
    regressor.resize(samples.size());
    power.resize(samples.size());
    FeatureBatch::gather(batch.sample_column(regressor_column(regressor_)), samples, regressor);
    FeatureBatch::gather(batch.sample_column(FeatureBatch::Column::kPower), samples, power);
    stats::LinregOptions options;
    // The VM-CPU reading can be all-zero on a role (suspended VM /
    // target side); ridge keeps the fit defined.
    options.ridge_lambda = 1e-9;
    const std::span<const double> columns[] = {regressor};
    const stats::LinearFit fit = stats::fit_linear(columns, power, options);
    fits_[role] = Coefficients{fit.coefficients[0], fit.coefficients[1]};
  }
  WAVM3_REQUIRE(!fits_.empty(), "HUANG: training set contained no usable observations");
}

HuangModel::Coefficients HuangModel::coefficients(HostRole role) const {
  const auto it = fits_.find(role);
  WAVM3_REQUIRE(it != fits_.end(), "HUANG: not fitted for this role");
  return it->second;
}

void HuangModel::predict_batch(const FeatureBatch& batch, std::span<double> out) const {
  WAVM3_REQUIRE(out.size() == batch.size(), "predict_batch: output size mismatch");
  if (batch.empty()) return;
  // E = alpha * integral(CPU dt) + C * duration, one design apply over
  // the two whole-migration derived columns (built once per batch in
  // the per-thread arena — allocation-free in steady state).
  auto& scratch = predict_scratch();
  scratch.release_all();
  scratch.require(2 * batch.size());
  const std::span<double> cpu = scratch.take(batch.size());
  const std::span<double> duration = scratch.take(batch.size());
  fill_total_integral(batch, regressor_column(regressor_), cpu);
  fill_total_integral(batch, FeatureBatch::Column::kOne, duration);
  for (const HostRole role : {HostRole::kSource, HostRole::kTarget}) {
    const std::span<const std::size_t> rows = batch.slice(role);
    if (rows.empty()) continue;
    const Coefficients c = coefficients(role);
    const std::span<const double> columns[] = {cpu, duration};
    const double coeffs[] = {c.alpha, c.c};
    apply_design_to_rows(columns, coeffs, 0.0, rows, out);
  }
  scratch.release_all();
}

void HuangModel::apply_idle_bias_correction(double idle_delta_watts) {
  for (auto& [role, c] : fits_) c.c -= idle_delta_watts;
}

}  // namespace wavm3::models
