#include "core/wavm3_model.hpp"

#include <array>
#include <cmath>

#include "models/design_apply.hpp"
#include "stats/descriptive.hpp"
#include "stats/linreg.hpp"
#include "stats/lm.hpp"
#include "util/error.hpp"

namespace wavm3::core {

namespace {

using migration::MigrationPhase;
using migration::MigrationType;
using models::FeatureBatch;
using models::HostRole;
using models::MigrationSample;

using Column = FeatureBatch::Column;

/// Which regressors Eq. 5-7 use in each phase. Order fixed:
/// transfer -> {cpu_host, bw, dr, cpu_vm}; others -> {cpu_host, cpu_vm}.
std::vector<Column> phase_columns(MigrationPhase phase) {
  if (phase == MigrationPhase::kTransfer) {
    return {Column::kCpuHost, Column::kBandwidth, Column::kDirtyRatio, Column::kCpuVm};
  }
  return {Column::kCpuHost, Column::kCpuVm};
}

/// Whether the ablation mask drops feature column `j` of `phase`.
bool ablated(MigrationPhase phase, const Wavm3Model::Ablation& ab, std::size_t j) {
  if (phase == MigrationPhase::kTransfer) {
    return (j == 1 && ab.drop_bandwidth) || (j == 2 && ab.drop_dirty_ratio) ||
           (j == 3 && ab.drop_vm_cpu);
  }
  return j == 1 && ab.drop_vm_cpu;
}

PhaseCoefficients pack(MigrationPhase phase, const std::vector<double>& coeffs) {
  PhaseCoefficients out;
  if (phase == MigrationPhase::kTransfer) {
    out.alpha = coeffs[0];
    out.beta = coeffs[1];
    out.gamma = coeffs[2];
    out.delta = coeffs[3];
    out.c = coeffs[4];
  } else {
    out.alpha = coeffs[0];
    out.beta = coeffs[1];
    out.c = coeffs[2];
  }
  return out;
}

const PhaseCoefficients& phase_coeffs(const RoleCoefficients& rc, MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kInitiation: return rc.initiation;
    case MigrationPhase::kTransfer: return rc.transfer;
    case MigrationPhase::kActivation: return rc.activation;
    case MigrationPhase::kNormal: break;
  }
  // Samples at the very boundary of [ms, me] may carry kNormal; the
  // initiation model (plain CPU + bias) is the natural fallback.
  return rc.initiation;
}

/// Eq. 4's full design is 11 terms: 5 transfer + 3 initiation + 3
/// activation regressors against the per-phase integral columns.
constexpr std::size_t kMaxTerms = 11;

/// The per-phase coefficient vectors laid out against the batch's
/// integral columns: {alpha..., bias} against {features..., kOne}.
/// Appends into fixed-capacity arrays (no per-call allocation — the
/// serve hot path prices uncached scenarios through here) and returns
/// the new term count.
std::size_t append_phase_terms(MigrationPhase phase, const PhaseCoefficients& k,
                               std::size_t at, std::array<models::DesignTerm, kMaxTerms>& terms,
                               std::array<double, kMaxTerms>& coeffs) {
  if (phase == MigrationPhase::kTransfer) {
    const Column cols[] = {Column::kCpuHost, Column::kBandwidth, Column::kDirtyRatio,
                           Column::kCpuVm, Column::kOne};
    const double k5[] = {k.alpha, k.beta, k.gamma, k.delta, k.c};
    for (std::size_t j = 0; j < 5; ++j) {
      terms[at] = {cols[j], phase};
      coeffs[at] = k5[j];
      ++at;
    }
  } else {
    const Column cols[] = {Column::kCpuHost, Column::kCpuVm, Column::kOne};
    const double k3[] = {k.alpha, k.beta, k.c};
    for (std::size_t j = 0; j < 3; ++j) {
      terms[at] = {cols[j], phase};
      coeffs[at] = k3[j];
      ++at;
    }
  }
  return at;
}

}  // namespace

Wavm3Model::Wavm3Model(Options options) : options_(options) {}

PhaseCoefficients Wavm3Model::fit_phase(const FeatureBatch& batch, MigrationType type,
                                        HostRole role, MigrationPhase phase) const {
  const std::span<const std::size_t> samples = batch.sample_slice(type, role, phase);
  const std::vector<Column> feature_cols = phase_columns(phase);
  const std::size_t n_features = feature_cols.size();
  WAVM3_REQUIRE(samples.size() >= n_features + 1,
                "WAVM3: too few samples to fit a phase model");

  // Gather the phase's regressor columns (ablated columns become 0,
  // mirroring the paper's term-removal studies) and the power target.
  std::vector<std::vector<double>> columns(n_features, std::vector<double>(samples.size()));
  for (std::size_t j = 0; j < n_features; ++j) {
    if (ablated(phase, options_.ablation, j)) continue;  // stays all-zero
    FeatureBatch::gather(batch.sample_column(feature_cols[j]), samples, columns[j]);
  }
  std::vector<double> power(samples.size());
  FeatureBatch::gather(batch.sample_column(Column::kPower), samples, power);

  // Prune zero-variance columns (e.g. CPU(v,t)==0 on the target during
  // transfer, SIV-C.2): they are collinear with the intercept, and the
  // paper's tables report exactly 0 for them.
  std::vector<std::size_t> kept_idx;
  for (std::size_t j = 0; j < n_features; ++j) {
    const auto summary = stats::summarize(std::span<const double>(columns[j]));
    if (summary.stddev > 1e-9 * (1.0 + std::abs(summary.mean))) kept_idx.push_back(j);
  }

  std::vector<double> full(n_features + 1, 0.0);  // +1: intercept last
  if (kept_idx.empty()) {
    // Degenerate phase (all features constant): bias-only model.
    full[n_features] = stats::mean(std::span<const double>(power));
    return pack(phase, full);
  }

  std::vector<std::span<const double>> kept_cols;
  kept_cols.reserve(kept_idx.size());
  for (const std::size_t j : kept_idx) kept_cols.emplace_back(columns[j]);

  std::vector<double> solution;
  stats::LinregOptions linreg;
  linreg.nonnegative = options_.nonnegative_coefficients;
  const stats::LinearFit ols = stats::fit_linear(kept_cols, power, linreg);
  if (options_.use_levenberg_marquardt) {
    // SVI-F fits with non-linear least squares; for this linear model
    // LM converges to the same optimum. Seed at zero to make the
    // equivalence a meaningful check rather than a tautology. The LM
    // residual machinery is row-wise, so transpose the kept columns.
    std::vector<std::vector<double>> reduced(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      reduced[i].reserve(kept_idx.size());
      for (const std::size_t j : kept_idx) reduced[i].push_back(columns[j][i]);
    }
    const auto model_fn = [](const std::vector<double>& params,
                             const std::vector<double>& f) {
      double y = params.back();
      for (std::size_t j = 0; j < f.size(); ++j) y += params[j] * f[j];
      return y;
    };
    const stats::LmResult lm = stats::levenberg_marquardt(
        stats::curve_residuals(model_fn, reduced, power),
        std::vector<double>(kept_idx.size() + 1, 0.0));
    solution = lm.params;
  } else {
    solution = ols.coefficients;
  }

  for (std::size_t k = 0; k < kept_idx.size(); ++k) full[kept_idx[k]] = solution[k];
  full[n_features] = solution[kept_idx.size()];
  return pack(phase, full);
}

void Wavm3Model::fit(const models::Dataset& train) {
  fits_.clear();
  FeatureBatch::BuildOptions build;
  build.with_samples = true;
  const FeatureBatch batch(train, build);
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const bool any = !batch.slice(type, HostRole::kSource).empty() ||
                     !batch.slice(type, HostRole::kTarget).empty();
    if (!any) continue;

    Wavm3Coefficients table;
    for (const HostRole role : {HostRole::kSource, HostRole::kTarget}) {
      RoleCoefficients rc;
      rc.initiation = fit_phase(batch, type, role, MigrationPhase::kInitiation);
      rc.transfer = fit_phase(batch, type, role, MigrationPhase::kTransfer);
      rc.activation = fit_phase(batch, type, role, MigrationPhase::kActivation);
      (role == HostRole::kSource ? table.source : table.target) = rc;
    }
    fits_[type] = table;
  }
  WAVM3_REQUIRE(!fits_.empty(), "WAVM3: training set contained no observations");
}

void Wavm3Model::set_coefficients(MigrationType type, const Wavm3Coefficients& table) {
  fits_[type] = table;
}

std::vector<MigrationType> Wavm3Model::fitted_types() const {
  std::vector<MigrationType> types;
  types.reserve(fits_.size());
  for (const auto& [type, table] : fits_) types.push_back(type);
  return types;
}

const Wavm3Coefficients& Wavm3Model::coefficients(MigrationType type) const {
  const auto it = fits_.find(type);
  WAVM3_REQUIRE(it != fits_.end(), "WAVM3: not fitted for this migration type");
  return it->second;
}

double Wavm3Model::predict_power(MigrationType type, HostRole role,
                                 const MigrationSample& sample) const {
  const Wavm3Coefficients& table = coefficients(type);
  const RoleCoefficients& rc = role == HostRole::kSource ? table.source : table.target;
  return evaluate(sample.phase == MigrationPhase::kNormal ? MigrationPhase::kInitiation
                                                          : sample.phase,
                  phase_coeffs(rc, sample.phase), sample);
}

void Wavm3Model::predict_batch(const FeatureBatch& batch, std::span<double> out) const {
  WAVM3_REQUIRE(out.size() == batch.size(), "predict_batch: output size mismatch");
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    for (const HostRole role : {HostRole::kSource, HostRole::kTarget}) {
      const std::span<const std::size_t> rows = batch.slice(type, role);
      if (rows.empty()) continue;
      const Wavm3Coefficients& table = coefficients(type);
      const RoleCoefficients& rc = role == HostRole::kSource ? table.source : table.target;
      // Eq. 4 as one design apply: 11 concatenated per-phase integral
      // columns against the role's coefficient table.
      std::array<models::DesignTerm, kMaxTerms> terms;
      std::array<double, kMaxTerms> coeffs;
      std::size_t n = 0;
      n = append_phase_terms(MigrationPhase::kInitiation, rc.initiation, n, terms, coeffs);
      n = append_phase_terms(MigrationPhase::kTransfer, rc.transfer, n, terms, coeffs);
      n = append_phase_terms(MigrationPhase::kActivation, rc.activation, n, terms, coeffs);
      models::apply_terms_to_rows(batch, {terms.data(), n}, {coeffs.data(), n}, 0.0,
                                  FeatureBatch::Weighting::kTotal, rows, out);
    }
  }
}

void Wavm3Model::predict_phase_batch(const FeatureBatch& batch, MigrationPhase phase,
                                     std::span<double> out) const {
  WAVM3_REQUIRE(out.size() == batch.size(), "predict_phase_batch: output size mismatch");
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    for (const HostRole role : {HostRole::kSource, HostRole::kTarget}) {
      const std::span<const std::size_t> rows = batch.slice(type, role);
      if (rows.empty()) continue;
      const Wavm3Coefficients& table = coefficients(type);
      const RoleCoefficients& rc = role == HostRole::kSource ? table.source : table.target;
      std::array<models::DesignTerm, kMaxTerms> terms;
      std::array<double, kMaxTerms> coeffs;
      const std::size_t n = append_phase_terms(phase, phase_coeffs(rc, phase), 0, terms, coeffs);
      models::apply_terms_to_rows(batch, {terms.data(), n}, {coeffs.data(), n}, 0.0,
                                  FeatureBatch::Weighting::kPhasePure, rows, out);
    }
  }
}

void Wavm3Model::apply_idle_bias_correction(double idle_delta_watts) {
  for (auto& [type, table] : fits_) {
    for (RoleCoefficients* rc : {&table.source, &table.target}) {
      rc->initiation.c -= idle_delta_watts;
      rc->transfer.c -= idle_delta_watts;
      rc->activation.c -= idle_delta_watts;
    }
  }
}

}  // namespace wavm3::core
