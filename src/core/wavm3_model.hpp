// WAVM3: the Workload-Aware Virtual Machine Migration Model — the
// paper's primary contribution (SIV).
//
// The energy of a migration is the sum of per-phase energies (Eq. 4),
// each the integral of a phase-specific linear power model:
//
//   initiation (Eq. 5): P = alpha_i*CPU(h,t) + beta_i*CPU(v,t) + C_i
//   transfer   (Eq. 6): P = alpha_t*CPU(h,t) + beta_t*BW(S,T,t)
//                           + gamma_t*DR(v,t) + delta_t*CPU(v,t) + C_t
//   activation (Eq. 7): P = alpha_a*CPU(h,t) + beta_a*CPU(v,t) + C_a
//
// with separate coefficient sets per host role (source/target) and
// migration type (live/non-live), as in Tables III-IV. Coefficients are
// fit by least squares on meter + instrumentation samples; SVI-F's
// non-linear least squares path is available via Options.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "models/energy_model.hpp"

namespace wavm3::core {

/// Linear coefficients of one phase for one host role.
/// Unused terms (e.g. gamma/delta outside the transfer phase) stay 0.
struct PhaseCoefficients {
  double alpha = 0.0;  ///< CPU(h,t) weight
  double beta = 0.0;   ///< initiation/activation: CPU(v,t); transfer: BW(S,T,t)
  double gamma = 0.0;  ///< transfer only: DR(v,t)
  double delta = 0.0;  ///< transfer only: CPU(v,t)
  double c = 0.0;      ///< bias (includes the machine's idle draw)
};

/// The three phase models of one host role.
struct RoleCoefficients {
  PhaseCoefficients initiation;
  PhaseCoefficients transfer;
  PhaseCoefficients activation;
};

/// Full coefficient table for one migration type (a row block of
/// Table III or IV).
struct Wavm3Coefficients {
  RoleCoefficients source;
  RoleCoefficients target;
};

/// Eq. 5-7: the power (watts) one phase model predicts at one
/// sample's features. The single definition of the formula:
/// Wavm3Model::predict_power and the closed-form planner's energy
/// halves (core/planner.cpp) both evaluate it, so every caller sums the
/// terms in this order, zero-valued features included.
inline double evaluate(migration::MigrationPhase phase, const PhaseCoefficients& k,
                       const models::MigrationSample& s) {
  if (phase == migration::MigrationPhase::kTransfer) {
    return k.alpha * s.cpu_host + k.beta * s.bandwidth + k.gamma * s.dirty_ratio +
           k.delta * s.cpu_vm + k.c;
  }
  return k.alpha * s.cpu_host + k.beta * s.cpu_vm + k.c;
}

/// The WAVM3 energy model.
class Wavm3Model final : public models::EnergyModel {
 public:
  /// Regressors that can be ablated (the bench_ablation_terms study).
  struct Ablation {
    bool drop_bandwidth = false;
    bool drop_dirty_ratio = false;
    bool drop_vm_cpu = false;
  };

  struct Options {
    /// Fit with Levenberg-Marquardt (seeded at zero) instead of the
    /// closed-form OLS; both converge to the same optimum for these
    /// linear models (the paper quotes NLLS).
    bool use_levenberg_marquardt = false;
    /// Constrain the workload coefficients (not the bias) to be
    /// nonnegative, as physics dictates and the paper's tables show;
    /// resolves the sign instability of collinear regressors (CPU(h,t)
    /// already contains CPU(v,t) on the source).
    bool nonnegative_coefficients = true;
    Ablation ablation{};
  };

  Wavm3Model() : Wavm3Model(Options{}) {}
  explicit Wavm3Model(Options options);

  std::string name() const override { return "WAVM3"; }
  void fit(const models::Dataset& train) override;
  /// Closed-form batched prediction: for each (type, role) slice of the
  /// batch, one Matrix x coefficient-vector product over the 11
  /// concatenated per-phase integral columns (Eq. 4 as a dot product).
  void predict_batch(const models::FeatureBatch& batch, std::span<double> out) const override;
  void apply_idle_bias_correction(double idle_delta_watts) override;
  bool is_fitted() const override { return !fits_.empty(); }

  /// Per-sample power prediction (watts) under the fitted coefficients.
  double predict_power(migration::MigrationType type, models::HostRole role,
                       const models::MigrationSample& sample) const;

  /// Predicted energy of one phase for every batch row, from the
  /// strict (phase-pure) integral columns — the batched form of the
  /// Eq. 3 split. Rows whose (type, role) slice is absent from the fit
  /// throw, like predict_batch.
  void predict_phase_batch(const models::FeatureBatch& batch, migration::MigrationPhase phase,
                           std::span<double> out) const;

  /// Fitted coefficient table for one migration type; throws when the
  /// training set had no such migrations.
  const Wavm3Coefficients& coefficients(migration::MigrationType type) const;

  /// Installs a coefficient table directly (e.g. loaded from disk or
  /// published tables), making the model usable without fit().
  void set_coefficients(migration::MigrationType type, const Wavm3Coefficients& table);

  /// Migration types with a fitted/installed table, in enum order.
  /// The enumeration side of coefficients(): serialization (src/rpc/
  /// epoch publishes) walks this to ship every table.
  std::vector<migration::MigrationType> fitted_types() const;

  const Options& options() const { return options_; }

 private:
  PhaseCoefficients fit_phase(const models::FeatureBatch& batch, migration::MigrationType type,
                              models::HostRole role, migration::MigrationPhase phase) const;

  Options options_;
  std::map<migration::MigrationType, Wavm3Coefficients> fits_;
};

}  // namespace wavm3::core
