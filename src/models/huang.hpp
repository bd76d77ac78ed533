// The HUANG baseline (Huang et al., CMC'11; Eq. 8 of the paper):
//   P(t) = alpha * CPU(t) + C
// a per-host linear power model in CPU utilisation, integrated over the
// migration interval. Following the paper's SVII discussion ("the model
// of Huang et al. performs considerably better because it considers the
// CPU of source and target hosts"), the CPU regressor is the metered
// host's utilisation CPU(h,t); the model ignores bandwidth, dirtying
// ratio, and the migrating VM's own load — exactly the omissions WAVM3
// fixes.
#pragma once

#include <map>

#include "models/energy_model.hpp"
#include "stats/linreg.hpp"

namespace wavm3::models {

/// Per-host-role linear CPU power model.
class HuangModel final : public EnergyModel {
 public:
  /// Which CPU signal Eq. 8's "CPU(v,t)" denotes. The paper's SVII
  /// prose credits Huang with "considering the CPU of source and target
  /// hosts" (kHostCpu, our default), while Eq. 8 literally names the
  /// migrating VM's utilisation (kVmCpu). Both readings are available;
  /// the Table VII bench contrasts them.
  enum class CpuRegressor { kHostCpu, kVmCpu };

  explicit HuangModel(CpuRegressor regressor = CpuRegressor::kHostCpu)
      : regressor_(regressor) {}

  std::string name() const override {
    return regressor_ == CpuRegressor::kHostCpu ? "HUANG" : "HUANG(vm-cpu)";
  }

  void fit(const Dataset& train) override;
  /// Per role slice: alpha * integral(CPU) + C * duration, one 2-column
  /// matrix-vector product over the batch's summed phase integrals.
  void predict_batch(const FeatureBatch& batch, std::span<double> out) const override;
  void apply_idle_bias_correction(double idle_delta_watts) override;
  bool is_fitted() const override { return !fits_.empty(); }

  /// Fitted (alpha, C) for one role; throws when not fitted.
  struct Coefficients {
    double alpha = 0.0;
    double c = 0.0;
  };
  Coefficients coefficients(HostRole role) const;

 private:
  CpuRegressor regressor_;
  std::map<HostRole, Coefficients> fits_;
};

}  // namespace wavm3::models
