#include "net/bandwidth_model.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wavm3::net {

BandwidthModel::BandwidthModel(BandwidthModelParams params) : params_(params) {
  WAVM3_REQUIRE(params_.min_efficiency > 0.0 && params_.min_efficiency <= 1.0,
                "min_efficiency must be in (0,1]");
  WAVM3_REQUIRE(params_.cpu_for_wire_speed > 0.0, "cpu_for_wire_speed must be positive");
}

double BandwidthModel::endpoint_efficiency(double cpu_headroom) const {
  const double h = std::max(0.0, cpu_headroom);
  const double ramp = std::min(1.0, h / params_.cpu_for_wire_speed);
  return params_.min_efficiency + (1.0 - params_.min_efficiency) * ramp;
}

double BandwidthModel::achievable_bandwidth(const Link& link, double source_headroom,
                                            double target_headroom) const {
  const double eff =
      std::min(endpoint_efficiency(source_headroom), endpoint_efficiency(target_headroom));
  return link.max_payload_rate() * eff;
}

}  // namespace wavm3::net
