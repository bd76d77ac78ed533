// CPU-coupled achievable migration bandwidth.
//
// The paper observes (SVI-A, SVI-D) that when the source or target host
// CPU is saturated, the migration daemon cannot drive the NIC at wire
// speed: "bandwidth decreases when the CPU is fully loaded causing a
// longer transfer phase". This model captures that coupling: each
// endpoint has an efficiency in [min_efficiency, 1] that grows with the
// CPU headroom available to the migration helper, and the achieved
// bandwidth is the link payload rate scaled by the bottleneck endpoint.
#pragma once

#include "net/link.hpp"

namespace wavm3::net {

/// Parameters of the CPU-coupled bandwidth model.
struct BandwidthModelParams {
  /// Achieved fraction of wire speed when the endpoint has zero CPU
  /// headroom (Xen's dom0 still receives a scheduler share).
  double min_efficiency = 0.58;

  /// vCPUs of headroom needed to drive the NIC at full payload rate.
  double cpu_for_wire_speed = 2.0;
};

/// Computes endpoint and end-to-end migration bandwidth.
class BandwidthModel {
 public:
  explicit BandwidthModel(BandwidthModelParams params = {});

  const BandwidthModelParams& params() const { return params_; }

  /// Efficiency in [min_efficiency, 1] of one endpoint given its CPU
  /// headroom in vCPUs (capacity minus demand before migration load).
  double endpoint_efficiency(double cpu_headroom) const;

  /// Achievable payload bandwidth (bytes/s) for a transfer across
  /// `link` given both endpoints' CPU headrooms.
  double achievable_bandwidth(const Link& link, double source_headroom,
                              double target_headroom) const;

 private:
  BandwidthModelParams params_;
};

}  // namespace wavm3::net
