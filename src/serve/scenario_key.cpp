#include "serve/scenario_key.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wavm3::serve {

namespace {

/// Snaps v to the geometric grid exp(k * ln(1+q)); values within about
/// q/2 relative distance coincide. Sign-preserving; 0 stays 0.
double quantize(double v, double q) {
  if (q <= 0.0 || v == 0.0 || !std::isfinite(v)) return v;
  const double pitch = std::log1p(q);
  const double magnitude = std::exp(std::round(std::log(std::fabs(v)) / pitch) * pitch);
  return std::copysign(magnitude, v);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 step folded into an accumulating hash.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U);
  h ^= h >> 30U;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27U;
  return h;
}

}  // namespace

std::array<double, kScenarioFieldCount> scenario_fields(const core::MigrationScenario& sc) {
  const migration::MigrationConfig& m = sc.migration;
  const net::BandwidthModelParams& b = sc.bandwidth;
  return {
      static_cast<double>(static_cast<int>(sc.type)),
      // Workload features (the quantizable part).
      sc.vm_mem_bytes,
      sc.vm_cpu_vcpus,
      sc.vm_dirty_pages_per_s,
      sc.vm_working_set_pages,
      sc.source_cpu_load,
      sc.source_cpu_capacity,
      sc.target_cpu_load,
      sc.target_cpu_capacity,
      sc.link_payload_rate,
      // Migration machinery (compared exactly).
      m.initiation_duration,
      m.stop_threshold_bytes,
      static_cast<double>(m.max_precopy_rounds),
      m.max_transfer_factor,
      m.postcopy_state_bytes,
      m.adaptive_rate_limit ? 1.0 : 0.0,
      m.min_rate_bytes,
      m.rate_increment_bytes,
      m.guest_traffic_claim,
      m.contention_floor,
      m.sender_cpu_base,
      m.sender_cpu_per_rate,
      m.receiver_cpu_base,
      m.receiver_cpu_per_rate,
      m.initiation_cpu,
      m.activation_cpu,
      m.compression_ratio,
      m.compression_cpu,
      m.source_cleanup_duration,
      m.target_resume_duration,
      m.resume_point_fraction,
      // Bandwidth model (compared exactly).
      b.min_efficiency,
      b.cpu_for_wire_speed,
  };
}

core::MigrationScenario scenario_from_fields(
    const std::array<double, kScenarioFieldCount>& f) {
  const int type = static_cast<int>(f[0]);
  WAVM3_REQUIRE(static_cast<double>(type) == f[0] && type >= 0 &&
                    type <= static_cast<int>(migration::MigrationType::kPostCopy),
                "scenario type field does not encode a MigrationType");
  core::MigrationScenario sc;
  sc.type = static_cast<migration::MigrationType>(type);
  sc.vm_mem_bytes = f[1];
  sc.vm_cpu_vcpus = f[2];
  sc.vm_dirty_pages_per_s = f[3];
  sc.vm_working_set_pages = f[4];
  sc.source_cpu_load = f[5];
  sc.source_cpu_capacity = f[6];
  sc.target_cpu_load = f[7];
  sc.target_cpu_capacity = f[8];
  sc.link_payload_rate = f[9];
  migration::MigrationConfig& m = sc.migration;
  m.initiation_duration = f[10];
  m.stop_threshold_bytes = f[11];
  m.max_precopy_rounds = static_cast<int>(f[12]);
  m.max_transfer_factor = f[13];
  m.postcopy_state_bytes = f[14];
  m.adaptive_rate_limit = f[15] != 0.0;
  m.min_rate_bytes = f[16];
  m.rate_increment_bytes = f[17];
  m.guest_traffic_claim = f[18];
  m.contention_floor = f[19];
  m.sender_cpu_base = f[20];
  m.sender_cpu_per_rate = f[21];
  m.receiver_cpu_base = f[22];
  m.receiver_cpu_per_rate = f[23];
  m.initiation_cpu = f[24];
  m.activation_cpu = f[25];
  m.compression_ratio = f[26];
  m.compression_cpu = f[27];
  m.source_cleanup_duration = f[28];
  m.target_resume_duration = f[29];
  m.resume_point_fraction = f[30];
  sc.bandwidth.min_efficiency = f[31];
  sc.bandwidth.cpu_for_wire_speed = f[32];
  return sc;
}

core::MigrationScenario canonicalize(const core::MigrationScenario& sc,
                                     double quantization_step) {
  if (quantization_step <= 0.0) return sc;
  core::MigrationScenario q = sc;
  q.vm_mem_bytes = quantize(sc.vm_mem_bytes, quantization_step);
  q.vm_cpu_vcpus = quantize(sc.vm_cpu_vcpus, quantization_step);
  q.vm_dirty_pages_per_s = quantize(sc.vm_dirty_pages_per_s, quantization_step);
  q.vm_working_set_pages = quantize(sc.vm_working_set_pages, quantization_step);
  q.source_cpu_load = quantize(sc.source_cpu_load, quantization_step);
  q.source_cpu_capacity = quantize(sc.source_cpu_capacity, quantization_step);
  q.target_cpu_load = quantize(sc.target_cpu_load, quantization_step);
  q.target_cpu_capacity = quantize(sc.target_cpu_capacity, quantization_step);
  q.link_payload_rate = quantize(sc.link_payload_rate, quantization_step);
  return q;
}

bool same_fields(const std::array<double, kScenarioFieldCount>& a,
                 const std::array<double, kScenarioFieldCount>& b) {
  for (std::size_t i = 0; i < kScenarioFieldCount; ++i) {
    if (field_bits(a[i]) != field_bits(b[i])) return false;
  }
  return true;
}

bool ScenarioKey::operator==(const ScenarioKey& other) const {
  return model_version == other.model_version && same_fields(fields, other.fields);
}

std::size_t ScenarioKeyHash::operator()(const ScenarioKey& key) const {
  std::uint64_t h = mix(0x243f6a8885a308d3ULL, key.model_version);
  for (const double f : key.fields) h = mix(h, field_bits(f));
  return static_cast<std::size_t>(h);
}

}  // namespace wavm3::serve
