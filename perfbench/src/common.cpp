#include "common.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include <pthread.h>
#include <sched.h>

#include "kernels/kernels.hpp"
#include "models/feature_batch.hpp"

namespace wavm3::perfbench {

using migration::MigrationType;

core::Wavm3Model make_model(double scale) {
  core::Wavm3Model m;
  for (const MigrationType type :
       {MigrationType::kNonLive, MigrationType::kLive, MigrationType::kPostCopy}) {
    const double t = type == MigrationType::kNonLive ? 0.7 : 1.0;
    core::Wavm3Coefficients table;
    table.source.initiation = {2.1 * scale * t, 1.3 * scale, 0.0, 0.0, 210.0 * scale};
    table.source.transfer = {2.4 * scale * t, 1.1e-7 * scale, 55.0 * scale, 1.9 * scale,
                             205.0 * scale};
    table.source.activation = {2.2 * scale * t, 1.2 * scale, 0.0, 0.0, 208.0 * scale};
    table.target.initiation = {1.9 * scale * t, 0.8 * scale, 0.0, 0.0, 200.0 * scale};
    table.target.transfer = {2.0 * scale * t, 0.9e-7 * scale, 12.0 * scale, 0.7 * scale,
                             198.0 * scale};
    table.target.activation = {2.1 * scale * t, 1.0 * scale, 0.0, 0.0, 202.0 * scale};
    m.set_coefficients(type, table);
  }
  return m;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(idx + 0.5)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

namespace {

template <typename Keep>
double quantile_where(std::initializer_list<const Windowed*> series, double q, Keep keep) {
  std::vector<double> pooled;
  for (int k = 0; k < SubWindows::kCount; ++k) {
    if (!keep(k)) continue;
    for (const Windowed* s : series) {
      const std::vector<double>& v = s->w[static_cast<std::size_t>(k)];
      pooled.insert(pooled.end(), v.begin(), v.end());
    }
  }
  return quantile(std::move(pooled), q);
}

}  // namespace

double pooled_quantile(std::initializer_list<const Windowed*> series, double q) {
  return quantile_where(series, q, SubWindows::measured);
}

double pooled_trimmed_mean(std::initializer_list<const Windowed*> series) {
  std::vector<double> pooled;
  for (int k = 1; k < SubWindows::kCount; ++k) {
    for (const Windowed* s : series) {
      const std::vector<double>& v = s->w[static_cast<std::size_t>(k)];
      pooled.insert(pooled.end(), v.begin(), v.end());
    }
  }
  if (pooled.empty()) return 0.0;
  std::sort(pooled.begin(), pooled.end());
  const std::size_t kept = pooled.size() - pooled.size() / 100;
  double sum = 0.0;
  for (std::size_t i = 0; i < kept; ++i) sum += pooled[i];
  return sum / static_cast<double>(kept);
}

double best_window_quantile(std::initializer_list<const Windowed*> series, double q) {
  double lowest = 0.0;
  for (int k = 1; k < SubWindows::kCount; ++k) {
    const double v = quantile_where(series, q, [k](int j) { return j == k; });
    if (k == 1 || v < lowest) lowest = v;
  }
  return lowest;
}

namespace {

/// The CPUs this process may run on, captured before any pinning.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void set_affinity(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

}  // namespace

void pin_current_thread(int slot) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  set_affinity({cpus[static_cast<std::size_t>(slot) % cpus.size()]});
}

void pin_thread(int tid, int slot) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &set);
  sched_setaffinity(tid, sizeof set, &set);
}

void pin_current_thread_from(int first_slot) {
  const std::vector<int>& cpus = allowed_cpus();
  if (first_slot < 0 || static_cast<std::size_t>(first_slot) >= cpus.size()) {
    set_affinity(cpus);
    return;
  }
  set_affinity({cpus.begin() + first_slot, cpus.end()});
}

ThreadCpuClock ThreadCpuClock::self() {
  clockid_t id = CLOCK_THREAD_CPUTIME_ID;
  pthread_getcpuclockid(pthread_self(), &id);
  return ThreadCpuClock(id);
}

ThreadCpuClock ThreadCpuClock::of(int tid) {
  // The id pthread_getcpuclockid builds from a kernel thread id:
  // ~tid << 3 | CPUCLOCK_PERTHREAD (4) | CPUCLOCK_SCHED (2).
  return ThreadCpuClock(static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6U));
}

double ThreadCpuClock::ns() const {
  timespec ts{};
  if (clock_gettime(id_, &ts) != 0) return std::nan("");
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

std::vector<int> thread_ids() {
  std::vector<int> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    out.push_back(std::atoi(entry.path().filename().c_str()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

double error_ratio(std::uint64_t failed, std::uint64_t attempted) {
  constexpr double kFloor = 1e-6;
  if (attempted == 0) return 1.0;
  return std::max(kFloor, static_cast<double>(failed) / static_cast<double>(attempted));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double registry_total(const obs::MetricRegistry& registry, const char* name) {
  double total = 0.0;
  for (const obs::MetricSnapshot& m : registry.snapshot().metrics) {
    if (m.name != name) continue;
    total += m.kind == obs::MetricKind::kCounter ? static_cast<double>(m.counter_value)
                                                 : m.gauge_value;
  }
  return total;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const core::MigrationScenario& sc) {
  add(static_cast<std::uint64_t>(sc.type));
  for (const double v : {sc.vm_mem_bytes, sc.vm_cpu_vcpus, sc.vm_dirty_pages_per_s,
                         sc.vm_working_set_pages, sc.source_cpu_load, sc.source_cpu_capacity,
                         sc.target_cpu_load, sc.target_cpu_capacity, sc.link_payload_rate}) {
    add(v);
  }
}

void Digest::add(const core::MigrationForecast& fc) {
  for (const double v : {fc.times.ms, fc.times.ts, fc.times.te, fc.times.me, fc.total_bytes,
                         fc.downtime, fc.source_energy, fc.target_energy}) {
    add(v);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1.0});
}

bool forecasts_match(const core::MigrationForecast& a, const core::MigrationForecast& b,
                     double rel_tol) {
  const double pairs[][2] = {{a.times.ts, b.times.ts},         {a.times.te, b.times.te},
                             {a.times.me, b.times.me},         {a.total_bytes, b.total_bytes},
                             {a.downtime, b.downtime},         {a.source_energy, b.source_energy},
                             {a.target_energy, b.target_energy}};
  for (const auto& p : pairs) {
    if (!(rel_diff(p[0], p[1]) <= rel_tol)) return false;
  }
  return a.precopy_rounds == b.precopy_rounds;
}

namespace {

/// Keeps the optimiser from discarding shadow-timed work.
volatile double g_sink = 0.0;

/// The six-sample boundary observation plan::score_batch prices a
/// scenario with (constant representative features per phase).
models::MigrationObservation boundary_observation(const core::MigrationScenario& sc,
                                                  const core::MigrationForecast& fc,
                                                  const core::PhaseRepresentatives& rep,
                                                  models::HostRole role) {
  models::MigrationObservation obs;
  obs.type = rep.coeff_type;
  obs.role = role;
  obs.times = fc.times;
  obs.mem_bytes = sc.vm_mem_bytes;
  obs.data_bytes = fc.total_bytes;
  obs.avg_bandwidth = fc.bandwidth;
  const models::MigrationSample* ps =
      role == models::HostRole::kSource ? rep.source : rep.target;
  const double bounds[4] = {fc.times.ms, fc.times.ts, fc.times.te, fc.times.me};
  for (int phase = 0; phase < 3; ++phase) {
    models::MigrationSample s = ps[phase];
    s.time = bounds[phase];
    obs.samples.push_back(s);
    s.time = bounds[phase + 1];
    obs.samples.push_back(s);
  }
  return obs;
}

}  // namespace

CoreShadow shadow_core(const core::Wavm3Model& model,
                       const std::vector<core::MigrationScenario>& scenarios) {
  CoreShadow out;
  if (scenarios.empty()) return out;
  std::vector<core::MigrationForecast> fcs(scenarios.size());
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < scenarios.size(); ++i) fcs[i] = core::forecast_timings(scenarios[i]);
  out.forecast_timings_ns = ns_since(t0) / static_cast<double>(scenarios.size());
  t0 = Clock::now();
  for (std::size_t i = 0; i < scenarios.size(); ++i) core::attach_energy(model, scenarios[i], fcs[i]);
  out.attach_energy_ns = ns_since(t0) / static_cast<double>(scenarios.size());
  double s = 0.0;
  for (const core::MigrationForecast& fc : fcs) s += fc.total_energy();
  g_sink = g_sink + s;
  return out;
}

ModelShadow shadow_models(const core::Wavm3Model& model,
                          const std::vector<core::MigrationScenario>& scenarios) {
  ModelShadow out;
  if (scenarios.empty()) return out;
  std::vector<models::MigrationObservation> observations;
  observations.reserve(2 * scenarios.size());
  for (const core::MigrationScenario& sc : scenarios) {
    const core::MigrationForecast fc = core::forecast_timings(sc);
    const core::PhaseRepresentatives rep = core::representative_features(sc, fc);
    observations.push_back(boundary_observation(sc, fc, rep, models::HostRole::kSource));
    observations.push_back(boundary_observation(sc, fc, rep, models::HostRole::kTarget));
  }
  std::vector<const models::MigrationObservation*> ptrs;
  for (const models::MigrationObservation& o : observations) ptrs.push_back(&o);
  const models::FeatureBatch batch(ptrs);
  std::vector<double> energies(batch.size());
  const double rows = static_cast<double>(batch.size());

  constexpr int kRepeats = 8;
  std::vector<double> per_row;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    model.predict_batch(batch, energies);
    per_row.push_back(ns_since(t0) / rows);
  }
  out.predict_batch_ns_per_row = median(per_row);

  // The 11-term apply WAVM3 runs per (type, role) slice, over columns
  // of the batch's own length.
  constexpr std::size_t kTerms = 11;
  std::vector<std::vector<double>> cols(kTerms, std::vector<double>(batch.size()));
  for (std::size_t j = 0; j < kTerms; ++j) {
    for (std::size_t i = 0; i < batch.size(); ++i) cols[j][i] = energies[i] * (1.0 + 0.01 * j);
  }
  std::array<std::span<const double>, kTerms> views;
  std::array<double, kTerms> coeffs;
  for (std::size_t j = 0; j < kTerms; ++j) {
    views[j] = cols[j];
    coeffs[j] = 0.5 + 0.1 * static_cast<double>(j);
  }
  std::vector<double> applied(batch.size());
  per_row.clear();
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    kernels::apply_design_matrix(views, coeffs, 0.0, applied);
    per_row.push_back(ns_since(t0) / rows);
  }
  out.apply_ns_per_row = median(per_row);
  g_sink = g_sink + applied[0] + energies[0];
  return out;
}

}  // namespace wavm3::perfbench
