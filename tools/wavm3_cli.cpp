// wavm3 — command-line front end to the library, covering the full
// workflow without writing C++:
//
//   wavm3 campaign --testbed m --out data.csv [--fast] [--seed N]
//       Run the measurement campaign on a simulated testbed and save
//       the observation dataset.
//   wavm3 fit --dataset data.csv --out coeffs.csv [--train-fraction F]
//       Fit WAVM3 on a stratified training split and save coefficients.
//   wavm3 evaluate --dataset data.csv [--coeffs coeffs.csv]
//       Evaluate WAVM3 (refit or loaded) plus the HUANG/LIU/STRUNK
//       baselines on the dataset's test split; print Table VII-style
//       rows with bootstrap confidence intervals.
//   wavm3 predict --coeffs coeffs.csv [scenario flags]
//       Forecast duration, downtime, data and energy of a planned
//       migration from saved coefficients.
//   wavm3 trace [scenario flags] [fault flags] [--emit-samples FILE]
//       Run one engine-simulated migration round by round, optionally
//       under injected faults, and print the trajectory and outcome;
//       --emit-samples dumps the 2 Hz per-role sample stream as a
//       dataset CSV.
//   wavm3 stream-replay --dataset data.csv [--observation N]
//       Replay a recorded trace through the live streaming path,
//       printing the revised forecast as samples "arrive", then check
//       the finished stream against the batch prediction.
//   wavm3 tables
//       Reproduce every table of the paper in one run.
//
// Run `wavm3 help` for every subcommand and its flags.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <cstring>
#include <future>
#include <stdexcept>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "calib/recalibrator.hpp"
#include "core/calibration.hpp"
#include "dcsim/simulation.hpp"
#include "core/coeff_io.hpp"
#include "core/phase_eval.hpp"
#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "exp/campaign.hpp"
#include "exp/tables.hpp"
#include "faults/fault_plan.hpp"
#include "faults/node_outage.hpp"
#include "migration/engine.hpp"
#include "models/dataset_io.hpp"
#include "models/evaluation.hpp"
#include "models/feature_batch.hpp"
#include "models/huang.hpp"
#include "models/liu.hpp"
#include "models/strunk.hpp"
#include "chaos/executor.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "rpc/fleet.hpp"
#include "rpc/node.hpp"
#include "rpc/transport.hpp"
#include "serve/coeff_store.hpp"
#include "serve/query_stream.hpp"
#include "serve/service.hpp"
#include "serve/sim_backend.hpp"
#include "stream/replay.hpp"
#include "util/rng.hpp"
#include "stats/diagnostics.hpp"
#include "stats/metrics.hpp"
#include "stats/resampling.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace {

using namespace wavm3;

/// Tiny flag parser: --name value pairs plus boolean --name flags.
/// Numeric values are parsed strictly (full consumption, no atof-style
/// silent zeros); malformed values abort with a clear message.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        std::exit(2);
      }
      key = key.substr(2);
      // The next token is this flag's value unless it is itself a
      // "--flag". A leading single dash (negative number, e.g.
      // `--seed-offset -5`) is a value, not a flag.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  /// Every flag given, keyed by name without the leading "--".
  const std::map<std::string, std::string>& flags() const { return values_; }

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& s = it->second;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
      std::fprintf(stderr, "--%s needs a number, got '%s'\n", key.c_str(), s.c_str());
      std::exit(2);
    }
    return v;
  }
  long get_int(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& s = it->second;
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
      std::fprintf(stderr, "--%s needs an integer, got '%s'\n", key.c_str(), s.c_str());
      std::exit(2);
    }
    return v;
  }
  std::uint64_t get_seed() const {
    const long v = get_int("seed", 2015);
    if (v < 0) {
      std::fprintf(stderr, "--seed must be nonnegative, got %ld\n", v);
      std::exit(2);
    }
    return static_cast<std::uint64_t>(v);
  }

 private:
  std::map<std::string, std::string> values_;
};

exp::Testbed testbed_by_name(const std::string& name) {
  if (name == "m" || name == "m01-m02") return exp::testbed_m();
  if (name == "o" || name == "o1-o2") return exp::testbed_o();
  std::fprintf(stderr, "unknown testbed '%s' (use m or o)\n", name.c_str());
  std::exit(2);
}

int cmd_campaign(const Args& args) {
  const std::string out = args.get("out", "dataset.csv");
  const exp::Testbed testbed = testbed_by_name(args.get("testbed", "m"));
  exp::CampaignOptions options =
      args.has("fast") ? exp::fast_campaign_options() : exp::paper_campaign_options();
  util::set_log_level(util::LogLevel::kInfo);
  const exp::CampaignResult campaign = exp::run_campaign(testbed, options, args.get_seed());
  std::puts(exp::render_campaign_summary(campaign).c_str());
  if (!models::save_dataset_csv(campaign.dataset, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu observations to %s\n", campaign.dataset.size(), out.c_str());
  return 0;
}

int cmd_fit(const Args& args) {
  const std::string in = args.get("dataset", "dataset.csv");
  const std::string out = args.get("out", "coeffs.csv");
  const models::Dataset dataset = models::load_dataset_csv(in);
  if (dataset.size() == 0) {
    std::fprintf(stderr, "no observations in %s\n", in.c_str());
    return 1;
  }
  const double fraction = args.get_double("train-fraction", 0.2);
  const auto [train, test] = dataset.split_stratified(fraction, args.get_seed());
  core::Wavm3Model model;
  model.fit(train);
  std::printf("fit on %zu observations (%.0f%% stratified split of %zu)\n", train.size(),
              fraction * 100, dataset.size());
  for (const auto type : {migration::MigrationType::kNonLive, migration::MigrationType::kLive}) {
    try {
      std::puts(exp::render_coefficients_table(model, type, 0.0, 0.0,
                                               std::string("Coefficients, ") +
                                                   migration::to_string(type))
                    .c_str());
    } catch (const util::ContractError&) {
      // type absent from the training data
    }
  }
  if (!core::save_coefficients_csv(model, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote coefficients to %s\n", out.c_str());
  return 0;
}

int cmd_evaluate(const Args& args) {
  const std::string in = args.get("dataset", "dataset.csv");
  const models::Dataset dataset = models::load_dataset_csv(in);
  if (dataset.size() == 0) {
    std::fprintf(stderr, "no observations in %s\n", in.c_str());
    return 1;
  }
  const auto [train, test] = dataset.split_stratified(
      args.get_double("train-fraction", 0.2), args.get_seed());

  core::Wavm3Model wavm3;
  if (args.has("coeffs")) {
    wavm3 = core::load_coefficients_csv(args.get("coeffs", ""));
    if (!wavm3.is_fitted()) {
      std::fprintf(stderr, "could not load coefficients\n");
      return 1;
    }
  } else {
    wavm3.fit(train);
  }
  models::HuangModel huang;
  huang.fit(train);
  models::LiuModel liu;
  liu.fit(train);
  models::StrunkModel strunk;
  strunk.fit(train);

  const auto rows = models::evaluate_models({&wavm3, &huang, &liu, &strunk}, test);
  std::puts(exp::render_table7_comparison(rows).c_str());

  // Bootstrap CI on WAVM3's headline NRMSE per slice.
  std::puts("WAVM3 NRMSE with 95% bootstrap confidence intervals:");
  for (const auto type : {migration::MigrationType::kNonLive, migration::MigrationType::kLive}) {
    for (const auto role : {models::HostRole::kSource, models::HostRole::kTarget}) {
      const auto slice = test.select(type, role);
      if (slice.size() < 5) continue;
      std::vector<double> predicted;
      std::vector<double> observed;
      for (const auto* obs : slice) {
        predicted.push_back(wavm3.predict_energy(*obs));
        observed.push_back(obs->observed_energy());
      }
      const auto ci = stats::bootstrap_metric_ci(
          predicted, observed,
          [](const std::vector<double>& p, const std::vector<double>& o) {
            return stats::nrmse(p, o);
          },
          800, 0.95, args.get_seed());
      std::printf("  %-9s %-6s : %5.1f%%  [%5.1f%%, %5.1f%%]  (n=%zu)\n",
                  migration::to_string(type), models::to_string(role), ci.point * 100,
                  ci.lower * 100, ci.upper * 100, slice.size());
    }
  }

  // Residual diagnostics on the time-ordered per-sample power residuals
  // of the longest test migration: systematic structure here would mean
  // the phase models are missing a regressor.
  const models::MigrationObservation* longest = nullptr;
  for (const auto& obs : test.observations) {
    if (longest == nullptr || obs.samples.size() > longest->samples.size()) longest = &obs;
  }
  if (longest != nullptr && longest->samples.size() >= 10) {
    std::vector<double> p;
    std::vector<double> o;
    for (const auto& s : longest->samples) {
      p.push_back(wavm3.predict_power(longest->type, longest->role, s));
      o.push_back(s.power_watts);
    }
    const stats::ResidualDiagnostics d = stats::residual_diagnostics(p, o);
    std::printf("\npower-residual diagnostics (%s, %s, %zu samples):\n"
                "  mean %+.1f W, sd %.1f W, skew %+.2f, Durbin-Watson %.2f, "
                "lag-1 autocorr %+.2f\n",
                longest->experiment.c_str(), models::to_string(longest->role),
                longest->samples.size(), d.mean, d.stddev, d.skew, d.durbin_watson,
                d.lag1_autocorr);
  }
  return 0;
}

/// Scenario flags shared by `predict` and `trace`.
core::MigrationScenario scenario_from_args(const Args& args) {
  core::MigrationScenario sc;
  const std::string type = args.get("type", "live");
  if (type == "live") {
    sc.type = migration::MigrationType::kLive;
  } else if (type == "nonlive") {
    sc.type = migration::MigrationType::kNonLive;
  } else if (type == "postcopy") {
    sc.type = migration::MigrationType::kPostCopy;
  } else {
    std::fprintf(stderr, "unknown --type '%s' (expected live|nonlive|postcopy)\n",
                 type.c_str());
    std::exit(2);
  }
  sc.vm_mem_bytes = util::gib(args.get_double("mem-gb", 4.0));
  sc.vm_cpu_vcpus = args.get_double("vm-cpu", 1.0);
  sc.vm_dirty_pages_per_s = args.get_double("dirty-pages-per-s", 0.0);
  sc.vm_working_set_pages =
      args.get_double("working-set-fraction", 0.0) * sc.vm_mem_bytes / util::kPageSize;
  sc.source_cpu_load = args.get_double("source-load", 0.0);
  sc.target_cpu_load = args.get_double("target-load", 0.0);
  sc.source_cpu_capacity = args.get_double("capacity", 32.0);
  sc.target_cpu_capacity = sc.source_cpu_capacity;
  sc.link_payload_rate = args.get_double("link-mbs", 117.5) * 1e6;
  return sc;
}

int cmd_predict(const Args& args) {
  core::Wavm3Model model = core::load_coefficients_csv(args.get("coeffs", "coeffs.csv"));
  if (!model.is_fitted()) {
    std::fprintf(stderr, "could not load coefficients (use `wavm3 fit` first)\n");
    return 1;
  }
  const core::MigrationScenario sc = scenario_from_args(args);

  const core::MigrationPlanner planner(model);
  const core::MigrationForecast fc = planner.forecast(sc);
  std::printf("%s migration of a %.1f GB VM:\n", migration::to_string(sc.type),
              sc.vm_mem_bytes / util::gib(1));
  std::printf("  phases   : initiation %.1f s, transfer %.1f s, activation %.1f s\n",
              fc.times.initiation_duration(), fc.times.transfer_duration(),
              fc.times.activation_duration());
  std::printf("  transfer : %.2f GB at %.1f MB/s, %d pre-copy rounds%s\n",
              fc.total_bytes / 1e9, fc.bandwidth / 1e6, fc.precopy_rounds,
              fc.degenerated_to_nonlive ? " (pre-copy will not converge)" : "");
  std::printf("  downtime : %.2f s\n", fc.downtime);
  std::printf("  energy   : source %.1f kJ + target %.1f kJ = %.1f kJ\n",
              fc.source_energy / 1e3, fc.target_energy / 1e3, fc.total_energy() / 1e3);
  return 0;
}

/// Fault flags shared by `trace` and `serve-bench` (the simulated
/// datacentre's hosts are named "src" and "tgt"). Returns nullptr when
/// no fault flag is present.
std::shared_ptr<const faults::FaultPlan> fault_plan_from_args(const Args& args) {
  auto plan = std::make_shared<faults::FaultPlan>();
  bool any = false;
  if (args.has("fault-random")) {
    faults::FaultPlanOptions opts;
    opts.horizon = args.get_double("fault-horizon", 3600.0);
    opts.overload_hosts = {"src", "tgt"};
    opts.connection_loss_probability = args.get_double("loss-probability", 0.0);
    *plan = faults::FaultPlan::random(
        opts, static_cast<std::uint64_t>(args.get_int("fault-seed", 2015)));
    any = true;
  }
  if (args.has("degrade-at")) {
    faults::LinkDegradation d;
    d.start = args.get_double("degrade-at", 0.0);
    d.end = args.get_double("degrade-until", d.start + 60.0);
    d.factor = args.get_double("degrade-factor", 0.5);
    plan->add(d);
    any = true;
  }
  if (args.has("stall-at")) {
    faults::TransferStall s;
    s.at = args.get_double("stall-at", 0.0);
    s.duration = args.get_double("stall-duration", 1.0);
    plan->add(s);
    any = true;
  }
  if (args.has("flap-at")) {
    faults::LinkFlap f;
    f.start = args.get_double("flap-at", 0.0);
    f.end = args.get_double("flap-until", f.start + 120.0);
    plan->add(f);
    any = true;
  }
  if (args.has("overload-host")) {
    faults::HostOverload o;
    o.host = args.get("overload-host", "src") == "tgt" ? "tgt" : "src";
    o.start = args.get_double("overload-at", 0.0);
    o.end = args.get_double("overload-until", o.start + 60.0);
    o.extra_vcpus = args.get_double("overload-vcpus", 2.0);
    plan->add(o);
    any = true;
  }
  if (args.has("loss-at")) {
    plan->add(faults::ConnectionLoss{faults::FaultPhase::kAny,
                                     args.get_double("loss-at", 0.0)});
    any = true;
  }
  if (args.has("loss-phase")) {
    const std::string phase = args.get("loss-phase", "transfer");
    faults::ConnectionLoss l;
    if (phase == "initiation") l.phase = faults::FaultPhase::kInitiation;
    else if (phase == "transfer") l.phase = faults::FaultPhase::kTransfer;
    else {
      std::fprintf(stderr, "unknown --loss-phase '%s' (expected initiation|transfer)\n",
                   phase.c_str());
      std::exit(2);
    }
    l.at = args.get_double("loss-offset", 0.0);
    plan->add(l);
    any = true;
  }
  if (!any) return nullptr;
  return plan;
}

// --trace-out FILE (alias --chrome-trace FILE): the Chrome-trace
// destination for subcommands that can record spans. Empty = tracing
// stays off.
std::string trace_out_path(const Args& args) {
  std::string path = args.get("trace-out", "");
  if (path.empty()) path = args.get("chrome-trace", "");
  return path;
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (out) out << body;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Dumps the process-wide tracer as Chrome trace-event JSON. Reported
/// on stderr: stdout stays human-readable output only.
bool dump_chrome_trace(const std::string& path) {
  obs::Tracer& tr = obs::tracer();
  if (!tr.write_chrome_trace(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s (%llu events, %llu dropped)\n", path.c_str(),
               static_cast<unsigned long long>(tr.emitted() - tr.dropped()),
               static_cast<unsigned long long>(tr.dropped()));
  return true;
}

/// Dumps the process-wide metric registry, dispatching on the file
/// extension: .json -> JSON snapshot, anything else -> Prometheus text.
bool dump_global_metrics(const std::string& path) {
  const std::string body = path.ends_with(".json")
                               ? obs::json_snapshot(obs::registry())
                               : obs::prometheus_text(obs::registry());
  if (!write_text_file(path, body)) return false;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

/// Synthesizes the 2 Hz sample stream one executed migration produced
/// on both host meters (for `trace --emit-samples`): timestamps on the
/// meter cadence across [ms, me], phases from the record's realised
/// timings, features from the closed-form per-phase representatives,
/// and power from `model` when fitted (0 otherwise — the features are
/// what the streaming path consumes). Round-trips through the dataset
/// CSV, so the result feeds `wavm3 stream-replay` directly.
models::Dataset samples_from_record(const core::MigrationScenario& sc,
                                    const migration::MigrationRecord& rec,
                                    const core::Wavm3Model& model) {
  core::MigrationForecast fc;
  fc.times = rec.times;
  fc.total_bytes = rec.total_bytes;
  fc.precopy_rounds = rec.precopy_rounds;
  fc.downtime = rec.downtime;
  fc.degenerated_to_nonlive = rec.degenerated_to_nonlive;
  fc.bandwidth = rec.total_bytes / std::max(1e-9, rec.times.transfer_duration());
  const core::PhaseRepresentatives reps = core::representative_features(sc, fc);

  models::Dataset out;
  out.name = "trace";
  const double period = 0.5;  // the testbeds' 2 Hz meter cadence
  for (const auto role : {models::HostRole::kSource, models::HostRole::kTarget}) {
    models::MigrationObservation obs;
    obs.experiment = std::string("TRACE/") + migration::to_string(sc.type);
    obs.testbed = "cli";
    obs.type = sc.type;
    obs.role = role;
    obs.times = rec.times;
    obs.mem_bytes = sc.vm_mem_bytes;
    obs.data_bytes = rec.total_bytes;
    obs.avg_bandwidth = fc.bandwidth;
    const int grid = static_cast<int>(std::floor(rec.times.total_duration() / period));
    for (int k = 0; k <= grid + 1; ++k) {
      // Last grid point short of me gets a closing sample exactly at
      // me, so the emitted stream covers the full [ms, me] window.
      const double t = std::min(rec.times.ms + k * period, rec.times.me);
      migration::MigrationPhase phase = rec.times.phase_at(t);
      if (phase == migration::MigrationPhase::kNormal) {
        phase = migration::MigrationPhase::kActivation;  // t == me edge
      }
      int p = 0;
      if (phase == migration::MigrationPhase::kTransfer) p = 1;
      if (phase == migration::MigrationPhase::kActivation) p = 2;
      models::MigrationSample s =
          role == models::HostRole::kSource ? reps.source[p] : reps.target[p];
      s.time = t;
      s.phase = phase;
      s.power_watts =
          model.is_fitted() ? model.predict_power(reps.coeff_type, role, s) : 0.0;
      obs.samples.push_back(s);
      if (t >= rec.times.me) break;
    }
    out.observations.push_back(std::move(obs));
  }
  return out;
}

int cmd_trace(const Args& args) {
  // Runs the event-driven engine on the scenario (same flags as
  // `predict`) and prints the executed trajectory — including failures
  // when a fault plan is injected. `predict` answers "what would it
  // cost?"; `trace` answers "what actually happened, round by round?".
  const std::string trace_path = trace_out_path(args);
  if (!trace_path.empty()) obs::tracer().set_enabled(true);
  const core::MigrationScenario sc = scenario_from_args(args);
  const std::shared_ptr<const faults::FaultPlan> plan = fault_plan_from_args(args);
  if (plan != nullptr) faults::emit_fault_instants(*plan);

  const migration::MigrationRecord rec = serve::simulate_record(sc, plan);

  std::printf("%s migration of a %.1f GB VM (%s)\n", migration::to_string(sc.type),
              sc.vm_mem_bytes / util::gib(1),
              plan == nullptr ? "no faults injected" : "faults injected");
  std::printf("  phases   : initiation %.1f s, transfer %.1f s, activation %.1f s\n",
              rec.times.initiation_duration(), rec.times.transfer_duration(),
              rec.times.activation_duration());
  for (const migration::RoundInfo& r : rec.rounds) {
    std::printf("  round %2d : t=%8.1f s  %8.2f MB at %6.1f MB/s in %7.2f s%s\n", r.index,
                r.start, r.bytes / 1e6, r.bandwidth / 1e6, r.duration,
                r.stop_and_copy ? "  (stop-and-copy)" : "");
  }
  std::printf("  transfer : %.2f GB total, %d pre-copy rounds%s\n", rec.total_bytes / 1e9,
              rec.precopy_rounds,
              rec.degenerated_to_nonlive ? " (degenerated to non-live)" : "");
  std::printf("  downtime : %.2f s (mean VM performance %.0f%%)\n", rec.downtime,
              rec.vm_mean_performance * 100.0);
  std::printf("  outcome  : %s", migration::to_string(rec.outcome));
  if (rec.outcome != migration::MigrationOutcome::kCompleted) {
    std::printf(" — %s in %s phase, %.2f GB wasted", rec.failure_reason.c_str(),
                migration::to_string(rec.failure_phase), rec.wasted_bytes / 1e9);
  }
  std::puts("");

  if (!trace_path.empty() && !dump_chrome_trace(trace_path)) return 1;
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty() && !dump_global_metrics(metrics_path)) return 1;

  // Price the traffic when coefficients are available: on failure this
  // is the energy both hosts burned for nothing.
  if (args.has("coeffs")) {
    const core::Wavm3Model model =
        core::load_coefficients_csv(args.get("coeffs", "coeffs.csv"));
    if (!model.is_fitted()) {
      std::fprintf(stderr, "could not load coefficients\n");
      return 1;
    }
    core::MigrationForecast fc;
    fc.times = rec.times;
    fc.total_bytes = rec.total_bytes;
    fc.precopy_rounds = rec.precopy_rounds;
    fc.downtime = rec.downtime;
    fc.degenerated_to_nonlive = rec.degenerated_to_nonlive;
    fc.bandwidth = rec.total_bytes / std::max(1e-9, rec.times.transfer_duration());
    core::attach_energy(model, sc, fc);
    std::printf("  energy   : source %.1f kJ + target %.1f kJ = %.1f kJ%s\n",
                fc.source_energy / 1e3, fc.target_energy / 1e3, fc.total_energy() / 1e3,
                rec.outcome == migration::MigrationOutcome::kCompleted ? ""
                                                                       : " (wasted)");
  }

  // --emit-samples FILE: dump the 2 Hz per-role sample stream this run
  // produced, as a dataset CSV ready for `wavm3 stream-replay`.
  const std::string samples_path = args.get("emit-samples", "");
  if (!samples_path.empty()) {
    core::Wavm3Model model;  // unfitted -> power column stays 0
    if (args.has("coeffs")) {
      model = core::load_coefficients_csv(args.get("coeffs", "coeffs.csv"));
    }
    const models::Dataset stream_ds = samples_from_record(sc, rec, model);
    if (!models::save_dataset_csv(stream_ds, samples_path)) {
      std::fprintf(stderr, "cannot write %s\n", samples_path.c_str());
      return 1;
    }
    std::printf("  samples  : wrote %zu 2 Hz samples per role to %s\n",
                stream_ds.observations.front().samples.size(), samples_path.c_str());
  }
  return 0;
}

int cmd_tables(const Args& args) {
  util::set_log_level(util::LogLevel::kWarn);
  const exp::CampaignOptions options =
      args.has("fast") ? exp::fast_campaign_options() : exp::paper_campaign_options();
  const exp::Testbed tb_m = exp::testbed_m();
  const exp::Testbed tb_o = exp::testbed_o();
  const auto campaign_m = exp::run_campaign(tb_m, options, args.get_seed());
  const auto campaign_o = exp::run_campaign(tb_o, options, args.get_seed() + 1);
  const auto [train, test] = campaign_m.dataset.split_stratified(0.2, args.get_seed());

  core::Wavm3Model wavm3;
  wavm3.fit(train);
  core::Wavm3Model wavm3_o;
  wavm3_o.fit(train);
  core::transfer_bias(wavm3_o, train, campaign_o.dataset);
  models::HuangModel huang;
  huang.fit(train);
  models::LiuModel liu;
  liu.fit(train);
  models::StrunkModel strunk;
  strunk.fit(train);

  std::puts(exp::render_table1_workload_impact().c_str());
  std::puts(exp::render_table2_setup(tb_m, tb_o).c_str());
  std::puts(exp::render_coefficients_table(wavm3, migration::MigrationType::kNonLive,
                                           campaign_m.measured_idle_power,
                                           campaign_o.measured_idle_power,
                                           "Table III: coefficients for non-live migration")
                .c_str());
  std::puts(exp::render_coefficients_table(wavm3, migration::MigrationType::kLive,
                                           campaign_m.measured_idle_power,
                                           campaign_o.measured_idle_power,
                                           "Table IV: coefficients for live migration")
                .c_str());
  const auto rows_m = models::evaluate_models({&wavm3, &huang, &liu, &strunk}, test);
  const auto rows_o = models::evaluate_model(wavm3_o, campaign_o.dataset);
  std::puts(exp::render_table5_nrmse(rows_m, rows_o).c_str());
  std::puts(exp::render_table6_baselines(huang, liu, strunk).c_str());
  std::puts(exp::render_table7_comparison(rows_m).c_str());
  return 0;
}

int cmd_report(const Args& args) {
  // Writes a self-contained markdown reproduction report: every paper
  // table, the phase-level accuracy, and the campaign summaries.
  const std::string out_path = args.get("out", "wavm3_report.md");
  const exp::CampaignOptions options =
      args.has("fast") ? exp::fast_campaign_options() : exp::paper_campaign_options();
  const exp::Testbed tb_m = exp::testbed_m();
  const exp::Testbed tb_o = exp::testbed_o();
  const auto campaign_m = exp::run_campaign(tb_m, options, args.get_seed());
  const auto campaign_o = exp::run_campaign(tb_o, options, args.get_seed() + 1);
  const auto [train, test] = campaign_m.dataset.split_stratified(0.2, args.get_seed());

  core::Wavm3Model wavm3;
  wavm3.fit(train);
  core::Wavm3Model wavm3_o;
  wavm3_o.fit(train);
  core::transfer_bias(wavm3_o, train, campaign_o.dataset);
  models::HuangModel huang;
  huang.fit(train);
  models::LiuModel liu;
  liu.fit(train);
  models::StrunkModel strunk;
  strunk.fit(train);
  const auto rows_m = models::evaluate_models({&wavm3, &huang, &liu, &strunk}, test);
  const auto rows_o = models::evaluate_model(wavm3_o, campaign_o.dataset);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const auto block = [&out](const std::string& title, const std::string& body) {
    out << "## " << title << "\n\n```\n" << body << "```\n\n";
  };
  out << "# WAVM3 reproduction report\n\n"
      << "Seed " << args.get_seed() << "; campaign: "
      << campaign_m.summaries.size() << " scenarios per testbed, "
      << campaign_m.dataset.size() << " observations on m01-m02, "
      << campaign_o.dataset.size() << " on o1-o2.\n\n";
  block("Table I", exp::render_table1_workload_impact());
  block("Table II", exp::render_table2_setup(tb_m, tb_o));
  block("Table III (non-live coefficients)",
        exp::render_coefficients_table(wavm3, migration::MigrationType::kNonLive,
                                       campaign_m.measured_idle_power,
                                       campaign_o.measured_idle_power, ""));
  block("Table IV (live coefficients)",
        exp::render_coefficients_table(wavm3, migration::MigrationType::kLive,
                                       campaign_m.measured_idle_power,
                                       campaign_o.measured_idle_power, ""));
  block("Table V (NRMSE, both testbeds)", exp::render_table5_nrmse(rows_m, rows_o));
  block("Table VI (baseline coefficients)",
        exp::render_table6_baselines(huang, liu, strunk));
  block("Table VII (model comparison)", exp::render_table7_comparison(rows_m));
  block("Phase-level accuracy",
        exp::render_phase_accuracy_table(core::evaluate_phase_energies(wavm3, test)));
  block("Per-phase energies (SV-B metrics)", exp::render_phase_energy_table(campaign_m));
  block("Campaign summary (m01-m02)", exp::render_campaign_summary(campaign_m));
  block("Campaign summary (o1-o2)", exp::render_campaign_summary(campaign_o));
  out.close();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int cmd_simulate(const Args& args) {
  // Closed-loop fleet simulation comparing consolidation strategies.
  const std::string trace_path = trace_out_path(args);
  if (!trace_path.empty()) obs::tracer().set_enabled(true);
  const int hosts = static_cast<int>(args.get_int("hosts", 6));
  const int vms = static_cast<int>(args.get_int("vms", 16));
  const double hours = args.get_double("hours", 12.0);
  const double horizon = args.get_double("horizon", 7200.0);

  const exp::Testbed testbed = testbed_by_name(args.get("testbed", "m"));
  exp::CampaignOptions options = exp::fast_campaign_options();
  const exp::CampaignResult campaign = exp::run_campaign(testbed, options, args.get_seed());
  core::Wavm3Model model;
  model.fit(campaign.dataset);

  std::printf("%-18s %14s %12s %10s %10s %14s\n", "strategy", "energy [kWh]", "migrations",
              "hosts off", "rejected", "downtime [s]");
  for (const dcsim::Strategy strategy :
       {dcsim::Strategy::kNoConsolidation, dcsim::Strategy::kCostBlind,
        dcsim::Strategy::kCostAware}) {
    dcsim::DcSimConfig cfg = dcsim::make_fleet_scenario(hosts, vms, args.get_seed());
    cfg.duration = hours * 3600.0;
    cfg.strategy = strategy;
    cfg.policy.horizon_seconds = horizon;
    dcsim::DataCenterSimulation sim(
        cfg, strategy == dcsim::Strategy::kNoConsolidation ? nullptr : &model);
    const dcsim::DcSimReport r = sim.run();
    std::printf("%-18s %14.2f %12d %10d %10d %14.1f\n", to_string(strategy),
                r.total_energy_joules / 3.6e6, r.migrations_executed, r.power_off_events,
                r.plans_rejected_by_cost, r.total_migration_downtime);
  }
  if (!trace_path.empty() && !dump_chrome_trace(trace_path)) return 1;
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty() && !dump_global_metrics(metrics_path)) return 1;
  return 0;
}

/// Coefficients from --coeffs, else a fit on a fast simulated campaign
/// of --testbed (announced on stdout, with the log quieted, when
/// `announce_fit`). Returns 0, or the exit status after printing why not.
int load_model(const Args& args, core::Wavm3Model& model, bool announce_fit) {
  if (args.has("coeffs")) {
    model = core::load_coefficients_csv(args.get("coeffs", ""));
    if (!model.is_fitted()) {
      std::fprintf(stderr, "could not load coefficients\n");
      return 1;
    }
    return 0;
  }
  if (announce_fit) {
    util::set_log_level(util::LogLevel::kWarn);
    std::puts("no --coeffs given; fitting on a fast simulated campaign...");
  }
  model.fit(exp::run_campaign(testbed_by_name(args.get("testbed", "m")),
                              exp::fast_campaign_options(), args.get_seed())
                .dataset);
  return 0;
}

/// The inputs `plan` and `chaos` share: coefficients (load_model), the
/// fleet (--fleet-hosts/--fleet-vms CSVs, else synthetic), the
/// --strategy, and the end of the sampled histories.
struct FleetInputs {
  core::Wavm3Model model;
  plan::Fleet fleet;
  std::unique_ptr<plan::PlacementStrategy> strategy;
  double now = 0.0;
};

/// Fills `in` from `args`; returns 0, or the exit status after printing
/// why not.
int load_fleet_inputs(const Args& args, FleetInputs& in) {
  if (const int status = load_model(args, in.model, /*announce_fit=*/false); status != 0) {
    return status;
  }

  if (args.has("fleet-hosts") || args.has("fleet-vms")) {
    std::ifstream hosts_csv(args.get("fleet-hosts", "hosts.csv"));
    std::ifstream vms_csv(args.get("fleet-vms", "vms.csv"));
    if (!hosts_csv || !vms_csv) {
      std::fprintf(stderr, "could not open --fleet-hosts / --fleet-vms\n");
      return 1;
    }
    in.fleet = plan::Fleet::from_csv(hosts_csv, vms_csv);
  } else {
    const int hosts = static_cast<int>(args.get_int("hosts", 64));
    const int vms = static_cast<int>(args.get_int("vms", 10 * hosts));
    in.fleet = plan::Fleet::synthetic(hosts, vms, args.get_seed());
  }

  const std::string strategy_name = args.get("strategy", "beam");
  if (strategy_name == "beam") {
    in.strategy = std::make_unique<plan::BeamSearchStrategy>();
  } else if (strategy_name == "first-fit") {
    in.strategy = std::make_unique<plan::FirstFitStrategy>();
  } else {
    std::fprintf(stderr, "unknown --strategy '%s' (expected first-fit|beam)\n",
                 strategy_name.c_str());
    return 2;
  }

  in.now = in.fleet.history_end();
  return 0;
}

int cmd_plan(const Args& args) {
  // Datacenter-scale consolidation planning over a Fleet snapshot:
  // rolling waves of energy-priced, cycle-scheduled migrations.
  const std::string trace_path = trace_out_path(args);
  if (!trace_path.empty()) obs::tracer().set_enabled(true);

  FleetInputs in;
  if (const int status = load_fleet_inputs(args, in); status != 0) return status;

  plan::PlannerConfig cfg;
  cfg.policy.horizon_seconds = args.get_double("horizon", cfg.policy.horizon_seconds);
  cfg.candidate_targets =
      static_cast<int>(args.get_int("candidate-targets", cfg.candidate_targets));
  cfg.max_donors_per_wave =
      static_cast<int>(args.get_int("max-donors", cfg.max_donors_per_wave));
  cfg.beam_width = static_cast<int>(args.get_int("beam-width", cfg.beam_width));
  cfg.wave_horizon_s = args.get_double("wave-horizon", cfg.wave_horizon_s);
  if (args.has("no-cycles")) cfg.cycle_aware = false;

  // Plan from the end of the sampled histories, one wave per workload
  // period, committing each so later waves see the consolidated in.fleet.
  const double now = in.now;
  const int waves = static_cast<int>(args.get_int("waves", 1));
  plan::MigrationPlanner planner(in.model, cfg);

  std::printf("planning %d wave(s) over %zu hosts / %zu VMs (%s, cycles %s)\n\n",
              waves, in.fleet.host_count(), in.fleet.vm_count(), in.strategy->name(),
              cfg.cycle_aware ? "on" : "off");
  std::printf("%6s %12s %12s %12s %10s %6s %8s %8s\n", "wave", "migr [kJ]",
              "saving [kJ]", "net [kJ]", "downtime", "moves", "vacated", "aligned");
  for (int w = 0; w < waves; ++w) {
    const plan::WavePlan p =
        planner.plan_wave(in.fleet, *in.strategy, now + w * cfg.wave_horizon_s);
    std::printf("%6d %12.1f %12.1f %12.1f %9.2fs %6zu %8d %8d\n", w,
                p.total_migration_energy_j / 1e3, p.steady_saving_j / 1e3,
                (p.total_migration_energy_j - p.steady_saving_j) / 1e3,
                p.total_downtime_s, p.moves.size(), p.donors_vacated,
                p.moves_cycle_aligned);
    if (args.has("verbose")) {
      for (const plan::ScheduledMove& m : p.moves) {
        std::printf("    %-14s %-12s -> %-12s start %10.1f  %8.2f kJ%s\n",
                    in.fleet.vm(m.vm).id.c_str(), in.fleet.host(m.source).spec.name.c_str(),
                    in.fleet.host(m.target).spec.name.c_str(), m.start_s,
                    m.energy_j / 1e3, m.cycle_aligned ? "  (low window)" : "");
      }
    }
  }
  int powered = 0;
  for (const plan::FleetHost& h : in.fleet.hosts()) powered += h.powered_on ? 1 : 0;
  std::printf("\n%d/%zu hosts powered after the last wave\n", powered,
              in.fleet.host_count());

  if (!trace_path.empty() && !dump_chrome_trace(trace_path)) return 1;
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty() && !dump_global_metrics(metrics_path)) return 1;
  return 0;
}

int cmd_chaos(const Args& args) {
  // Closed-loop plan -> execute -> replan over a Fleet snapshot under
  // a deterministic per-wave fault storm (src/chaos/).
  const std::string trace_path = trace_out_path(args);
  if (!trace_path.empty()) obs::tracer().set_enabled(true);

  FleetInputs in;
  if (const int status = load_fleet_inputs(args, in); status != 0) return status;

  chaos::ChaosConfig cfg;
  cfg.storm.level = static_cast<int>(args.get_int("storm", cfg.storm.level));
  cfg.storm_seed = static_cast<std::uint64_t>(args.get_int("seed", 2015));
  cfg.max_waves = static_cast<int>(args.get_int("waves", cfg.max_waves));
  cfg.replan.retry_budget =
      static_cast<int>(args.get_int("retry-budget", cfg.replan.retry_budget));
  cfg.wave_gap_s = args.get_double("wave-gap", cfg.wave_gap_s);
  if (args.has("no-relief")) cfg.relief_enabled = false;
  if (args.has("no-faults")) cfg.faults_enabled = false;
  cfg.planner.beam_width =
      static_cast<int>(args.get_int("beam-width", cfg.planner.beam_width));

  std::printf("chaos loop over %zu hosts / %zu VMs (%s, storm level %d, seed %llu, "
              "relief %s)\n\n",
              in.fleet.host_count(), in.fleet.vm_count(), in.strategy->name(), cfg.storm.level,
              static_cast<unsigned long long>(cfg.storm_seed),
              cfg.relief_enabled ? "on" : "off");

  chaos::WaveExecutor exec(in.model, cfg);
  const chaos::ChaosReport report = exec.run(in.fleet, *in.strategy, in.now);

  std::printf("%5s %7s %7s %6s %6s %7s %7s %5s %5s %5s %5s\n", "wave", "planned",
              "relief", "retry", "done", "rolled", "vmlost", "defer", "shed",
              "viol", "deg");
  for (const chaos::WaveOutcome& w : report.waves) {
    std::printf("%5d %7d %7d %6d %6d %7d %7d %5d %5d %5zu %5s\n", w.wave,
                w.planned_moves, w.relief_moves, w.retries_attempted, w.completed,
                w.rolled_back, w.vm_lost, w.deferred, w.shed, w.violations.size(),
                w.degraded ? "yes" : "no");
    if (args.has("verbose")) {
      for (const chaos::InvariantViolation& v : w.violations) {
        std::printf("    VIOLATION [%s] %s\n", v.check.c_str(), v.detail.c_str());
      }
    }
  }
  std::printf("\nresolution %.4f (%d placed + %d replanned of %d planned), "
              "%d unresolved, %d violations, %s after %zu wave(s)\n",
              report.resolution_fraction, report.resolved_placed,
              report.resolved_replanned, report.moves_planned, report.unresolved,
              report.invariant_violations,
              report.terminal ? "quiescent" : "wave budget exhausted",
              report.waves.size());
  std::printf("ledger: planned %.1f kJ = committed %.1f kJ + refunded %.1f kJ "
              "(+ outstanding %.1f kJ); wasted %.1f kJ on aborted attempts\n",
              report.ledger.planned_j / 1e3, report.ledger.committed_j / 1e3,
              report.ledger.refunded_j / 1e3, report.ledger.outstanding_j / 1e3,
              report.ledger.wasted_j / 1e3);
  int powered = 0;
  for (const plan::FleetHost& h : in.fleet.hosts()) powered += h.powered_on ? 1 : 0;
  std::printf("%d/%zu hosts powered after the last wave\n", powered,
              in.fleet.host_count());

  if (!trace_path.empty() && !dump_chrome_trace(trace_path)) return 1;
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty() && !dump_global_metrics(metrics_path)) return 1;
  return report.invariant_violations == 0 ? 0 : 1;
}

int cmd_serve_bench(const Args& args) {
  // Load-tests the in-process prediction service (src/serve/) with a
  // synthetic consolidation-round query stream and prints its metrics.
  const std::string trace_path = trace_out_path(args);
  if (!trace_path.empty()) obs::tracer().set_enabled(true);
  core::Wavm3Model model;
  if (const int status = load_model(args, model, /*announce_fit=*/true); status != 0) {
    return status;
  }

  serve::ServiceConfig cfg;
  cfg.threads = static_cast<int>(args.get_int("threads", 4));
  cfg.queue_capacity = static_cast<std::size_t>(args.get_int("queue", 1024));
  cfg.cache_capacity = static_cast<std::size_t>(args.get_int("cache-capacity", 4096));
  cfg.cache_shards = static_cast<std::size_t>(args.get_int("cache-shards", 8));
  cfg.quantization_step = args.get_double("quantization", 0.0);
  const std::string fidelity = args.get("fidelity", "closed");
  if (fidelity == "sim") {
    cfg.fidelity = serve::Fidelity::kSimulated;
  } else if (fidelity != "closed") {
    std::fprintf(stderr, "unknown --fidelity '%s' (expected closed|sim)\n",
                 fidelity.c_str());
    return 2;
  }
  // Degradation-ladder knobs. --fail-backend swaps in a sim backend
  // that always throws: the breaker should trip open and every request
  // still be answered (closed-form) with zero crashes.
  cfg.default_deadline_s = args.get_double("deadline-ms", 0.0) / 1e3;
  cfg.backend_max_retries = static_cast<int>(args.get_int("retries", 2));
  cfg.degrade_to_closed_form = !args.has("no-degrade");
  cfg.breaker.failure_threshold =
      static_cast<int>(args.get_int("breaker-threshold", 5));
  cfg.breaker.open_duration_s = args.get_double("breaker-open-ms", 5000.0) / 1e3;
  if (args.has("fail-backend")) {
    cfg.fidelity = serve::Fidelity::kSimulated;
    cfg.simulated_backend = [](const core::Wavm3Model&,
                               const core::MigrationScenario&) -> core::MigrationForecast {
      throw std::runtime_error("injected backend failure");
    };
  }

  serve::QueryStreamOptions qopts;
  qopts.repeat_fraction = args.get_double("repeat-fraction", 0.9);
  const long total = args.get_int("requests", 20000);
  const long batch = std::max(1L, args.get_int("batch", 64));
  const long reloads = args.get_int("reloads", 2);

  serve::PredictionService service(model, cfg);
  serve::QueryStreamGenerator stream =
      serve::QueryStreamGenerator::diurnal(qopts, args.get_seed());

  // --recalibrate closes the loop: the src/calib/ recalibrator is
  // attached as the service's feedback sink and every served scenario
  // is reported back as "observed" energy — the model's own forecast
  // plus --feedback-bias watts of systematic error — so drift
  // detection, gated swaps, and the rollback watch run live under the
  // bench load.
  std::shared_ptr<calib::OnlineRecalibrator> recalibrator;
  const double feedback_bias = args.get_double("feedback-bias", 12.0);
  const core::MigrationPlanner feedback_truth(model);
  if (args.has("recalibrate")) {
    calib::RecalibratorConfig rcfg;
    rcfg.pass_interval_samples =
        static_cast<std::size_t>(args.get_int("pass-interval", 64));
    rcfg.drift.bias_threshold_watts = args.get_double("bias-threshold", 2.0);
    recalibrator = calib::attach(service, rcfg);
  }

  std::printf("serving %ld requests (batch %ld) on %d threads; cache %zu entries%s, "
              "repeat fraction %.0f%%, fidelity %s\n",
              total, batch, cfg.threads, cfg.cache_capacity,
              cfg.cache_capacity == 0 ? " (off)" : "", qopts.repeat_fraction * 100,
              cfg.fidelity == serve::Fidelity::kSimulated ? "simulated" : "closed-form");

  // Under injected faults, failed requests must be counted, not
  // allowed to abort the bench: fan out manually so each future's
  // exception is caught on its own.
  const bool count_failures = args.has("fail-backend") || args.has("no-degrade") ||
                              cfg.default_deadline_s > 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  double energy_checksum = 0.0;
  long done = 0;
  long crashed = 0;
  long next_reload = reloads > 0 ? total / (reloads + 1) : total + 1;
  while (done < total) {
    const auto scenarios =
        stream.generate(static_cast<std::size_t>(std::min(batch, total - done)));
    if (count_failures) {
      std::vector<std::future<core::MigrationForecast>> futures;
      futures.reserve(scenarios.size());
      for (const core::MigrationScenario& sc : scenarios)
        futures.push_back(service.submit(sc));
      for (auto& f : futures) {
        try {
          energy_checksum += f.get().total_energy();
        } catch (const std::exception&) {
          ++crashed;
        }
      }
    } else {
      for (const core::MigrationForecast& fc : service.predict_batch(scenarios)) {
        energy_checksum += fc.total_energy();
      }
    }
    if (recalibrator) {
      for (const core::MigrationScenario& sc : scenarios) {
        const core::MigrationForecast fc = feedback_truth.forecast(sc);
        const double dur = fc.times.me - fc.times.ms;
        serve::MigrationFeedback fb;
        fb.source_energy_j = fc.source_energy + feedback_bias * dur;
        fb.target_energy_j = fc.target_energy + feedback_bias * dur;
        fb.duration_s = dur;
        service.record_feedback(sc, fb);  // queue-full drops are counted
      }
    }
    done += static_cast<long>(scenarios.size());
    if (done >= next_reload && next_reload <= total) {
      // Hot-swap the coefficients mid-stream (a recalibration event);
      // in-flight predictions are never blocked, cached results from
      // the old version are retired by the version-keyed cache.
      service.swap_model(std::make_shared<const core::Wavm3Model>(model));
      next_reload += total / (reloads + 1);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::puts("");
  std::fputs(service.metrics_table().c_str(), stdout);
  std::printf("\nstream   : %ld requests in %.2f s -> %.0f predictions/s\n", total, elapsed,
              static_cast<double>(total) / std::max(1e-9, elapsed));
  std::printf("checksum : total predicted energy %.3f MJ\n", energy_checksum / 1e6);
  if (count_failures) {
    std::printf("failed   : %ld of %ld requests raised (degradation %s)\n", crashed, total,
                cfg.degrade_to_closed_form ? "on" : "off");
  }
  if (recalibrator) {
    const calib::RecalibrationStats cs = recalibrator->stats();
    std::printf("recalib  : %llu samples in, %llu drift trips, %llu swaps, "
                "%llu rollbacks (model now v%llu)\n",
                static_cast<unsigned long long>(cs.samples_accepted),
                static_cast<unsigned long long>(cs.drift_trips),
                static_cast<unsigned long long>(cs.swaps),
                static_cast<unsigned long long>(cs.rollbacks),
                static_cast<unsigned long long>(service.model_version()));
  }
  // Machine-readable output goes to files so stdout stays human-only.
  // Format follows the extension: .json -> JSON snapshot, anything
  // else -> Prometheus text.
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty()) {
    const std::string body = metrics_path.ends_with(".json") ? service.metrics_json()
                                                             : service.metrics_prometheus();
    if (!write_text_file(metrics_path, body)) return 1;
    std::fprintf(stderr, "wrote %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty() && !dump_chrome_trace(trace_path)) return 1;
  return 0;
}

int cmd_fleet_bench(const Args& args) {
  // Sharded fleet serving demo (src/rpc/): N loopback nodes behind the
  // consistent-hash FleetClient, driven by a Zipf-skewed scenario mix,
  // with mid-run epoch publishes and (optionally) a seeded node-loss
  // storm. Prints routed-predict latency percentiles, failover counts
  // and the epoch propagation outcome.
  core::Wavm3Model model;
  if (const int status = load_model(args, model, /*announce_fit=*/true); status != 0) {
    return status;
  }

  const auto positive = [&args](const char* key, long fallback) {
    const long v = args.get_int(key, fallback);
    if (v < 1) {
      std::fprintf(stderr, "--%s must be positive, got %ld\n", key, v);
      std::exit(2);
    }
    return v;
  };
  const int node_count = static_cast<int>(positive("nodes", 4));
  const std::size_t replicas = static_cast<std::size_t>(positive("replicas", 2));
  const long requests = positive("requests", 8000);
  const int threads = static_cast<int>(positive("threads", 1));
  const int publishes = static_cast<int>(
      std::max(0L, args.get_int("publishes", 3)));
  const bool node_loss = args.has("node-loss");
  const std::uint64_t seed = args.get_seed();

  obs::MetricRegistry registry;
  rpc::LoopbackTransport transport(seed);
  const auto shared = std::make_shared<const core::Wavm3Model>(model);
  std::vector<std::unique_ptr<rpc::FleetNode>> nodes;
  for (int n = 0; n < node_count; ++n) {
    rpc::FleetNodeConfig ncfg;
    ncfg.node_id = n;
    ncfg.registry = &registry;
    ncfg.service.threads = threads;
    ncfg.service.fidelity = serve::Fidelity::kClosedForm;
    nodes.push_back(std::make_unique<rpc::FleetNode>(shared, ncfg));
    transport.register_node(n, nodes.back().get());
  }
  rpc::FleetClientConfig ccfg;
  ccfg.replication = replicas;
  ccfg.registry = &registry;
  ccfg.breaker.failure_threshold = 3;
  ccfg.breaker.open_duration_s = 1e-4;
  rpc::FleetClient client(transport, ccfg);
  for (int n = 0; n < node_count; ++n) client.add_node(n);

  // Virtual 10 s timeline: request i arrives at t = i/requests * 10.
  const double horizon_s = 10.0;
  faults::NodeOutagePlan plan;
  if (node_loss) {
    faults::NodeOutageOptions storm;
    storm.horizon_s = horizon_s;
    storm.outages_per_node = 2;
    storm.min_down_s = 0.4;
    storm.max_down_s = 1.2;
    storm.max_concurrent_down = 1;
    plan = faults::NodeOutagePlan::random(node_count, storm, seed);
  }

  // Zipf-skewed popularity over a 64-entry catalogue drawn from the
  // diurnal workload generator.
  serve::QueryStreamOptions qopts;
  qopts.repeat_fraction = 0.0;
  serve::QueryStreamGenerator stream =
      serve::QueryStreamGenerator::diurnal(qopts, seed);
  const std::vector<core::MigrationScenario> catalogue = stream.generate(64);
  std::vector<double> cdf(catalogue.size());
  double total = 0.0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  util::RngStream zipf(seed + 7);

  std::printf("fleet-bench: %d nodes, replication %zu, %ld requests, "
              "%d publishes, node loss %s, seed %llu\n\n",
              node_count, replicas, requests, publishes,
              node_loss ? "on" : "off", static_cast<unsigned long long>(seed));

  std::vector<double> latency_ns;
  latency_ns.reserve(static_cast<std::size_t>(requests));
  long errors = 0;
  int published = 0;
  int converged = 0;
  for (long i = 0; i < requests; ++i) {
    const double t = horizon_s * static_cast<double>(i) / static_cast<double>(requests);
    for (int n = 0; n < node_count; ++n) transport.set_down(n, plan.down(n, t));
    if (publishes > 0 && i == (published + 1) * requests / (publishes + 1)) {
      const rpc::PublishReport report = client.publish(model);
      ++published;
      if (report.converged) ++converged;
    }
    const double u = zipf.uniform();
    const std::size_t pick = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)client.predict(catalogue[pick]);
      latency_ns.push_back(std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    } catch (const std::exception&) {
      ++errors;
    }
  }
  for (int n = 0; n < node_count; ++n) transport.set_down(n, false);
  if (publishes > 0) {
    const rpc::PublishReport last = client.publish(model);
    ++published;
    if (last.converged) ++converged;
  }

  std::sort(latency_ns.begin(), latency_ns.end());
  const auto pct = [&](double p) {
    if (latency_ns.empty()) return 0.0;
    const double idx = p * static_cast<double>(latency_ns.size() - 1);
    return latency_ns[static_cast<std::size_t>(idx + 0.5)] / 1e3;
  };
  const rpc::FleetStatus status = client.status();
  std::printf("answered %zu / %ld (%ld errors), failovers %llu\n",
              latency_ns.size(), requests, errors,
              static_cast<unsigned long long>(client.failovers()));
  std::printf("latency : p50 %.1f us, p99 %.1f us, p999 %.1f us\n", pct(0.50),
              pct(0.99), pct(0.999));
  std::printf("epochs  : %d publishes, %d converged, fleet epoch %llu, lag %llu\n",
              published, converged,
              static_cast<unsigned long long>(client.committed_epoch()),
              static_cast<unsigned long long>(status.epoch_lag));
  for (const rpc::NodeStatus& ns : status.nodes) {
    std::printf("node %-3d: %s, epoch %llu, served %llu\n", ns.node,
                ns.reachable ? "up" : "DOWN",
                static_cast<unsigned long long>(ns.status.committed_epoch),
                static_cast<unsigned long long>(ns.status.requests_served));
  }
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty()) {
    if (!write_text_file(metrics_path, obs::prometheus_text(registry))) return 1;
    std::fprintf(stderr, "wrote %s\n", metrics_path.c_str());
  }
  return 0;
}

int cmd_recalibrate(const Args& args) {
  // Offline demonstration of the online recalibration loop
  // (src/calib/): streams synthetic migration feedback against a
  // coefficient store, switches a constant-power bias error on
  // mid-stream, and reports how drift detection, shadow-gated swaps,
  // and the rollback watch drive serving NRMSE back to the noise
  // floor. With --out the recovered coefficient table is saved for
  // `predict` / `serve-bench`.
  core::Wavm3Model model;
  if (const int status = load_model(args, model, /*announce_fit=*/true); status != 0) {
    return status;
  }

  const long samples = std::max(1L, args.get_int("samples", 800));
  const long shift_at = args.get_int("shift-at", samples * 3 / 8);
  const double bias_watts = args.get_double("bias-watts", 18.0);
  const double noise = args.get_double("noise", 0.04);

  serve::CoefficientStore store(model);
  obs::MetricRegistry registry;
  calib::RecalibratorConfig cfg;
  cfg.registry = &registry;
  cfg.window_capacity = static_cast<std::size_t>(args.get_int("window", 128));
  cfg.pass_interval_samples =
      static_cast<std::size_t>(args.get_int("pass-interval", 32));
  cfg.drift.nrmse_threshold =
      args.get_double("nrmse-threshold", cfg.drift.nrmse_threshold);
  cfg.drift.bias_threshold_watts = args.get_double("bias-threshold", 2.0);
  cfg.drift.min_samples = static_cast<std::size_t>(
      args.get_int("drift-min-samples", static_cast<long>(cfg.drift.min_samples)));
  cfg.min_improvement = args.get_double("min-improvement", cfg.min_improvement);
  cfg.cooldown_samples = static_cast<std::size_t>(
      args.get_int("cooldown", static_cast<long>(cfg.cooldown_samples)));
  calib::OnlineRecalibrator rec(store, cfg);

  const core::MigrationPlanner truth(model);
  serve::QueryStreamOptions qopts;
  qopts.repeat_fraction = 0.0;  // feedback wants fresh scenarios, not cache hits
  serve::QueryStreamGenerator stream =
      serve::QueryStreamGenerator::diurnal(qopts, args.get_seed());
  util::RngStream noise_rng(args.get_seed() + 1);

  const auto observe = [&](const core::MigrationScenario& sc, double bias) {
    const core::MigrationForecast fc = truth.forecast(sc);
    const double dur = fc.times.me - fc.times.ms;
    serve::MigrationFeedback fb;
    fb.source_energy_j =
        (fc.source_energy + bias * dur) * (1.0 + noise_rng.uniform(-noise, noise));
    fb.target_energy_j =
        (fc.target_energy + bias * dur) * (1.0 + noise_rng.uniform(-noise, noise));
    fb.duration_s = dur;
    return fb;
  };

  std::printf("streaming %ld feedback samples; +%.1f W bias switches on after "
              "sample %ld (noise +/-%.0f%%)\n\n",
              samples, bias_watts, shift_at, noise * 100.0);
  std::printf("%8s %10s %8s %6s %6s %10s\n", "sample", "nrmse", "version", "swaps",
              "rolls", "phase");
  const long checkpoint_every = std::max(1L, samples / 12);
  for (long i = 1; i <= samples; ++i) {
    const double bias = i > shift_at ? bias_watts : 0.0;
    const auto scenarios = stream.generate(1);
    rec.record(scenarios[0], observe(scenarios[0], bias));
    if (i % checkpoint_every == 0 || i == samples) {
      // Serving NRMSE measured independently of the loop's own
      // windows: fresh scenarios forecast against the store's current
      // snapshot, observed through the same truth-plus-bias process.
      const auto snap = store.snapshot();
      const core::MigrationPlanner current(*snap.model);
      std::vector<double> predicted;
      std::vector<double> observed;
      for (const core::MigrationScenario& sc : stream.generate(128)) {
        const core::MigrationForecast fc = current.forecast(sc);
        const serve::MigrationFeedback fb = observe(sc, bias);
        predicted.push_back(fc.source_energy);
        observed.push_back(fb.source_energy_j);
        predicted.push_back(fc.target_energy);
        observed.push_back(fb.target_energy_j);
      }
      const std::optional<double> nrmse = stats::try_nrmse(predicted, observed);
      const calib::RecalibrationStats s = rec.stats();
      std::printf("%8ld %10.4f %8llu %6llu %6llu %10s\n", i, nrmse.value_or(0.0),
                  static_cast<unsigned long long>(store.version()),
                  static_cast<unsigned long long>(s.swaps),
                  static_cast<unsigned long long>(s.rollbacks),
                  i <= shift_at ? "baseline" : "shifted");
    }
  }

  const calib::RecalibrationStats s = rec.stats();
  std::printf("\naccepted %llu  rejected %llu  passes %llu  drift trips %llu  "
              "refits %llu\nswaps %llu  conflicts %llu  rollbacks %llu  "
              "candidates rejected %llu\n",
              static_cast<unsigned long long>(s.samples_accepted),
              static_cast<unsigned long long>(s.samples_rejected),
              static_cast<unsigned long long>(s.passes),
              static_cast<unsigned long long>(s.drift_trips),
              static_cast<unsigned long long>(s.refits),
              static_cast<unsigned long long>(s.swaps),
              static_cast<unsigned long long>(s.swap_conflicts),
              static_cast<unsigned long long>(s.rollbacks),
              static_cast<unsigned long long>(s.candidates_rejected));

  if (args.has("out")) {
    const auto snap = store.snapshot();
    if (!core::save_coefficients_csv(*snap.model, args.get("out", ""))) {
      std::fprintf(stderr, "could not write %s\n", args.get("out", "").c_str());
      return 1;
    }
    std::printf("wrote %s (model version %llu)\n", args.get("out", "").c_str(),
                static_cast<unsigned long long>(snap.version));
  }
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty()) {
    const std::string body = metrics_path.ends_with(".json")
                                 ? obs::json_snapshot(registry)
                                 : obs::prometheus_text(registry);
    if (!write_text_file(metrics_path, body)) return 1;
    std::fprintf(stderr, "wrote %s\n", metrics_path.c_str());
  }
  return 0;
}

int cmd_stream_replay(const Args& args) {
  // Replays one recorded observation through the serve streaming path
  // as if its samples were arriving live: open_stream -> submit_sample
  // (optionally paced against the wall clock) -> predict_live every
  // --predict-every samples -> finish and check the final revision
  // against the batch prediction (they must agree to ~1e-9: the same
  // aggregates price through the same predict_batch arithmetic).
  const std::string in = args.get("dataset", "dataset.csv");
  const models::Dataset dataset = models::load_dataset_csv(in);
  if (dataset.size() == 0) {
    std::fprintf(stderr, "no observations in %s\n", in.c_str());
    return 1;
  }
  const std::size_t index = static_cast<std::size_t>(
      std::max(0L, args.get_int("observation", 0)));
  if (index >= dataset.size()) {
    std::fprintf(stderr, "--observation %zu out of range (%zu observations)\n", index,
                 dataset.size());
    return 1;
  }
  const models::MigrationObservation& obs = dataset.observations[index];
  if (obs.samples.size() < 2) {
    std::fprintf(stderr, "observation %zu has too few samples to stream\n", index);
    return 1;
  }

  core::Wavm3Model model;
  if (args.has("coeffs")) {
    model = core::load_coefficients_csv(args.get("coeffs", "coeffs.csv"));
    if (!model.is_fitted()) {
      std::fprintf(stderr, "could not load coefficients\n");
      return 1;
    }
  } else {
    const auto [train, test] =
        dataset.split_stratified(args.get_double("train-fraction", 0.2), args.get_seed());
    model.fit(train);
  }

  serve::ServiceConfig config;
  config.threads = 2;
  config.stream.extractor.max_gap_s =
      args.get_double("max-gap", config.stream.extractor.max_gap_s);
  serve::PredictionService service(model, config);

  const double speedup = args.get_double("speedup", 0.0);  // <= 0: no pacing
  const std::size_t every =
      static_cast<std::size_t>(std::max(1L, args.get_int("predict-every", 8)));
  const std::uint64_t id = 1;
  service.open_stream(id, obs.type, obs.times);

  std::printf("streaming %s (%s, %s): %zu samples over %.1f s%s\n",
              obs.experiment.c_str(), migration::to_string(obs.type),
              models::to_string(obs.role), obs.samples.size(),
              obs.times.total_duration(),
              speedup > 0.0 ? util::format(", %.0fx speedup", speedup).c_str() : "");

  const double span_s = obs.times.total_duration();
  double prev_t = obs.samples.front().time;
  for (std::size_t i = 0; i < obs.samples.size(); ++i) {
    const models::MigrationSample& s = obs.samples[i];
    if (speedup > 0.0 && s.time > prev_t) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>((s.time - prev_t) / speedup));
    }
    prev_t = s.time;
    service.submit_sample(id, obs.role, s);
    if ((i + 1) % every == 0 || i + 1 == obs.samples.size()) {
      const stream::LiveForecast fc = service.predict_live(id);
      const stream::RoleForecast& rf =
          obs.role == models::HostRole::kSource ? fc.source : fc.target;
      const double frac =
          span_s > 0.0 ? std::clamp((s.time - obs.times.ms) / span_s, 0.0, 1.0) : 1.0;
      std::printf("  rev %3llu @ %5.1f%% : forecast %9.1f J = prefix %9.1f + rest %8.1f"
                  "  (conf %.2f/%.2f/%.2f)\n",
                  static_cast<unsigned long long>(fc.revision), frac * 100.0, rf.energy_j,
                  rf.observed_model_j, rf.remaining_j, rf.phase[0].confidence,
                  rf.phase[1].confidence, rf.phase[2].confidence);
    }
  }

  // Landed everywhere: the live forecast must now equal the batch path.
  service.stream_registry().find(id)->finish();
  const stream::LiveForecast final_fc = service.predict_live(id);
  const stream::RoleForecast& rf =
      obs.role == models::HostRole::kSource ? final_fc.source : final_fc.target;
  const models::FeatureBatch batch = models::FeatureBatch::of(obs);
  double batch_j = 0.0;
  model.predict_batch(batch, std::span<double>(&batch_j, 1));
  const double rel_err =
      std::abs(batch_j) > 0.0 ? std::abs(rf.energy_j - batch_j) / std::abs(batch_j) : 0.0;
  std::printf("  final @ 100.0%% : forecast %9.1f J  vs batch %9.1f J  (rel err %.2e)\n",
              rf.energy_j, batch_j, rel_err);
  std::printf("  observed energy: %9.1f J\n", obs.observed_energy());
  const auto report = service.close_stream(id);
  std::printf("  session: %llu samples, %llu revisions%s\n",
              static_cast<unsigned long long>(report.summary.source_samples +
                                              report.summary.target_samples),
              static_cast<unsigned long long>(report.summary.revisions),
              report.summary.degenerated ? ", degenerated" : "");
  return rel_err <= 1e-9 ? 0 : 1;
}

int cmd_help() {
  std::puts(
      "wavm3 - workload-aware VM migration energy model (CLUSTER'15 reproduction)\n"
      "\n"
      "subcommands:\n"
      "  campaign  --testbed m|o --out FILE [--fast] [--seed N]\n"
      "  fit       --dataset FILE --out FILE [--train-fraction F] [--seed N]\n"
      "  evaluate  --dataset FILE [--coeffs FILE] [--train-fraction F] [--seed N]\n"
      "  predict   --coeffs FILE [--type live|nonlive] [--mem-gb G] [--vm-cpu C]\n"
      "            [--dirty-pages-per-s R] [--working-set-fraction F]\n"
      "            [--source-load L] [--target-load L] [--capacity C] [--link-mbs B]\n"
      "  trace     [scenario flags as predict] [--coeffs FILE]\n"
      "            [--degrade-at T --degrade-until T --degrade-factor F]\n"
      "            [--stall-at T --stall-duration D] [--flap-at T --flap-until T]\n"
      "            [--overload-host src|tgt --overload-at T --overload-until T\n"
      "             --overload-vcpus N]\n"
      "            [--loss-at T | --loss-phase initiation|transfer --loss-offset T]\n"
      "            [--fault-random --fault-seed N --fault-horizon T\n"
      "             --loss-probability P]\n"
      "            [--chrome-trace FILE | --trace-out FILE] [--metrics-out FILE]\n"
      "            [--emit-samples FILE (2 Hz per-role sample stream, dataset CSV)]\n"
      "  stream-replay --dataset FILE [--coeffs FILE | --train-fraction F --seed N]\n"
      "            [--observation N] [--predict-every N] [--speedup X]\n"
      "            [--max-gap SECONDS]\n"
      "  tables    [--fast] [--seed N]\n"
      "  simulate  [--testbed m|o] [--hosts N] [--vms N] [--hours H]\n"
      "            [--horizon SECONDS] [--seed N]\n"
      "            [--trace-out FILE] [--metrics-out FILE]\n"
      "  plan      [--coeffs FILE | --testbed m|o] [--hosts N] [--vms N]\n"
      "            [--fleet-hosts FILE --fleet-vms FILE]\n"
      "            [--strategy first-fit|beam] [--waves N] [--beam-width N]\n"
      "            [--candidate-targets N] [--max-donors N] [--no-cycles]\n"
      "            [--horizon SECONDS] [--wave-horizon SECONDS] [--verbose]\n"
      "            [--seed N] [--trace-out FILE] [--metrics-out FILE]\n"
      "  chaos     [--coeffs FILE | --testbed m|o] [--hosts N] [--vms N]\n"
      "            [--fleet-hosts FILE --fleet-vms FILE]\n"
      "            [--storm LEVEL] [--seed N] [--waves N] [--retry-budget N]\n"
      "            [--strategy first-fit|beam] [--beam-width N] [--wave-gap SECONDS]\n"
      "            [--no-relief] [--no-faults] [--verbose]\n"
      "            [--trace-out FILE] [--metrics-out FILE]\n"
      "  serve-bench [--coeffs FILE | --testbed m|o] [--threads N] [--requests N]\n"
      "            [--batch N] [--cache-capacity N] [--cache-shards N]\n"
      "            [--quantization F] [--repeat-fraction F] [--queue N]\n"
      "            [--reloads N] [--fidelity closed|sim] [--seed N]\n"
      "            [--fail-backend] [--no-degrade] [--deadline-ms T] [--retries N]\n"
      "            [--breaker-threshold N] [--breaker-open-ms T]\n"
      "            [--recalibrate] [--feedback-bias W] [--pass-interval N]\n"
      "            [--bias-threshold W]\n"
      "            [--trace-out FILE] [--metrics-out FILE (.json|.prom)]\n"
      "  fleet-bench [--coeffs FILE | --testbed m|o] [--nodes N] [--replicas N]\n"
      "            [--requests N] [--threads N] [--publishes N] [--node-loss]\n"
      "            [--seed N] [--metrics-out FILE]\n"
      "  recalibrate [--coeffs FILE | --testbed m|o] [--samples N] [--shift-at N]\n"
      "            [--bias-watts W] [--noise F] [--window N] [--pass-interval N]\n"
      "            [--nrmse-threshold F] [--bias-threshold W] [--drift-min-samples N]\n"
      "            [--min-improvement F] [--cooldown N] [--seed N]\n"
      "            [--out FILE] [--metrics-out FILE (.json|.prom)]\n"
      "  report    [--out FILE] [--fast] [--seed N]\n"
      "  help\n");
  return 0;
}

/// Flag sets shared by several subcommands.
enum FlagGroup : unsigned {
  kScenarioFlags = 1u << 0,  ///< scenario_from_args
  kFaultFlags = 1u << 1,     ///< fault_plan_from_args
  kTraceOutFlags = 1u << 2,  ///< trace_out_path
};

/// One subcommand: its handler and every flag it reads, as listed in
/// cmd_help(). main() refuses any other flag, so a typo fails loudly
/// instead of silently running with the default.
struct Subcommand {
  const char* name;
  int (*run)(const Args&);
  unsigned groups;
  std::vector<std::string_view> flags;

  bool accepts(std::string_view flag) const {
    static constexpr std::string_view kScenario[] = {
        "type", "mem-gb", "vm-cpu", "dirty-pages-per-s", "working-set-fraction",
        "source-load", "target-load", "capacity", "link-mbs"};
    static constexpr std::string_view kFaults[] = {
        "degrade-at", "degrade-until", "degrade-factor", "stall-at", "stall-duration",
        "flap-at", "flap-until", "overload-host", "overload-at", "overload-until",
        "overload-vcpus", "loss-at", "loss-phase", "loss-offset", "fault-random",
        "fault-seed", "fault-horizon", "loss-probability"};
    static constexpr std::string_view kTraceOut[] = {"trace-out", "chrome-trace"};
    const auto in = [flag](const auto& list) {
      return std::find(std::begin(list), std::end(list), flag) != std::end(list);
    };
    return in(flags) || ((groups & kScenarioFlags) && in(kScenario)) ||
           ((groups & kFaultFlags) && in(kFaults)) ||
           ((groups & kTraceOutFlags) && in(kTraceOut));
  }
};

const Subcommand kSubcommands[] = {
    {"campaign", cmd_campaign, 0, {"testbed", "out", "fast", "seed"}},
    {"fit", cmd_fit, 0, {"dataset", "out", "train-fraction", "seed"}},
    {"evaluate", cmd_evaluate, 0, {"dataset", "coeffs", "train-fraction", "seed"}},
    {"predict", cmd_predict, kScenarioFlags, {"coeffs"}},
    {"trace", cmd_trace, kScenarioFlags | kFaultFlags | kTraceOutFlags,
     {"coeffs", "metrics-out", "emit-samples"}},
    {"stream-replay", cmd_stream_replay, 0,
     {"dataset", "coeffs", "train-fraction", "seed", "observation", "predict-every",
      "speedup", "max-gap"}},
    {"tables", cmd_tables, 0, {"fast", "seed"}},
    {"simulate", cmd_simulate, kTraceOutFlags,
     {"testbed", "hosts", "vms", "hours", "horizon", "seed", "metrics-out"}},
    {"plan", cmd_plan, kTraceOutFlags,
     {"coeffs", "testbed", "hosts", "vms", "fleet-hosts", "fleet-vms", "strategy", "waves",
      "beam-width", "candidate-targets", "max-donors", "no-cycles", "horizon",
      "wave-horizon", "verbose", "seed", "metrics-out"}},
    {"chaos", cmd_chaos, kTraceOutFlags,
     {"coeffs", "testbed", "hosts", "vms", "fleet-hosts", "fleet-vms", "storm", "seed",
      "waves", "retry-budget", "strategy", "beam-width", "wave-gap", "no-relief",
      "no-faults", "verbose", "metrics-out"}},
    {"serve-bench", cmd_serve_bench, kTraceOutFlags,
     {"coeffs", "testbed", "threads", "requests", "batch", "cache-capacity", "cache-shards",
      "quantization", "repeat-fraction", "queue", "reloads", "fidelity", "seed",
      "fail-backend", "no-degrade", "deadline-ms", "retries", "breaker-threshold",
      "breaker-open-ms", "recalibrate", "feedback-bias", "pass-interval",
      "bias-threshold", "metrics-out"}},
    {"fleet-bench", cmd_fleet_bench, 0,
     {"coeffs", "testbed", "nodes", "replicas", "requests", "threads", "publishes",
      "node-loss", "seed", "metrics-out"}},
    {"recalibrate", cmd_recalibrate, 0,
     {"coeffs", "testbed", "samples", "shift-at", "bias-watts", "noise", "window",
      "pass-interval", "nrmse-threshold", "bias-threshold", "drift-min-samples",
      "min-improvement", "cooldown", "seed", "out", "metrics-out"}},
    {"report", cmd_report, 0, {"out", "fast", "seed"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return cmd_help();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") return cmd_help();
  const auto sub = std::find_if(std::begin(kSubcommands), std::end(kSubcommands),
                                [&cmd](const Subcommand& s) { return cmd == s.name; });
  if (sub == std::end(kSubcommands)) {
    std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
    cmd_help();
    return 2;
  }
  const Args args(argc, argv, 2);
  for (const auto& [flag, value] : args.flags()) {
    if (!sub->accepts(flag)) {
      std::fprintf(stderr, "%s: unknown flag --%s (see `wavm3 help`)\n", sub->name,
                   flag.c_str());
      return 2;
    }
  }
  try {
    return sub->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
