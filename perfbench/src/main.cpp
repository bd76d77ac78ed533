// perfbench: the repository benchmark.
//
//   perfbench --workload serve_live|plan_waves --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// A run builds its inputs from the seed, runs the workload's own path
// at full size for most of the time budget and the other two paths
// (serve, fleet, plan) as short probes, checks every output, prints each metric with its unit,
// and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics with all tracing off;
// --trace 1 reports the per-layer metrics from a traced run and writes
// a Chrome trace to DIR/<workload>.trace.json. Exit code 0 only when
// every output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "paths.hpp"
#include "trace.hpp"

namespace {

using namespace wavm3;
using namespace wavm3::perfbench;

/// The end-to-end metrics every workload reports (BENCHMARK.json order).
const std::vector<std::string> kEndToEnd = {
    "setup_s",         "peak_rss_mb",     "error_ratio",    "predictions_per_s",
    "batch_p50_us",    "batch_p99_us",    "samples_per_s",  "revision_mean_us",
    "served_nrmse",    "request_p50_us",  "request_p99_us", "publish_p50_ms",
    "wave0_p50_s",     "wave_p50_s",      "net_energy_mj",  "downtime_s"};

/// The per-layer metrics every traced run reports.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.evictions_per_prediction", "ratio"},
    {"serve.batch.overhead_us", "us"},
    {"serve.batch_chunk_us", "us"},
    {"serve.pool_wait_us", "us"},
    {"serve.feedback_dropped", "count"},
    {"core.forecast_timings_ns", "ns"},
    {"core.attach_energy_ns", "ns"},
    {"models.predict_batch_ns_per_row", "ns"},
    {"kernels.share", "ratio"},
    {"stream.submit_sample_ns", "ns"},
    {"stream.open_close_us", "us"},
    {"stream.evictions", "count"},
    {"calib.passes", "count"},
    {"calib.refits", "count"},
    {"calib.swaps", "count"},
    {"calib.rollbacks", "count"},
    {"calib.pass_ms", "ms"},
    {"rpc.client_self_us", "us"},
    {"rpc.transport_self_us", "us"},
    {"rpc.node_handle_us", "us"},
    {"rpc.cache_hit_ratio", "ratio"},
    {"rpc.failover_ratio", "ratio"},
    {"rpc.failovers", "count"},
    {"rpc.exhausted", "count"},
    {"rpc.publish_converged_ratio", "ratio"},
    {"rpc.publish_rollbacks", "count"},
    {"plan.cycle_detect_s", "s"},
    {"plan.score_batch_s", "s"},
    {"plan.strategy_s", "s"},
    {"plan.schedule_s", "s"},
    {"plan.commit_s", "s"},
    {"plan.wave_self_s", "s"},
    {"plan.candidates_scored", "count"},
    {"plan.moves_per_candidate", "ratio"},
    {"chaos.execute_s", "s"},
    {"chaos.invariants_s", "s"},
    {"migration.engine_run_us", "us"},
    {"chaos.completed_ratio", "ratio"},
    {"chaos.wasted_mj", "MJ"},
    {"chaos.invariant_violations", "count"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.events_emitted", "count"},
    {"obs.events_dropped", "count"},
    {"trace.accounted_share", "ratio"},
};

using PathFn = PathResult (*)(const Options&, double, bool);

struct Workload {
  const char* name;
  PathFn primary;
  PathFn probes[2];
  /// Share of --seconds each probe path gets; the rest is the
  /// workload's own path. plan_waves keeps more for itself: a
  /// repetition of its 8 waves takes about 6 s, and its per-wave figures
  /// are medians over repetitions.
  double probe_share;
};

/// The fleet path has no workload of its own (see README.md): it runs
/// as a probe in both.
const Workload kWorkloads[] = {
    {"serve_live", run_serve, {run_fleet, run_plan}, 0.25},
    {"plan_waves", run_plan, {run_serve, run_fleet}, 0.15},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve_live|plan_waves "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty() || !have_seed) usage("--workload and --seed are required");
  return o;
}

void merge_missing(MetricMap& into, const MetricMap& from) {
  for (const auto& [k, v] : from) into.emplace(k, v);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + options.workload).c_str());

  const double probe_s = workload->probe_share * options.seconds;
  const double primary_s = options.seconds - 2.0 * probe_s;

  // obs.overhead_ratio needs the untraced rate of the same path: a
  // traced run measures a short untraced window first.
  double untraced_rate = 0.0;
  if (options.trace) {
    set_tracing(false);
    untraced_rate = workload->primary(options, 0.3 * primary_s, true).primary_rate;
  }
  set_tracing(options.trace);

  std::vector<PathResult> results;
  results.push_back(workload->primary(options, primary_s, true));
  if (options.trace) {
    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/" + options.workload + ".trace.json";
    if (write_chrome_trace(path, results.front().trace_events)) {
      std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
    }
    results.front().trace_events.clear();
  }
  for (const PathFn probe : workload->probes) results.push_back(probe(options, probe_s, false));

  MetricMap e2e;
  MetricMap layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  for (const PathResult& r : results) {
    merge_missing(e2e, r.e2e);
    merge_missing(layers, r.layers);
    attempted += r.attempted;
    failed += r.failed;
    setup_s += r.setup_s;
    for (const auto& [k, v] : r.digests) std::printf("digest %s %s\n", k.c_str(), v.c_str());
  }
  e2e["setup_s"] = {setup_s, "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["error_ratio"] = {error_ratio(failed, attempted), "ratio"};

  MetricMap report;
  if (options.trace) {
    const double traced_rate = results.front().primary_rate;
    layers["obs.overhead_ratio"] = {untraced_rate > 0.0 ? traced_rate / untraced_rate : 0.0,
                                    "ratio"};
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = layers.find(name);
      report[name] = {it == layers.end() ? 0.0 : it->second.value, unit};
    }
  } else {
    for (const std::string& name : kEndToEnd) {
      const auto it = e2e.find(name);
      if (it == e2e.end() || !std::isfinite(it->second.value)) {
        std::fprintf(stderr, "perfbench: metric %s missing or not finite\n", name.c_str());
        ++failed;
        continue;
      }
      report[name] = it->second;
    }
  }

  for (const std::string& name : kEndToEnd) {
    const auto it = e2e.find(name);
    if (it != e2e.end()) {
      std::printf("e2e   %-40s %16.6g %s\n", name.c_str(), it->second.value,
                  it->second.unit.c_str());
    }
  }
  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      std::printf("layer %-40s %16.6g %s\n", name.c_str(), report[name].value, unit.c_str());
    }
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : report) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
