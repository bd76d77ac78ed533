// The three measured paths. Each builds its inputs from the seed,
// drives the program through its public API for a time budget, checks
// the outputs, and reports end-to-end and per-layer metrics. A workload
// runs its own path at full size and the other two as short probes;
// the fleet path only runs as a probe (see README.md).
#pragma once

#include "common.hpp"

namespace wavm3::perfbench {

/// serve_live: one PredictionService, a batch reader and a live-stream
/// writer feeding an attached recalibrator.
PathResult run_serve(const Options& options, double seconds, bool primary);

/// The fleet path: a 4-node loopback fleet, replication 2, Zipf reads,
/// epoch publishes and a seeded node-loss schedule.
PathResult run_fleet(const Options& options, double seconds, bool primary);

/// plan_waves: WaveExecutor + beam search under the level-3 storm.
PathResult run_plan(const Options& options, double seconds, bool primary);

}  // namespace wavm3::perfbench
