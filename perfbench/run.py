#!/usr/bin/env python3
"""Builds and runs the WAVM3 repository benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve_live --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --check-determinism

The first form builds the benchmark binary (CMake, into .bench_build/perfbench)
and runs one workload; its last stdout line is the JSON result.
Build output goes to stderr. The second form is the benchmark's own
determinism test: the same seed must reproduce its generated inputs,
answer checksums and plan energies, and a different seed must change
the inputs.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve_live", "plan_waves")
# Seeds for claims: tune on any seed, confirm on the held-out one.
HELD_OUT_SEED = 9001


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no WAVM3 sources next to perfbench/ (src/CMakeLists.txt missing)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def run(workload, seed, seconds, trace, capture=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", os.path.join(ROOT, ".bench_out")]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def fingerprint(stdout):
    """Digest lines plus the deterministic plan totals of one run."""
    import json
    lines = stdout.strip().splitlines()
    digests = dict(line.split()[1:3] for line in lines if line.startswith("digest "))
    metrics = json.loads(lines[-1])["metrics"]
    for name in ("net_energy_mj", "downtime_s"):
        digests[name] = repr(metrics[name]["value"])
    return digests


def check_determinism():
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in (1, 1, HELD_OUT_SEED):
            code, out = run(workload, seed, 4, 0, capture=True)
            if code != 0:
                print(f"{workload}: seed {seed} run failed (exit {code})")
                return 1
            runs.append(fingerprint(out))
        same, other = runs[0] == runs[1], runs[0]
        inputs_differ = all(runs[2][k] != other[k] for k in other if k.endswith(".inputs"))
        print(f"{workload}: same seed identical: {same}; other seed changes every input: "
              f"{inputs_differ}")
        if not same:
            for k in sorted(other):
                if runs[0][k] != runs[1][k]:
                    print(f"  {k}: {runs[0][k]} vs {runs[1][k]}")
        ok = ok and same and inputs_differ
    print("determinism:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()
    if not args.check_determinism and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    build()
    if args.check_determinism:
        return check_determinism()
    return run(args.workload, args.seed, args.seconds, args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())
