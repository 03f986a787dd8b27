#!/usr/bin/env python3
"""Build the simulator in the release profile and benchmark one workload.

    python3 perfbench/run.py --workload wired-deep|lte-libra|churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The
lines before it are a human-readable table.

Set-up is measured in several fresh processes (the Libra policy is
trained once per process, so set-up cannot be repeated in one) and
reported as their median; one of them goes on to the measured batch.

Times are host-normalised: the host is shared and its speed drifts by
tens of percent, so bench.exe brackets set-up and each measured run on
one domain with a fixed calibration kernel (perfbench/calib.ml) and
rescales the wall time to the kernel's reference speed. Runs on the
domain pool (lte-libra) cannot be bracketed and stay raw wall time.
The raw wall times are printed in the table above the result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Set-up processes per run: lte-libra trains a policy in each (~8 s),
# the others start in milliseconds.
SETUP_SAMPLES = {"wired-deep": 7, "lte-libra": 5, "churn": 7}
DEADLINE_S = 175.0
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("wired-deep", "lte-libra", "churn")

# BENCHMARK.json at the checkout root names every metric and its unit;
# bench.exe's output must match it exactly.
SPEC_FILE = "BENCHMARK.json"


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time", 1)
    return left


def bench(cmd, deadline):
    """Run bench.exe once; its t0 is this spawn on the shared monotonic clock."""
    # The provenance manifest asks git for the sha; keep it from
    # searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + ["--t0-ns", str(t0)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            timeout=remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        fail("bench.exe timed out", 1)
    if proc.returncode != 0:
        fail("bench.exe exited with %d" % proc.returncode, 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("bench.exe printed nothing", 1)
    return json.loads(lines[-1])


def end_to_end(setups, raw):
    setup_s = statistics.median(setups)
    tail = raw["run_tail"]
    attempted = raw["attempted"]
    return {
        "setup_s": setup_s,
        "total_s": setup_s + raw["measure_s"] + raw["verify_s"],
        "sim_s_per_s": raw["sim_s"] / raw["measure_s"],
        "run_p50_s": raw["run_p50_s"],
        "run_tail_s": tail["value"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": (attempted - raw["failed"]) / attempted,
    }


def main():
    args = parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune"), SPEC_FILE):
        if not os.path.exists(need):
            fail("run from the root of a full checkout: %s is missing" % need)
    with open(SPEC_FILE) as f:
        spec = json.load(f)
    # dune's progress goes to stderr so stdout stays the result.
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "--cache=disabled",
             "./perfbench/bench.exe"],
            stdout=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 1)
    if build.returncode != 0:
        fail("build failed", 1)
    deadline = max(deadline, time.monotonic() + DEADLINE_S)

    base = [
        BENCH_EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # Set-up probes go on both sides of the measured process, so their
    # median spans the same stretch of time as the measurement.
    probes = 0 if args.trace else SETUP_SAMPLES[args.workload] - 1
    setups = [bench(base + ["--setup-only"], deadline) for _ in range(probes // 2)]
    raw = bench(base, deadline)
    setups.append(raw)
    setups += [bench(base + ["--setup-only"], deadline) for _ in range(probes - probes // 2)]
    setup_walls = [s["setup_wall_s"] for s in setups]
    setups = [s["setup_s"] for s in setups]

    for p in raw["problems"]:
        print("CHECK FAILED: " + p)
    tail = raw["run_tail"]
    print(
        "# %s seed=%d profile=%s pool=%d nproc=%d git=%s dirty=%s ocaml=%s"
        % (
            args.workload,
            args.seed,
            raw["manifest"].get("build_profile"),
            raw["manifest"].get("pool_size", 0),
            raw["manifest"].get("nproc", 0),
            raw["manifest"].get("git_sha"),
            raw["manifest"].get("dirty"),
            raw["manifest"].get("ocaml"),
        )
    )
    if args.trace:
        declared, values = spec["per_layer"], raw["layers"]
    else:
        declared, values = spec["end_to_end"], end_to_end(setups, raw)
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        fail("bench.exe metrics %s do not match %s" % (sorted(values), SPEC_FILE), 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if not args.trace:
        print("# setup samples: %s s (wall %s s)"
              % (" ".join("%.4f" % s for s in setups), " ".join("%.4f" % s for s in setup_walls)))
        print("# measured passes: %s s (wall %s s)"
              % (" ".join("%.3f" % s for s in raw["pass_s"]),
                 " ".join("%.3f" % s for s in raw["pass_wall_s"])))
        print("# host speed at set-up: %.3f of the reference host's (calibration kernel)"
              % raw["host_speed"])
        print(
            "# run_tail_s is p%d of %d runs, each the median of its passes (%d beyond it)"
            % (tail["percentile"], tail["samples"], tail["samples"] - tail["rank"])
        )
        print(
            "%-28s %16.6g %s" % ("failed_frac", raw["failed_frac"], "frac")
        )
    for k, m in metrics.items():
        print("%-28s %16.6g %s" % (k, m["value"], m["unit"]))
    print(
        json.dumps(
            {
                "correct": bool(raw["correct"]),
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
