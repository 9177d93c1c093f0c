#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one
workload, or all of them, printing every metric by name and unit.

    python3 perfbench/run.py --workload <name|all> [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --check-baseline

Run it from the root of a checkout. The build goes to .bench_build/
(or $CARGO_TARGET_DIR). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The exit status is non-zero, naming the workload on stderr, when an
output fails its check:: oracle validation, when the deterministic work
differs from the reference recorded for the seed, or when the traced
span ledger is inconsistent. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign_mixed", "campaign_light", "reschedule_drift",
             "serve_fleet"]
# Set-up also runs in extra fresh processes, at least SETUP_REPEATS_MIN
# and, while their set-up time stays under SETUP_BUDGET_S, up to
# SETUP_REPEATS_MAX; setup_s is the median over them and the measured
# run.
SETUP_REPEATS_MIN = 4
SETUP_REPEATS_MAX = 10
SETUP_BUDGET_S = 6.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark program; returns its path.
    Configuring every time keeps a reused build tree in step with
    CMakeLists.txt."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", "4",
                 "--target", "perfbench"]):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def launch(binary, args):
    """Runs the benchmark program in a fresh process; returns (result JSON, summary
    lines). The launcher's CLOCK_MONOTONIC reading just before the start
    goes along, so the measured set-up time includes process start."""
    cmd = [binary] + args + ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        log(proc.stderr.strip())
        raise RuntimeError("benchmark program exited with status %d"
                           % proc.returncode)
    lines = proc.stdout.rstrip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def measure(binary, workload, seed, seconds, trace, scale):
    """One benchmark run: set-up repeats, then the measured run."""
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--scale", repr(scale)]
    setups = []
    while len(setups) < SETUP_REPEATS_MIN or (
            len(setups) < SETUP_REPEATS_MAX and
            sum(setups) < SETUP_BUDGET_S):
        detail, _ = launch(binary, base + ["--setup-only"])
        setups.append(detail["setup_s"])
    detail, notes = launch(binary,
                           base + ["--trace", "1" if trace else "0"])
    setups.append(detail["setup_s"])
    detail["setup_samples"] = setups
    detail["setup_s"] = statistics.median(setups)
    return detail, notes


def reference_errors(detail, workload, seed, seconds, scale):
    """Like-for-like check: the deterministic work of a seed recorded in
    reference.json must equal the reference."""
    ref = load_json(os.path.join(HERE, "reference.json"))
    if scale != 1.0 or seconds != ref["seconds"]:
        return []
    expected = ref["counts"].get(workload, {}).get(str(seed))
    if expected is None:
        return []
    errors = []
    for name, value in expected.items():
        got = detail["counts"].get(name)
        if got != value:
            errors.append("%s = %s, the reference for seed %d records %s"
                          % (name, got, seed, value))
    return errors


def metric_table(detail, trace):
    """name -> (value, unit) of everything the run measured."""
    table = {}
    if trace:
        for name, m in detail["per_layer"].items():
            table[name] = (m["value"], m["unit"])
    else:
        for name, m in detail["end_to_end"].items():
            table[name] = (m["value"], m["unit"])
        table["setup_s"] = (detail["setup_s"], "s")
    return table


def run_one(binary, bench, workload, seed, seconds, trace, scale):
    """Runs and checks one workload; returns (result line, ok)."""
    detail, notes = measure(binary, workload, seed, seconds, trace, scale)
    errors = list(detail["errors"])
    if not trace:
        errors += reference_errors(detail, workload, seed, seconds, scale)
    table = metric_table(detail, trace)
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        if spec["name"] not in table:
            errors.append("metric %s was not measured" % spec["name"])
            continue
        value, unit = table[spec["name"]]
        if unit != spec["unit"]:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s"
                          % (spec["name"], unit, spec["unit"]))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    print("%s seed %d (%s run):" % (workload, seed,
                                    "traced" if trace else "timed"))
    for line in notes:
        print(line)
    print("  set-up: median %.4f s of %s" % (
        detail["setup_s"], ", ".join("%.4f" % s
                                     for s in detail["setup_samples"])))
    for name, (value, unit) in table.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    for name, m in detail["report"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  attempted %d, failed %d (failed_share %.6g)" % (
        detail["attempted"], detail["failed"],
        detail["failed"] / max(detail["attempted"], 1)))
    print("  counts: " + json.dumps(detail["counts"], sort_keys=True))
    for e in errors:
        log("perfbench: %s: %s" % (workload, e))
    result = {"correct": not errors, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    return result, not errors


def check_baseline(binary):
    """campaign_mixed's runner at the committed CI baseline's size and
    seed must reproduce its deterministic counts."""
    base = load_json(os.path.join(ROOT, "bench", "baselines",
                                  "BENCH_campaign.json"))
    detail, notes = launch(binary, [
        "--workload", "campaign_mixed", "--baseline-instances",
        str(base["instances"]), "--baseline-shards", str(base["shards"]),
        "--seed", str(base["seed"])])
    for line in notes:
        print(line)
    got = detail["counts"]
    want = {"executions": base["executions"],
            "reschedule_calls": base["reschedules"],
            "deadline_misses": base["deadline_misses"],
            "oracle_validations": base["oracle_validations"]}
    for tier, value in base["tiers"].items():
        want["tier." + tier] = value
    bad = [k for k in want if got.get(k) != want[k]]
    for k in sorted(want):
        print("  %-22s %10s %10s%s" % (k, got.get(k), want[k],
                                       "  MISMATCH" if k in bad else ""))
    if bad or detail["errors"]:
        log("perfbench: campaign_mixed: counts differ from "
            "bench/baselines/BENCH_campaign.json: " + ", ".join(bad))
        return 1
    print("campaign_mixed matches bench/baselines/BENCH_campaign.json")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="work-size multiplier (the self-test runs "
                        "tiny sizes)")
    parser.add_argument("--check-baseline", action="store_true")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))
    seed = args.seed if args.seed is not None else \
        reference["default_seed"]
    seconds = args.seconds if args.seconds is not None else \
        bench["run_seconds"]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        log("perfbench: unknown workload %s (known: %s)"
            % (args.workload, ", ".join(WORKLOADS)))
        return 2

    binary = build()
    if args.check_baseline:
        return check_baseline(binary)
    results = {}
    ok = True
    for name in names:
        try:
            result, good = run_one(binary, bench, name, seed, seconds,
                                   bool(args.trace), args.scale)
        except (RuntimeError, ValueError, KeyError) as e:
            log("perfbench: %s: %s" % (name, e))
            return 1
        results[name] = result
        ok = ok and good
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    if not ok:
        log("perfbench: FAILED: " + ", ".join(
            n for n in names if not results[n]["correct"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
