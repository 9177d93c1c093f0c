#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes (about a minute plus the
first build):

  * every end-to-end and per-layer metric of BENCHMARK.json is printed,
    with its unit, on every workload;
  * the traced span ledger is consistent: child spans nest inside their
    parents and share their instance id, none is left open;
  * two runs of the same seed give identical deterministic counts
    (executions, reschedule tiers, cache hits, oracle violations);
  * a count that differs from reference.json fails the run;
  * without the program's sources the benchmark fails without printing
    a result.

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the launcher under test)

TINY = ["--seconds", "2", "--scale", "0.05"]
failures = []


def check(ok, what):
    print("  %s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def bench_run(workload, trace, seed=5, cwd=ROOT):
    """Runs run.py; returns (exit status, result line, counts, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace)] + TINY,
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = counts = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    for line in lines:
        if line.strip().startswith("counts: "):
            counts = json.loads(line.strip()[len("counts: "):])
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
    return proc.returncode, result, counts, proc.stdout


def main():
    bench = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS),
          "BENCHMARK.json lists the launcher's workloads")

    for workload in names:
        print(workload)
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            runs = [bench_run(workload, trace) for _ in range(2)]
            status, result, counts, stdout = runs[0]
            check(status == 0 and result is not None and result["correct"],
                  "%s trace %d runs and is correct" % (workload, trace))
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  "result line has exactly the contract keys")
            for spec in bench[kind]:
                m = result["metrics"].get(spec["name"])
                printed = any(line.split()[:1] == [spec["name"]] and
                              line.split()[-1] == spec["unit"]
                              for line in stdout.splitlines())
                check(m is not None and m["unit"] == spec["unit"] and
                      printed,
                      "%s printed with unit %s" % (spec["name"],
                                                   spec["unit"]))
            if not trace:
                for spec in bench["end_to_end"]:
                    check(result["metrics"][spec["name"]]["value"] > 0,
                          "%s is non-zero" % spec["name"])
            else:
                check(counts["ledger.spans"] > 0 and
                      counts["ledger.nesting_violations"] == 0 and
                      counts["ledger.instance_violations"] == 0 and
                      counts["ledger.unclosed"] == 0,
                      "spans nest in their parents and share instance ids")
                check(result["metrics"]["unattributed_share"]["value"] > 0,
                      "unattributed_share is non-zero")
            check(counts is not None and counts == runs[1][2],
                  "two runs give identical deterministic counts")

    print("like-for-like check")
    detail = {"counts": {"executions": 10, "reschedule_calls": 3}}
    ref = run.load_json(os.path.join(HERE, "reference.json"))
    recorded = ref["counts"].get("campaign_mixed", {})
    if recorded:
        seed = int(next(iter(recorded)))
        errors = run.reference_errors(detail, "campaign_mixed", seed,
                                      ref["seconds"], 1.0)
        check(errors, "a count differing from reference.json is an error")
        detail = {"counts": dict(recorded[str(seed)])}
        check(not run.reference_errors(detail, "campaign_mixed", seed,
                                       ref["seconds"], 1.0),
              "the recorded counts themselves pass")

    print("benchmark files alone")
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    status, result, _, _ = bench_run(names[0], 0, cwd=bare)
    check(status != 0 and result is None,
          "fails without printing a result when ../src is missing")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
