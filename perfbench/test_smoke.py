#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py

Run from the repository root. For every workload in BENCHMARK.json it runs
the benchmark at minimal length (--seconds 1), untraced and traced, and
checks that

  * each run exits 0 and its last line is the JSON result, with
    correct=true, attempted >= 1 and failed == 0;
  * the untraced run reports every end_to_end metric and the traced run
    every per_layer metric, each finite and with its declared unit;
  * the traced and untraced runs end every experiment with the same
    rng_digest (the benchmark also checks this itself, run by run);

and that the benchmark fails without a result when the library sources are
missing (a directory holding only BENCHMARK.json and perfbench/).
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DIGEST = re.compile(r"^experiment (\d+): sim_seed=(\d+) digest=([0-9a-f]+)", re.M)


def run(cwd, workload, trace, seed=1):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_metrics(result, declared, where):
    problems = []
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append("%s: metric names differ from BENCHMARK.json" % where)
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s: %s has unit %r, declared %r"
                            % (where, m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is not a finite number" % (where, m["name"]))
    return problems


def main():
    problems = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        digests = {}
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            where = "%s --trace %d" % (workload, trace)
            done = run(ROOT, workload, trace)
            if done.returncode != 0:
                problems.append("%s: exit %d\n%s%s" % (where, done.returncode,
                                                       done.stdout[-2000:], done.stderr[-2000:]))
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s"
                                % (where, result["correct"], result["attempted"], result["failed"]))
            problems += check_metrics(result, declared, where)
            digests[trace] = DIGEST.findall(done.stdout)
        if len(digests) == 2 and (not digests[0] or digests[0] != digests[1]):
            problems.append("%s: digests differ between untraced and traced runs" % workload)
        print("%-10s checked" % workload, flush=True)

    # Without the library sources the benchmark must fail, printing no result.
    stripped = os.path.join(ROOT, ".bench_build", "smoke-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(stripped, path))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(stripped, ".bench_build"))
    done = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=stripped, env=env, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("stripped directory: expected a failure without a result")
    shutil.rmtree(stripped, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
