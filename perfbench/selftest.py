#!/usr/bin/env python3
"""Smoke self-test of the benchmark, at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that:
  * every workload, untraced and traced, prints exactly the metrics
    BENCHMARK.json names, each with its unit, and positive end-to-end values;
  * a deliberately wrong expected profile digest (table5_*) or twin answer
    (serve_mixed) makes the correctness gate fail: non-zero exit, no result;
  * outside a full checkout (only BENCHMARK.json and perfbench/), the
    benchmark exits non-zero without a result.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    res = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                         cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    lines = res.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return res.returncode, result, res.stderr


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, err = run(["--workload", name, "--seed", "7", "--seconds", "1",
                                     "--trace", str(trace), "--smoke"])
            if code != 0 or result is None:
                fail(f"{name} trace {trace}: exit {code}\n{err[-3000:]}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
                fail(f"{name}: {result['correct']=} {result['attempted']=} {result['failed']=}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                     f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
            if trace == 0 and not all(v["value"] > 0 for v in result["metrics"].values()):
                fail(f"{name}: an end-to-end metric is not positive: {result['metrics']}")
            print(f"ok   {name} trace {trace}: {len(got)} metrics with units")

    for name in ("table5_kernel", "serve_mixed"):
        code, result, err = run(["--workload", name, "--seed", "7", "--seconds", "1",
                                 "--trace", "0", "--smoke", "--corrupt"])
        if code == 0 or result is not None or "correctness gate failed" not in err:
            fail(f"{name}: a corrupted gate reference did not fail the gate (exit {code})")
        print(f"ok   {name}: corrupted reference fails the gate")

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    try:
        code, result, _ = run(["--workload", "table5_kernel", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, env=env)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        fail("outside a full checkout the benchmark printed a result")
    print("ok   outside a full checkout: non-zero exit, no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
