#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) holding the captured
standard output of `perfbench/run.py --trace 0` runs, one run per file.
Runs are grouped by the workload their provenance line names.

For every workload × end-to-end metric of BENCHMARK.json it prints both
medians, both interquartile ranges and a verdict:

  better      NEW wins at least 9 of 10 pairs (paired by seed where both
              sides ran the same seeds, else in run order) and the medians
              differ by more than BASE's interquartile range;
  worse       NEW's median is worse than BASE's by more than the bound, and
              either every NEW run is worse than every BASE run or BASE's
              own spread (IQR / median) is within the bound;
  unresolved  BASE's own spread is wider than the bound, so a smaller
              regression cannot be told from noise;
  no worse    otherwise.

Exits 1 if any metric is worse; otherwise 3 if any is unresolved, which
is not a pass either; 0 when every metric is better or no worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path))
    runs = {}
    for f in files:
        if not os.path.isfile(f):
            continue
        prov, result = None, None
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("provenance "):
                    prov = json.loads(line[len("provenance "):])
                elif line.startswith("{") and '"metrics"' in line:
                    result = json.loads(line)
        if prov is None or result is None or prov.get("trace") != 0:
            continue
        runs.setdefault(prov["workload"], []).append((prov["seed"], result["metrics"]))
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def pairs(base, new):
    """(base value, new value) pairs: by seed where both ran it, else in order."""
    bs, ns = dict(base), dict(new)
    common = sorted(set(bs) & set(ns))
    if common:
        return [(bs[s], ns[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in new]))


def verdict(metric, base, new):
    """base, new: [(seed, value)]. Returns (verdict, base median, new median)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bv = [v for _, v in base]
    nv = [v for _, v in new]
    bmed, nmed = statistics.median(bv), statistics.median(nv)

    def beats(n, b):
        return n < b if lower else n > b

    ps = pairs(base, new)
    wins = sum(1 for b, n in ps if beats(n, b))
    if ps and wins >= 0.9 * len(ps) and abs(nmed - bmed) > iqr(bv):
        return "better", bmed, nmed
    worse_by = (nmed - bmed) if lower else (bmed - nmed)
    beyond_bound = worse_by > bound * abs(bmed)
    if beyond_bound and all(beats(b, n) for n in nv for b in bv):
        return "worse", bmed, nmed
    spread = iqr(bv) / abs(bmed) if bmed else 0.0
    if spread > bound:
        return "unresolved", bmed, nmed
    if beyond_bound:
        return "worse", bmed, nmed
    return "no worse", bmed, nmed


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    verdicts = []
    print(f"{'workload':16s} {'metric':16s} {'base med':>12s} {'base IQR':>10s} "
          f"{'new med':>12s} {'new IQR':>10s}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"{name:16s} (missing runs: base {len(base.get(name, []))}, "
                  f"new {len(new.get(name, []))})")
            continue
        for m in bench["end_to_end"]:
            b = [(s, r[m["name"]]["value"]) for s, r in base[name] if m["name"] in r]
            n = [(s, r[m["name"]]["value"]) for s, r in new[name] if m["name"] in r]
            if not b or not n:
                continue
            v, bmed, nmed = verdict(m, b, n)
            verdicts.append(v)
            print(f"{name:16s} {m['name']:16s} {bmed:12.5g} {iqr([x for _, x in b]):10.4g} "
                  f"{nmed:12.5g} {iqr([x for _, x in n]):10.4g}  {v}")
    if "worse" in verdicts:
        print("result: regression beyond a bound")
        return 1
    if "unresolved" in verdicts:
        print("result: unresolved, not a pass: a base spread is wider than its bound")
        return 3
    print("result: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
