#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The measuring program (perfbench/src) is
built from source first, twice: a plain build for the end-to-end numbers
and an `obs` build whose library counters the traced run collects.
Set-up and the timed phase each run in a child process of their own, so
each phase's peak RSS is its own; the correctness gate runs before any
metric is printed, and a failed gate exits non-zero without a result.

The last line of standard output is one JSON object:
    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The line before it is the run's provenance.
"""

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("table5_kernel", "table5_simplex", "serve_mixed")
# A child that runs longer than this has hung; the run fails.
CHILD_TIMEOUT_S = 170
TABLE5_QUERIES = ("Q3", "Q5", "Q7", "Q8", "Q10", "Q11", "Q12", "Q18", "Q20", "Q21")

# Per-layer shares: span name -> metric. A layer's share is its spans'
# self time over the client threads' timed wall time, in percent.
LAYER_SPANS = {
    "storage.open": "layer.storage_open_pct",
    "exec.profile": "layer.exec_profile_pct",
    "trunc.classify": "layer.trunc_classify_pct",
    "r2t.race": "layer.r2t_race_pct",
    "service.session_open": "layer.service_session_pct",
    "service.prepare": "layer.service_session_pct",
    "service.session_close": "layer.service_session_pct",
    "service.answer_text": "layer.service_answer_text_pct",
    "service.answer_handle": "layer.service_answer_handle_pct",
    "service.cold": "layer.service_cold_pct",
    "service.refusal": "layer.service_refusal_pct",
    "operator.batch": "layer.operator_batch_pct",
    "service.apply": "layer.service_apply_pct",
    "client.wait": "layer.client_wait_pct",
}

COUNTERS = (
    "lp.solves",
    "lp.iterations.primal",
    "lp.iterations.dual",
    "lp.kernel.solves",
    "lp.kernel.memo_hits",
    "service.cache.misses",
    "service.charge.contention",
    "service.snapshot.materializations",
    "service.apply.entries.shared",
    "service.apply.entries.patched_fast",
    "service.apply.entries.patched",
    "service.apply.entries.rebuilt",
    "service.apply.entries.dropped",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment of every child: no R2T_* knob reaches the program."""
    return {k: v for k, v in os.environ.items() if not k.startswith("R2T_")}


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Builds the plain and the obs binary; returns their paths or None."""
    manifest = os.path.join(HERE, "Cargo.toml")
    bins = {}
    for variant, features in (("plain", []), ("obs", ["--features", "obs"])):
        tdir = os.path.join(target_dir(), "perfbench-" + variant)
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, "--target-dir", tdir] + features
        env = clean_env()
        env.pop("CARGO_TARGET_DIR", None)
        try:
            res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"perfbench: cannot run cargo: {e}")
            return None
        if res.returncode != 0:
            log(f"perfbench: {variant} build failed")
            return None
        bins[variant] = os.path.join(tdir, "release", "perfbench")
    return bins


def cpu_ticks():
    """(steal, total) CPU ticks of the machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return 0, 0


def child(binary, args):
    """Runs one child phase; returns its parsed result line or None.

    The result gains `steal_pct`: the share of the machine's CPU time that
    the hypervisor gave to other guests while the child ran.
    """
    cmd = [binary] + args
    steal0, total0 = cpu_ticks()
    try:
        res = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(args[:3])} ran over {CHILD_TIMEOUT_S} s and was stopped")
        return None
    steal1, total1 = cpu_ticks()
    if res.returncode != 0:
        log(f"perfbench: {' '.join(args[:3])} exited with {res.returncode}")
        return None
    lines = [ln for ln in res.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        log("perfbench: child printed no result")
        return None
    result = json.loads(lines[-1])
    if result.get("failed", 0) != 0:
        log(f"perfbench: {result['failed']} operations failed")
        return None
    result["steal_pct"] = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)
    return result


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2


def pct(values, p):
    """The p-th percentile, linear between closest ranks."""
    v = sorted(values)
    if not v:
        return 0.0
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def span_split(workload, traced):
    """Self time per (client thread, layer) and timed wall time per client
    thread, in µs. Table 5 runs on thread 0, whose wall is the sum of the
    timed passes; the two serving threads' wall is total_s each.
    """
    self_us = {(t, name): us for t, name, us, _ in traced["layers"]}
    if workload == "serve_mixed":
        walls = {t: traced["total_s"] * 1e6 for t in (1, 2)}
    else:
        walls = {0: sum(traced["pass_s"]) * 1e6}
    return self_us, walls


def end_to_end(setup, timed):
    return {
        "setup_s": (median(setup["setup_s"]), "s"),
        "total_s": (timed["total_s"], "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "rel_err_pct": (timed["rel_err_pct"], "%"),
    }


def per_layer(workload, setup, plain, traced):
    m = {}
    counters = traced.get("counters", {})
    layer = traced.get("layer", {})
    self_us, walls = span_split(workload, traced)
    wall = sum(walls.values())
    m["tpch.gen_s"] = (median(setup["gen_s"]), "s")
    m["storage.archive_mb"] = (setup["archive_mb"], "MB")
    m["storage.write_setup_pct"] = (
        100.0 * sum(setup["write_s"]) / sum(setup["setup_s"]), "%")
    for name in sorted(set(LAYER_SPANS.values())):
        us = sum(v for (_, span), v in self_us.items() if LAYER_SPANS.get(span) == name)
        m[name] = (100.0 * us / wall if wall > 0 else 0.0, "%")
    passes_us = sum(traced.get("pass_s", [])) * 1e6
    per_query = traced.get("per_query", {})
    n_passes = max(len(traced.get("pass_s", [])), 1)
    for q in TABLE5_QUERIES:
        pq = per_query.get(q, {})
        for key, name in (("profile_s", f"exec.{q}.profile_pct"), ("race_s", f"r2t.{q}.race_pct")):
            share = 100.0 * pq.get(key, 0.0) * n_passes * 1e6 / passes_us if passes_us else 0.0
            m[name] = (share, "%")
    # The least share, over client threads, of wall time inside named layers.
    m["trace.coverage_pct"] = (min((
        100.0 * sum(v for (t, span), v in self_us.items() if t == thread and span in LAYER_SPANS)
        / w for thread, w in walls.items()), default=0.0), "%")
    m["trace.overhead"] = (traced["total_s"] / plain["total_s"], "ratio")
    # Latency of single calls, from the untraced run; 0 where a workload
    # makes no such call.
    for name, key, p, unit in (
            ("storage.open_p50_ms", "open_ms", 50, "ms"),
            ("service.session_p50_us", "session_us", 50, "us"),
            ("service.text_p50_us", "text_us", 50, "us"),
            ("service.handle_p50_us", "handle_us", 50, "us"),
            ("service.cold_p50_ms", "cold_ms", 50, "ms"),
            ("service.apply_p50_ms", "apply_ms", 50, "ms"),
            ("service.apply_p90_ms", "apply_ms", 90, "ms")):
        m[name] = (pct(plain.get(key, []), p), unit)
    m["service.hit_p90_us"] = (pct(plain.get("text_us", []) + plain.get("handle_us", []), 90),
                               "us")
    for key in ("trunc.kind.closed_form", "trunc.kind.matching", "trunc.kind.simplex",
                "exec.result_lines", "exec.peak_bindings", "service.cached_statements",
                "service.refusals.budget", "service.refusals.admission",
                "service.refusals.mutation"):
        m[key] = (layer.get(key, 0), "count")
    m["r2t.completed_frac"] = (layer.get("r2t.completed_frac", 0.0), "ratio")
    for key in COUNTERS:
        m[key] = (counters.get(key, 0), "count")
    attempts = counters.get("lp.warm.attempts", 0)
    m["lp.warm.accept_frac"] = (
        counters.get("lp.warm.accepted", 0) / attempts if attempts else 0.0, "ratio")
    entries = sum(counters.get(k, 0) for k in COUNTERS if k.startswith("service.apply.entries."))
    m["service.patched_fast_frac"] = (
        counters.get("service.apply.entries.patched_fast", 0) / entries if entries else 0.0,
        "ratio")
    return m


def provenance(args, bins_used, setup, timed):
    def run(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            return out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            return None

    commit = run(["git", "rev-parse", "HEAD"])
    status = run(["git", "status", "--porcelain"]) if commit else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit or "unknown (not a git checkout)",
        "git_dirty": bool(status) if commit else None,
        "features": bins_used,
        "obs_level": "counters" if args.trace else "off",
        "rustc": run(["rustc", "--version"]) or "unknown",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "sizes": setup.get("sizes"),
        "tuples": setup.get("tuples"),
        "cpu_steal_pct": round(timed["steal_pct"], 2),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks: tiny sizes, and a deliberately wrong gate reference.
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    bins = build()
    if bins is None:
        return 1
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return run(args, bins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, bins, work):
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    if args.smoke:
        common.append("--smoke")
    setup = child(bins["plain"], ["setup"] + common)
    if setup is None:
        return 1
    timed_args = ["timed"] + common + ["--seconds", str(args.seconds)]
    if args.corrupt:
        timed_args.append("--corrupt")
    plain = child(bins["plain"], timed_args)
    if plain is None:
        return 1
    traced = None
    if args.trace:
        traced = child(bins["obs"], timed_args + ["--trace"])
        if traced is None:
            return 1
        metrics = per_layer(args.workload, setup, plain, traced)
    else:
        metrics = end_to_end(setup, plain)

    prov = provenance(args, "obs" if args.trace else "none", setup, plain)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    result = {
        "correct": True,
        "attempted": int(plain["attempted"]),
        "failed": int(plain["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
