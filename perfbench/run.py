#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-oktopk --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same untraced passes, then one traced pass and prints the
per-layer table instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries of
``BENCHMARK.json``; the line before it is the full report (every metric
the workload defines, host record, fingerprints, checks).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: setup is timed in this many fresh processes; the median is reported
SETUP_PROBES = 3
#: the held-out seed of a run is its seed plus this offset
HELDOUT_OFFSET = 1_000_003
#: untraced passes per run, at least (the median needs three)
MIN_PASSES = 3
#: measuring stops after this long even if --seconds asks for more
MAX_MEASURE_S = 90.0
#: trace.coverage must lie this close to 1
COVERAGE_TOLERANCE = 0.05
#: environment switches that steer repro off its default runner, fused
#: path or rank batching; the workloads measure the defaults, so a run
#: clears them (and says so in the host record)
PATH_SWITCHES = ("REPRO_SPMD_RUNNER", "REPRO_FUSED", "REPRO_FUSED_MIN_RANKS",
                 "REPRO_FUSED_MIN_WPR", "REPRO_RANK_BATCH", "REPRO_SANITIZE")

#: every end-to-end metric of the report: name, unit, better direction.
#: ``BENCHMARK.json`` gates the ones every workload defines that stay
#: steady from run to run (see perfbench/README.md).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("iters_per_s", "1/s", "higher"),
    ("iter_ms_p50", "ms", "lower"),
    ("iter_ms_p95", "ms", "lower"),
    ("us_per_token", "us", "lower"),
    ("sim_iter_ms", "ms", "lower"),
    ("words_per_iter", "words", "lower"),
    ("loss_tail", "loss", "lower"),
    ("ttft_ms_p50", "ms", "lower"),
    ("ttft_ms_p99", "ms", "lower"),
    ("itl_ms_p50", "ms", "lower"),
    ("itl_ms_p99", "ms", "lower"),
    ("goodput_tok_s", "tok/s", "higher"),
    ("recovery_ms", "ms", "lower"),
    ("failed_share", "share", "lower"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="minimum measuring time of the untraced passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _time_setup(workload: str) -> float:
    """Wall seconds from process start until a fresh process has
    imported everything, built the dataset and run the warm-up."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err}")
    return elapsed


def _run_pass(run, seed: int):
    """One pass, started from the same collector state as every other."""
    gc.collect()
    return run(seed)


def _measure(spec, seed: int, seconds: float, need: int):
    """Untraced passes on one seed: at least ``MIN_PASSES``, at least
    ``need`` iteration samples, and at least ``seconds`` of measuring.
    Also returns the peak RSS in MB after the first pass (setup plus one
    pass; later passes only add allocator noise)."""
    passes = []
    rss_mb = None
    t0 = time.perf_counter()
    while True:
        passes.append(_run_pass(spec.run, seed))
        if rss_mb is None:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - t0
        samples = sum(len(p.iter_walls) for p in passes)
        if len(passes) >= MIN_PASSES and (
                (samples >= need and elapsed >= seconds)
                or elapsed >= MAX_MEASURE_S):
            return passes, rss_mb


def _end_to_end(passes, setup_s, rss_mb, attempted, failed):
    """Every end-to-end metric the issue names; ``None`` where the
    workload does not define it."""
    from perfbench import stats
    from perfbench.workloads import ITER_PCT
    walls = [w for p in passes for w in p.iter_walls]
    iter_hi = stats.supported_percentile(walls, ITER_PCT)
    sim = passes[0].sim
    return {
        "setup_s": statistics.median(setup_s) if setup_s else None,
        "peak_rss_mb": rss_mb,
        "iters_per_s": statistics.median(p.iterations / p.measured_s
                                         for p in passes),
        "iter_ms_p50": stats.percentile(walls, 50.0) * 1e3,
        "iter_ms_p95": None if iter_hi is None else iter_hi * 1e3,
        "us_per_token": statistics.median(p.measured_s / p.units * 1e6
                                          for p in passes),
        "sim_iter_ms": sim["sim_iter_ms"],
        "words_per_iter": sim["words_per_iter"],
        "loss_tail": sim.get("loss_tail"),
        "ttft_ms_p50": sim.get("ttft_ms_p50"),
        "ttft_ms_p99": sim.get("ttft_ms_p99"),
        "itl_ms_p50": sim.get("itl_ms_p50"),
        "itl_ms_p99": sim.get("itl_ms_p99"),
        "goodput_tok_s": sim["goodput_tok_s"],
        "recovery_ms": sim.get("recovery_ms"),
        "failed_share": stats.failed_share(attempted, failed),
    }


def _traced_pass(spec, seed: int):
    from perfbench import spans
    from perfbench.layertrace import Patcher, Tracer
    tracer = Tracer()
    before = spans.compile_cache_counts()
    with Patcher(tracer) as patcher:
        spans.install(patcher)
        result = _run_pass(spec.run, seed)
    after = spans.compile_cache_counts()
    delta = (after[0] - before[0], after[1] - before[1])
    return tracer, result, delta


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    # Pin before numpy or repro is imported: threads started later
    # (the rank threads, BLAS pools) inherit the mask.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.host import host_record, pin_to_one_cpu
    pin = pin_to_one_cpu()
    cleared = [k for k in PATH_SWITCHES if os.environ.pop(k, None) is not None]

    from perfbench import spans, stats, workloads
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec.prepare()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = dict(host_record(ROOT, pin), cleared_env=cleared)

    setup_s = ([_time_setup(spec.name) for _ in range(SETUP_PROBES)]
               if args.trace == 0 else [])
    need = stats.min_samples_for(workloads.ITER_PCT)
    passes, rss_mb = _measure(spec, args.seed, args.seconds, need)
    runs = list(passes)
    checks = {}
    fingerprints = {"untraced": sorted({p.fingerprint for p in passes})}
    checks["untraced_fingerprints_agree"] = len(fingerprints["untraced"]) == 1

    if args.trace == 1:
        tracer, traced, delta = _traced_pass(spec, args.seed)
        runs.append(traced)
        fingerprints["traced"] = traced.fingerprint
        checks["traced_fingerprint_agrees"] = (
            traced.fingerprint == passes[0].fingerprint)
        checks.update(spans.liveness(tracer.stats(), spec.live,
                                     spec.bypassed))
        p1 = _run_pass(spec.run_p1, args.seed)
        runs.append(p1)
        untraced_wall = statistics.median(p.wall_s for p in passes)
        layer = spans.layer_metrics(tracer, traced, untraced_wall, p1, delta)
        heldout = _run_pass(spec.run, args.seed + HELDOUT_OFFSET)
        runs.append(heldout)
        fingerprints["heldout"] = heldout.fingerprint

    for i, run in enumerate(runs):
        for name, ok in run.checks.items():
            checks[f"pass{i}:{name}"] = ok
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = all(checks.values())

    e2e = _end_to_end(passes, setup_s, rss_mb, attempted, failed)
    gated = {m["name"] for m in declared["end_to_end"]}
    report = {
        "workload": spec.name, "why": spec.why, "seed": args.seed,
        "trace": args.trace, "host": host,
        "passes": len(passes), "iteration_samples": sum(
            len(p.iter_walls) for p in passes),
        "pass_spread": {
            "iters_per_s": stats.quartile_spread(
                [p.iterations / p.measured_s for p in passes]),
            "us_per_token": stats.quartile_spread(
                [p.measured_s / p.units for p in passes])},
        "checks": checks, "fingerprints": fingerprints,
        "end_to_end": {name: {"value": e2e[name], "unit": unit,
                              "better": better, "gated": name in gated}
                       for name, unit, better in END_TO_END},
    }
    if args.trace == 0:
        declared_metrics = declared["end_to_end"]
        values = e2e
        _print_table(f"{spec.name} (seed {args.seed}): end-to-end metrics",
                     [(name, e2e[name], unit)
                      for name, unit, _ in END_TO_END])
    else:
        declared_metrics = declared["per_layer"]
        values = layer
        coverage_ok = abs(layer["trace.coverage"] - 1.0) <= COVERAGE_TOLERANCE
        report["coverage_within_tolerance"] = coverage_ok
        report["per_layer"] = layer
        _print_table(f"{spec.name} (seed {args.seed}): per-layer metrics",
                     [(name, layer[name], unit)
                      for name, unit in spans.PER_LAYER])
        if not coverage_ok:
            print(f"warning: named self time covers "
                  f"{layer['trace.coverage']:.3f} of the traced wall time",
                  file=sys.stderr)
    if not host["comparable"]:
        print("warning: CPU affinity could not be set; this run is not "
              "comparable with pinned runs", file=sys.stderr)
    for name, ok in checks.items():
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)

    metrics = {}
    for m in declared_metrics:
        value = values.get(m["name"])
        if value is None:
            print(f"perfbench: {spec.name} does not define metric "
                  f"{m['name']!r}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    print(json.dumps({"report": report}, allow_nan=False))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics},
                     allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
