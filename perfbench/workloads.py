"""The benchmark's workloads: inputs from a seed, one pass, output checks.

A *pass* runs one workload once through the public API and returns a
:class:`PassResult`: its wall time, the wall time of every loop iteration
(timestamped on rank 0), the simulated outputs the metrics are computed
from, the output checks and a fingerprint of the simulated outputs.
Two passes on the same seed must produce the same fingerprint.

Importing this module imports ``repro`` (and numpy), so the caller pins
the process to one CPU first (see :mod:`perfbench.host`).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.bench.harness import perf_proxy, proxy_network
from repro.comm import FaultPlan, RankCrash, run_spmd
from repro.costmodel import iteration_seconds
from repro.data import ShardedLoader
from repro.serve import ServeConfig, Workload, simulate_serving
from repro.serve import loop as serve_loop
from repro.serve import model as serve_model
from repro.train import Trainer, TrainerConfig

from . import stats
from .layertrace import Patcher

# ---------------------------------------------------------------------------
# Workload shapes
# ---------------------------------------------------------------------------
TRAIN_P = 16
TRAIN_DENSITY = 0.02
#: 4 repartition periods (tau=64), 8 threshold periods (tau'=32)
TRAIN_ITERATIONS = 256
#: the first repartition period is start-up (dense early gradients):
#: metrics are taken over the 192 steady-state iterations after it
TRAIN_SKIP = 64
TRAIN_WARMUP_ITERATIONS = 8

SERVE_P = 4
SERVE_RATE = 2000.0           # requests per simulated second, open loop
SERVE_PROMPT_TOKENS = 96
SERVE_OUTPUT_TOKENS = 8
SERVE_MAX_BATCH = 8
#: 1024 requests: TTFT p99 has ten requests beyond it
SERVE_REQUESTS = 1024
SERVE_WARMUP_REQUESTS = 64
#: seed of the fault plan's rank placement: ``straggler_skew(4, 4)``
#: puts the straggler on rank 2 and the slow link on rank 3.  Fixed, not
#: drawn from the workload seed: with the placement left to the seed, the
#: runs split into modes by which fault the crash removes, and the
#: simulated metrics spread by a third across seeds.
PLAN_SEED = 4
#: the planned crash: the straggler's rank, early in the busy period
#: (at this share of the arrival span), so the survivors serve most of
#: the traffic with the slow link alone and stay below saturation
CRASH_RANK = 2
CRASH_SHARE = 0.1

#: percentile of ``iter_ms_p95``; a run takes passes until it has the
#: samples this percentile needs
ITER_PCT = 95.0


@dataclass
class PassResult:
    """One pass of one workload."""

    #: wall seconds of the whole pass
    wall_s: float
    #: wall seconds of the measured window (the whole pass when serving)
    measured_s: float
    #: wall seconds between consecutive loop-iteration starts on rank 0,
    #: within the measured window
    iter_walls: List[float]
    #: loop iterations (training iterations, serving engine steps) and
    #: output units (training samples, generated tokens) in the window
    iterations: int
    units: int
    attempted: int
    failed: int
    checks: Dict[str, bool]
    fingerprint: str
    #: simulated end-to-end metrics (deterministic per seed)
    sim: Dict[str, Optional[float]]
    #: workload-specific values the per-layer table reads
    layer: Dict[str, float] = field(default_factory=dict)


def control_slack(p: int) -> int:
    """Control words (owner ids, sizes, boundaries) on top of Theorem
    3.1's interval, as in ``tests/test_allreduce_volume.py``."""
    return 8 * p + 64


def crash_time(n_requests: int) -> float:
    """Simulated time of the planned crash: inside the busy period."""
    return CRASH_SHARE * n_requests / SERVE_RATE


def fault_plan(n_requests: int) -> FaultPlan:
    """``straggler_skew(4, PLAN_SEED)`` plus one crash at a fixed time."""
    skew = FaultPlan.straggler_skew(SERVE_P, seed=PLAN_SEED)
    return FaultPlan(links=skew.links, stragglers=skew.stragglers,
                     crashes=(RankCrash(rank=CRASH_RANK,
                                        time=crash_time(n_requests)),),
                     detect_timeout=skew.detect_timeout, seed=PLAN_SEED)


def _ms(samples: List[float], q: float) -> Optional[float]:
    """``q``-th percentile of samples in seconds, in ms (``None`` when the
    sample does not support it)."""
    value = stats.supported_percentile(samples, q)
    return None if value is None else value * 1e3


def _finite(values) -> bool:
    return all(v is None or math.isfinite(v) for v in values)


def _algorithm_calls(provenance: Dict[str, Dict[str, int]]
                     ) -> Dict[str, int]:
    """Allreduce calls per concrete schedule, from the provenance log
    (``"collective/algorithm/mode" -> {"calls", "words"}``)."""
    out: Dict[str, int] = {}
    for key, entry in provenance.items():
        name = f"collectives.alg.{key.split('/')[1]}.calls"
        out[name] = out.get(name, 0) + entry["calls"]
    return out


# ---------------------------------------------------------------------------
# train-oktopk
# ---------------------------------------------------------------------------
class StampedLoader:
    """Loader wrapper that timestamps every ``next_batch`` (the start of a
    training iteration)."""

    def __init__(self, inner: ShardedLoader, stamps: List[float]):
        self.inner = inner
        self.stamps = stamps

    def next_batch(self, t: int):
        self.stamps.append(time.perf_counter())
        return self.inner.next_batch(t)


def train_rank(comm, iterations: int, seed: int, stamps: List[float]):
    """Rank program of ``train-oktopk``: the perf_mlp probe under Ok-Topk."""
    proxy = perf_proxy()
    train, _ = proxy.make_splits()
    loader = ShardedLoader(train, proxy.global_batch, comm.rank, comm.size,
                           seed=seed)
    if comm.rank == 0:
        loader = StampedLoader(loader, stamps)
    cfg = TrainerConfig(iterations=iterations, scheme="oktopk",
                        density=TRAIN_DENSITY, lr=proxy.lr, mode=proxy.mode)
    return Trainer(comm, proxy.make_model(), loader, cfg).run()


def run_train(seed: int, iterations: int = TRAIN_ITERATIONS,
              p: int = TRAIN_P, skip: int = TRAIN_SKIP) -> PassResult:
    """One training pass; metrics cover iterations ``skip + 1`` on."""
    stamps: List[float] = []
    t0 = time.perf_counter()
    res = run_spmd(p, train_rank, iterations, seed, stamps,
                   model=proxy_network())
    wall = time.perf_counter() - t0
    runs = res.results
    rec0 = runs[0]
    proxy = perf_proxy()
    n = proxy.make_model().nparams
    k = max(1, int(TRAIN_DENSITY * n))

    # an iteration fails unless every rank recorded it with a finite loss
    expected = list(range(1, iterations + 1))
    done = set(expected)
    for run in runs:
        done &= {r.t for r in run.records if math.isfinite(r.loss)}
    one_record_each = all([r.t for r in run.records] == expected
                          for run in runs)
    # Theorem 3.1 plus control words: every rank receives at most
    # 6k(P-1)/P + slack words per iteration (the per-rank bound of
    # tests/test_allreduce_volume.py), and the ranks' mean, words_per_iter,
    # lies in [2k(P-1)/P, 6k(P-1)/P + slack]
    lo = 2 * k * (p - 1) / p
    hi = 6 * k * (p - 1) / p + control_slack(p)
    measured = iterations - skip
    words = [sum(r.words_recv for r in run.records[skip:]) / measured
             for run in runs]
    mean_words = sum(words) / len(words)
    in_interval = p == 1 or (max(words) <= hi and lo <= mean_words <= hi)

    sim_iter = sum(r.iteration_time for r in rec0.records[skip:]) / measured
    tail = [r.loss for run in runs for r in run.records[-32:]]
    breakdown = rec0.mean_breakdown(skip=skip)
    model_comm = iteration_seconds(
        "oktopk", n, p, k, proxy_network())["communication"] if p > 1 else 0.0
    sim = {
        "sim_iter_ms": sim_iter * 1e3,
        "words_per_iter": mean_words,
        "goodput_tok_s": proxy.global_batch / sim_iter,
        "loss_tail": sum(tail) / len(tail),
    }
    selected = [r.selected for r in rec0.records[skip:]
                if r.selected is not None]
    layer = {
        "sim.compute_ms": breakdown["computation+io"] * 1e3,
        "sim.sparsify_ms": breakdown["sparsification"] * 1e3,
        "sim.comm_ms": breakdown["communication"] * 1e3,
        "costmodel.comm_ratio": (breakdown["communication"] / model_comm
                                 if model_comm > 0 else 0.0),
        "sparse.selected_over_k": (sum(selected) / len(selected) / k
                                   if selected else 0.0),
        **_algorithm_calls(res.network.algorithm_provenance()),
    }
    st = res.stats
    fp = stats.fingerprint({
        "records": [run.to_dict() for run in runs],
        "events": [run.events for run in runs],
        "clocks": list(res.network.clocks),
        "traffic": [st.words_sent, st.words_recv, st.msgs_sent, st.msgs_recv],
        "algorithms": res.network.algorithm_provenance(),
    })
    checks = {
        "finite_losses": all(math.isfinite(r.loss)
                             for run in runs for r in run.records),
        "one_record_per_iteration": one_record_each,
        "words_in_theorem_3_1_interval": in_interval,
        "finite_metrics": _finite(list(sim.values()) + list(layer.values())),
    }
    window = stamps[skip:]
    return PassResult(
        wall_s=wall, measured_s=window[-1] - window[0],
        iter_walls=[b - a for a, b in zip(window, window[1:])],
        iterations=len(window) - 1,
        units=(len(window) - 1) * proxy.global_batch,
        attempted=iterations, failed=iterations - len(done), checks=checks,
        fingerprint=fp, sim=sim, layer=layer)


def prepare_train() -> None:
    perf_proxy().make_splits()
    run_train(seed=0, iterations=TRAIN_WARMUP_ITERATIONS, skip=0)


# ---------------------------------------------------------------------------
# serve-mixed / serve-faults
# ---------------------------------------------------------------------------
@contextmanager
def _serve_probes(stamps: List[float], spmd: List[Any]):
    """Timestamp every engine step on rank 0 and keep the launcher's
    result (the traffic counters the serving report does not carry).
    Wraps whatever is installed, so it composes with the tracer."""
    step = serve_model.TPDecodeModel.step
    launch = serve_loop.run_spmd

    def stamped_step(self, tokens):
        if self.comm.rank == 0:
            stamps.append(time.perf_counter())
        return step(self, tokens)

    def keep_result(*args, **kwargs):
        res = launch(*args, **kwargs)
        spmd.append(res)
        return res

    with Patcher() as patch:
        patch.set(serve_model.TPDecodeModel, "step", stamped_step)
        patch.set(serve_loop, "run_spmd", keep_result)
        yield


def run_serve(seed: int, faulted: bool, n_requests: int = SERVE_REQUESTS,
              p: int = SERVE_P) -> PassResult:
    workload = Workload.poisson(
        n_requests, SERVE_RATE, prompt_tokens=SERVE_PROMPT_TOKENS,
        output_tokens=SERVE_OUTPUT_TOKENS, seed=seed)
    plan = fault_plan(n_requests) if faulted else None
    cfg = ServeConfig(p=p, rate=SERVE_RATE, prompt_tokens=SERVE_PROMPT_TOKENS,
                      output_tokens=SERVE_OUTPUT_TOKENS,
                      max_batch_size=SERVE_MAX_BATCH, algorithm="adaptive")
    stamps: List[float] = []
    spmd: List[Any] = []
    with _serve_probes(stamps, spmd):
        t0 = time.perf_counter()
        report = simulate_serving(cfg, workload=workload, faults=plan)
        wall = time.perf_counter() - t0
    net = spmd[0].network
    reqs = report.requests
    done = report.completed_requests
    steps = report.steps["prefill_batches"] + report.steps["decode_steps"]
    words = sum(net.words_recv) / p / steps

    well_formed = all(
        len(r.token_times) == r.output_tokens
        and r.admitted is not None and r.arrival <= r.admitted <= r.first_token
        and all(a <= b for a, b in zip(r.token_times, r.token_times[1:]))
        for r in done)
    ttft = [r.ttft for r in done]
    itl = report.itl_samples
    queue = [r.admitted - r.arrival for r in done]
    decode_rows = sum(len(r.token_times) - 1 for r in done)
    sim = {
        "sim_iter_ms": report.makespan / steps * 1e3,
        "words_per_iter": words,
        "goodput_tok_s": report.goodput_tokens_per_s,
        "ttft_ms_p50": _ms(ttft, 50.0),
        "ttft_ms_p99": _ms(ttft, 99.0),
        "itl_ms_p50": _ms(itl, 50.0),
        "itl_ms_p99": _ms(itl, 99.0),
        "recovery_ms": report.recovery_time * 1e3 if faulted else None,
    }
    events = report.events
    layer = {
        "batcher.queue_wait_ms_p50": _ms(queue, 50.0) or 0.0,
        "batcher.queue_wait_ms_p99": _ms(queue, 99.0) or 0.0,
        "servemodel.batch_occupancy": (
            decode_rows / (report.steps["decode_steps"] * SERVE_MAX_BATCH)
            if report.steps["decode_steps"] else 0.0),
        "serveloop.prefill_batches": report.steps["prefill_batches"],
        "serveloop.decode_steps": report.steps["decode_steps"],
        "faults.shrinks": len(events),
        "faults.rollbacks": sum(ev.get("rollback", 0) for ev in events),
        "faults.requeued": sum(len(ev.get("requeued", ())) for ev in events),
        "faults.retries": sum(r.retries for r in reqs),
        "faults.shed": sum(1 for r in reqs if r.status == "shed"),
        "faults.timeouts": sum(1 for r in reqs if r.status == "timeout"),
        **_algorithm_calls(report.algorithms),
    }
    checks = {
        "records_well_formed": well_formed,
        "generated_tokens_match_records": report.generated_tokens == sum(
            r.output_tokens for r in done),
        "finite_metrics": _finite(list(sim.values()) + list(layer.values())),
    }
    if faulted:
        checks["crash_recovered"] = (
            len(events) == 1 and report.recovery_time > 0.0)
    else:
        checks["every_request_completes"] = len(done) == len(reqs)
    st = net.stats()
    fp = stats.fingerprint({
        "requests": [[r.rid, r.arrival, r.prompt_tokens, r.output_tokens,
                      r.admitted, list(r.token_times), r.status, r.retries,
                      r.deadline] for r in reqs],
        "checksum": report.checksum,
        "makespan": report.makespan,
        "steps": report.steps,
        "events": events,
        "algorithms": report.algorithms,
        "clocks": list(net.clocks),
        "traffic": [st.words_sent, st.words_recv, st.msgs_sent, st.msgs_recv],
    })
    return PassResult(
        wall_s=wall, measured_s=wall,
        iter_walls=[b - a for a, b in zip(stamps, stamps[1:])],
        iterations=len(stamps), units=report.generated_tokens,
        attempted=len(reqs), failed=len(reqs) - len(done), checks=checks,
        fingerprint=fp, sim=sim, layer=layer)


def prepare_serve(faulted: bool) -> None:
    run_serve(seed=0, faulted=faulted, n_requests=SERVE_WARMUP_REQUESTS)


# ---------------------------------------------------------------------------
# The workload table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: dataset build and a warm-up run that fills the schedule caches
    prepare: Callable[[], None]
    #: one pass on a seed
    run: Callable[[int], PassResult]
    #: the same task at P=1 (the single-worker baseline)
    run_p1: Callable[[int], PassResult]
    #: per-layer metrics this workload must enter (calls > 0) or bypass
    live: tuple
    bypassed: tuple


#: spans of the fused path (a pattern ending in ``*`` is a label prefix)
_FUSED_SPANS = ("engine.rendezvous", "fused.exec.*", "fused.replay")
_TRAIN_SPANS = ("trainer", "optim.step", "allreduce.oktopk",
                "allreduce.session", "sparse.select", "rankbatch", "nn",
                "data", "collectives") + _FUSED_SPANS
_SERVE_SPANS = ("serveloop", "batcher.admit", "servemodel.step",
                "collectives")

WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec(
            name="train-oktopk",
            why=("Ok-Topk at P=16 on the comm-dominated perf_mlp probe: "
                 "allreduce/, sparse/, rank batching and the fused "
                 "rendezvous do most of the work"),
            prepare=prepare_train,
            run=run_train,
            run_p1=lambda seed: run_train(seed, p=1),
            live=_TRAIN_SPANS,
            bypassed=("network.post", "batcher.admit", "servemodel.step")),
        WorkloadSpec(
            name="serve-mixed",
            why=("open-loop Poisson serving at P=4: thousands of small fused "
                 "allreduces, prefill on the bandwidth path and decode on "
                 "the latency path"),
            prepare=lambda: prepare_serve(False),
            run=lambda seed: run_serve(seed, faulted=False),
            run_p1=lambda seed: run_serve(seed, faulted=False, p=1),
            live=_SERVE_SPANS + _FUSED_SPANS,
            bypassed=("network.post", "sparse.select", "allreduce.oktopk",
                      "nn", "trainer")),
        WorkloadSpec(
            name="serve-faults",
            why=("the same traffic under a straggler, a slow link and one "
                 "rank crash: the only user-facing path through per-message "
                 "posts, blocking receives and elastic recovery"),
            prepare=lambda: prepare_serve(True),
            run=lambda seed: run_serve(seed, faulted=True),
            run_p1=lambda seed: run_serve(seed, faulted=False, p=1),
            live=_SERVE_SPANS + ("network.post", "network.deliver",
                                 "engine.match_blocking", "p2p"),
            bypassed=_FUSED_SPANS + ("sparse.select", "nn", "trainer")),
    )
}
