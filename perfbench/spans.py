"""Where the traced pass puts its spans: the layer boundaries of ``repro``.

Every entry wraps a function through which one layer calls the next (see
the mapping table in ``perfbench/README.md``).  :func:`install` applies
them through a :class:`~perfbench.layertrace.Patcher`; closing the
patcher removes them again.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .layertrace import Patcher, layer_of_module

#: labels whose inclusive ``wall - cpu`` is time a rank spent parked
BLOCKING_LABELS: Tuple[str, ...] = (
    "engine.rendezvous", "engine.match_blocking", "engine.shrink")

#: public collectives of :mod:`repro.comm.collectives`
COLLECTIVES: Tuple[str, ...] = (
    "barrier", "bcast", "reduce", "allreduce", "allreduce_recursive_doubling",
    "allreduce_rabenseifner", "allreduce_ring", "reduce_scatter_ring",
    "allgather_ring", "allgatherv", "allgather", "allgatherv_coo",
    "allgather_object", "alltoallv", "alltoall", "gather", "scatter")

#: public selection and threshold functions of :mod:`repro.sparse`
SPARSE_SELECT: Tuple[Tuple[str, str], ...] = (
    ("topk", "kth_largest_abs"), ("topk", "topk_indices"),
    ("topk", "exact_topk"), ("topk", "threshold_indices"),
    ("topk", "threshold_select"), ("topk", "batched_kth_largest_abs"),
    ("topk", "batched_threshold_select"), ("threshold", "exact_threshold"),
    ("threshold", "gaussian_threshold"),
    ("threshold", "adjusted_gaussian_threshold"))

#: point-to-point API of :class:`repro.comm.SimComm`
P2P_METHODS: Tuple[str, ...] = (
    "send", "isend", "isend_batch", "recv", "irecv", "sendrecv", "waitall")


def _post_count(args, kwargs, result):
    # Network.post(self, src, dst, tag, payload, nwords, sender_clock)
    return (("messages", 1), ("words", args[5]))


def _post_batch_count(args, kwargs, result):
    # Network.post_batch(self, src, items, sender_clock); items hold
    # (dst, tag, payload, nwords)
    items = args[2]
    return (("messages", len(items)),
            ("words", sum(item[3] for item in items)))


def _replay_count(args, kwargs, result):
    return (("messages", args[1].nmsgs),)


def _engaged_count(args, kwargs, result):
    return (("engaged", 1 if result else 0),)


def _install_rendezvous(patcher: Patcher, engine_cls: type) -> None:
    """Span the rendezvous and, separately, the executor its last arrival
    runs: labelled by the collective's ``sig[0]`` and attributed to the
    layer of the executor's module, so the work done inside the
    rendezvous is not charged to the engine."""
    tracer = patcher.tracer
    orig = vars(engine_cls)["collective"]
    executors: dict = {}

    def collective(self, rank, sig, payload, executor):
        key = (executor, sig[0])
        traced = executors.get(key)
        if traced is None:
            traced = executors[key] = tracer.traced(
                f"fused.exec.{sig[0]}", executor,
                layer_of_module(executor.__module__))
        return orig(self, rank, sig, payload, traced)

    patcher.set(engine_cls, "collective",
                tracer.traced("engine.rendezvous", collective, "engine"))


def install(patcher: Patcher) -> None:
    """Wrap every layer boundary the per-layer table reports."""
    from repro.allreduce import session
    from repro.allreduce.base import GradientAllreduce
    from repro.allreduce.oktopk import OkTopkAllreduce
    from repro.comm import collectives, fused, launcher
    from repro.comm.communicator import SimComm
    from repro.comm.engine import CoopEngine
    from repro.comm.network import Network
    from repro.data.loader import ShardedLoader
    from repro.nn.module import FlatModel
    from repro.nn.stacked import StackedModel
    from repro.optim.topk_sgd import SparseOptimWrapper, TopkSGD
    from repro.serve import batcher, loop, model
    from repro.sparse import threshold, topk
    from repro.train.rankbatch import RankBatch
    from repro.train.trainer import Trainer

    from . import workloads

    m, f = patcher.method, patcher.function
    # launcher and engine
    f(launcher, "run_spmd", "launcher")
    m(CoopEngine, "run", "engine.run")
    m(CoopEngine, "_rank_main", "engine.rank_main")
    _install_rendezvous(patcher, CoopEngine)
    m(CoopEngine, "match_blocking", "engine.match_blocking")
    m(CoopEngine, "try_match", "engine.try_match")
    m(CoopEngine, "shrink", "engine.shrink")
    # network and the point-to-point API over it
    m(Network, "post", "network.post", _post_count)
    m(Network, "post_batch", "network.post", _post_batch_count)
    m(Network, "deliver", "network.deliver")
    m(Network, "deliver_batch", "network.deliver")
    m(Network, "match_blocking", "network.match")
    m(Network, "try_match", "network.match")
    m(Network, "shrink", "network.shrink")
    for name in P2P_METHODS:
        m(SimComm, name, "p2p")
    # fused schedules and the collectives built on them
    f(fused, "replay", "fused.replay", _replay_count)
    for name in COLLECTIVES:
        f(collectives, name, "collectives")
    # the allreduce scheme, its session and the sparse kernels
    m(GradientAllreduce, "begin", "allreduce.session")
    m(GradientAllreduce, "reduce", "allreduce.session")
    m(session.ReduceSession, "push", "allreduce.session")
    m(session.ReduceSession, "finish", "allreduce.session")
    f(session, "run_session", "allreduce.session")
    m(OkTopkAllreduce, "_reduce", "allreduce.oktopk")
    m(OkTopkAllreduce, "_reduce_bucket", "allreduce.oktopk")
    for mod_name, name in SPARSE_SELECT:
        f({"topk": topk, "threshold": threshold}[mod_name], name,
          "sparse.select")
    # training: loop, optimizer, lockstep batching, model, data
    m(Trainer, "run", "trainer")
    m(TopkSGD, "step", "optim.step")
    m(SparseOptimWrapper, "step", "optim.step")
    m(RankBatch, "loss_and_grad", "rankbatch")
    m(RankBatch, "accumulate", "rankbatch")
    m(RankBatch, "engaged", "rankbatch.engaged", _engaged_count)
    m(FlatModel, "loss_and_grad", "nn")
    m(StackedModel, "__init__", "nn")
    m(StackedModel, "loss_and_grad", "nn")
    m(ShardedLoader, "next_batch", "data")
    # serving: loop, batcher, tensor-parallel model
    f(loop, "simulate_serving", "serveloop")
    f(loop, "_rank_serve", "serveloop")
    f(loop, "_rank_serve_faulted", "serveloop")
    m(batcher.DynamicBatcher, "admit", "batcher.admit")
    for name in ("next_decision", "expire", "requeue", "snapshot", "restore"):
        m(batcher.DynamicBatcher, name, "batcher")
    m(model.TPDecodeModel, "step", "servemodel.step")
    for name in ("snapshot", "restore", "min_service_seconds"):
        m(model.TPDecodeModel, name, "servemodel")
    # the benchmark's own rank program
    f(workloads, "train_rank", "bench.rank")


# ---------------------------------------------------------------------------
# The per-layer table
# ---------------------------------------------------------------------------
#: spans reported with ``.calls`` and ``.self_ms``
SPAN_METRICS: Tuple[str, ...] = (
    "trainer", "optim.step", "allreduce.oktopk", "allreduce.session",
    "sparse.select", "rankbatch", "nn", "data", "engine.rendezvous",
    "fused.replay", "collectives", "p2p", "batcher.admit", "servemodel.step")

#: executor kinds (``sig[0]``) of the rendezvous; any other kind is
#: reported as ``other``
EXEC_KINDS: Tuple[str, ...] = (
    "allreduce", "allgather_object", "allgatherv", "alltoallv", "oktopk_sr",
    "oktopk_select", "rb_fwdbwd", "rb_accumulate", "other")

#: concrete allreduce schedules in the collectives' provenance log
ALGORITHMS: Tuple[str, ...] = ("rabenseifner", "ring", "recursive_doubling")

#: values a pass computes itself (``PassResult.layer``); 0 when the
#: workload does not produce them
PASS_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sparse.selected_over_k", "ratio"),
    ("batcher.queue_wait_ms_p50", "ms"),
    ("batcher.queue_wait_ms_p99", "ms"),
    ("servemodel.batch_occupancy", "ratio"),
    ("serveloop.prefill_batches", "count"),
    ("serveloop.decode_steps", "count"),
    ("faults.shrinks", "count"),
    ("faults.rollbacks", "count"),
    ("faults.requeued", "count"),
    ("faults.retries", "count"),
    ("faults.shed", "count"),
    ("faults.timeouts", "count"),
    ("sim.compute_ms", "ms"),
    ("sim.sparsify_ms", "ms"),
    ("sim.comm_ms", "ms"),
    ("costmodel.comm_ratio", "ratio"),
) + tuple((f"collectives.alg.{name}.calls", "count") for name in ALGORITHMS)


def _per_layer_names() -> Tuple[Tuple[str, str], ...]:
    from .layertrace import LAYERS
    names = []
    for label in SPAN_METRICS:
        names += [(f"{label}.calls", "count"), (f"{label}.self_ms", "ms")]
    names += [("serveloop.self_ms", "ms"),
              ("network.post.calls", "count"),
              ("network.deliver.calls", "count"),
              ("network.self_ms", "ms"),
              ("network.messages", "count"),
              ("network.words", "words"),
              ("engine.match_blocking.calls", "count"),
              ("engine.wait_ms", "ms"),
              ("fused.replay.messages", "count"),
              ("fused.compile.hit_ratio", "ratio"),
              ("rankbatch.engaged_ratio", "ratio")]
    for kind in EXEC_KINDS:
        names += [(f"fused.exec.{kind}.calls", "count"),
                  (f"fused.exec.{kind}.self_ms", "ms")]
    names += list(PASS_METRICS)
    names += [(f"layer.{layer}.self_ms", "ms") for layer in LAYERS]
    names += [("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
              ("baseline.p1_iter_ms", "ms")]
    return tuple(names)


#: every per-layer metric, with its unit, in table order
PER_LAYER: Tuple[Tuple[str, str], ...] = _per_layer_names()


def compile_cache_counts() -> Tuple[int, int]:
    """``(hits, misses)`` summed over the fused schedule compilers' caches."""
    from repro.comm import fused
    hits = misses = 0
    for name in dir(fused):
        info = getattr(getattr(fused, name), "cache_info", None)
        if name.startswith("compile_") and info is not None:
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def layer_metrics(tracer, traced, untraced_wall_s: float, p1, compile_delta
                  ) -> Dict[str, float]:
    """The per-layer table of one traced pass.

    ``traced`` is the traced :class:`~perfbench.workloads.PassResult`,
    ``untraced_wall_s`` the median wall time of the untraced passes of the
    same seed, ``p1`` the single-worker pass and ``compile_delta`` the
    ``(hits, misses)`` of the schedule caches during the traced pass.
    """
    from .layertrace import LAYERS, SpanStat
    stats = tracer.stats()
    empty = SpanStat()

    def span(label: str) -> SpanStat:
        return stats.get(label, empty)

    def ms(seconds: float) -> float:
        return seconds * 1e3

    out: Dict[str, float] = {}
    for label in SPAN_METRICS:
        out[f"{label}.calls"] = span(label).calls
        out[f"{label}.self_ms"] = ms(span(label).self_cpu)
    out["serveloop.self_ms"] = ms(span("serveloop").self_cpu)
    post = span("network.post")
    out["network.post.calls"] = post.calls
    out["network.deliver.calls"] = span("network.deliver").calls
    out["network.self_ms"] = ms(sum(
        st.self_cpu for label, st in stats.items()
        if tracer.layer_of.get(label) == "network"))
    out["network.messages"] = post.counts.get("messages", 0)
    out["network.words"] = post.counts.get("words", 0)
    out["engine.match_blocking.calls"] = span("engine.match_blocking").calls
    out["engine.wait_ms"] = ms(sum(span(label).waited
                                   for label in BLOCKING_LABELS))
    out["fused.replay.messages"] = span("fused.replay").counts.get(
        "messages", 0)
    hits, misses = compile_delta
    out["fused.compile.hit_ratio"] = (hits / (hits + misses)
                                      if hits + misses else 0.0)
    engaged = span("rankbatch.engaged")
    out["rankbatch.engaged_ratio"] = (engaged.counts.get("engaged", 0)
                                      / engaged.calls if engaged.calls
                                      else 0.0)
    known = {f"fused.exec.{kind}" for kind in EXEC_KINDS}
    for kind in EXEC_KINDS:
        out[f"fused.exec.{kind}.calls"] = 0
        out[f"fused.exec.{kind}.self_ms"] = 0.0
    for label, st in stats.items():
        if not label.startswith("fused.exec."):
            continue
        key = label if label in known else "fused.exec.other"
        out[f"{key}.calls"] += st.calls
        out[f"{key}.self_ms"] += ms(st.self_cpu)
    for name, _unit in PASS_METRICS:
        out[name] = traced.layer.get(name, 0.0)
    per_layer = tracer.layer_self(stats)
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = ms(per_layer.get(layer, 0.0))
    named = sum(st.self_cpu for st in stats.values())
    out["trace.overhead_ratio"] = traced.wall_s / untraced_wall_s
    out["trace.coverage"] = named / traced.wall_s
    out["baseline.p1_iter_ms"] = ms(p1.wall_s / p1.iterations)
    return out


def liveness(stats, live: Tuple[str, ...], bypassed: Tuple[str, ...]
             ) -> Dict[str, bool]:
    """Spans a workload must enter have calls > 0; spans it bypasses have
    none.  A pattern ending in ``*`` matches every label with that
    prefix (and is live if any of them is entered)."""
    def calls(pattern: str) -> int:
        if pattern.endswith("*"):
            return sum(st.calls for label, st in stats.items()
                       if label.startswith(pattern[:-1]))
        st = stats.get(pattern)
        return st.calls if st is not None else 0

    out = {f"live:{p}": calls(p) > 0 for p in live}
    out.update({f"bypassed:{p}": calls(p) == 0 for p in bypassed})
    return out
