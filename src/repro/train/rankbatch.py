"""Lockstep rank-batched compute: per-world numpy instead of per-rank.

SPMD data-parallel ranks execute the same numpy kernels at the same
program points on different data.  Under a rendezvous-capable engine
(:class:`repro.comm.engine.CoopEngine`) this module turns
the three per-rank compute hot spots of a training iteration — model
fwd/bwd, the optimizer's residual accumulation and Ok-Topk's local
selection — into *one* stacked numpy dispatch over a ``(P, ...)``
rank-major axis, using the same engine-level rendezvous that carries the
fused collectives of :mod:`repro.comm.fused` (the last rank to arrive
executes for the whole world, then readies the others in rank order).

Bit-identity contract: every batched kernel is elementwise,
row-independent or a gufunc looping the identical 2-D kernel per rank
slice, and all simulated-time charges run through each rank's own
:class:`~repro.comm.SimComm` (straggler scaling and phase attribution
included), so results, traffic counters, clocks and phase times are
bit-identical to per-rank execution under any runner.

Fallback rules (``engaged()``): batching disengages — deterministically
and identically on every rank — whenever ranks can diverge: fault plans,
a revoked world, group communicators (``comm.size != net.nranks``),
message tracing, the threaded/inline runners (no rendezvous engine), or
a model without a stacked execution path.  A disengaged call returns
``None`` and the caller runs the ordinary per-rank code; mid-run
divergence (e.g. elastic shrink) therefore lands on exactly the code a
never-batched run executes.  ``REPRO_RANK_BATCH=0`` disables batching
globally.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence

import numpy as np

from ..nn.stacked import StackedModel, supports_stacking

#: set to ``0``/``false``/``off`` to force per-rank execution everywhere
RANK_BATCH_ENV = "REPRO_RANK_BATCH"


def rank_batching_enabled() -> bool:
    return os.environ.get(RANK_BATCH_ENV, "1").strip().lower() not in (
        "0", "false", "off")


def stack_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """A ``(P, n)`` matrix over per-rank vectors.

    Zero-copy when the vectors already are the consecutive rows of one
    shared base matrix (the steady state: gradients live in the stacked
    model's gradient matrix, residuals in the accumulate buffers);
    ``np.stack`` copy otherwise.
    """
    base = rows[0].base
    if (base is not None and base.ndim == 2
            and base.shape[0] == len(rows)
            and all(r.base is base
                    and r.strides == base.strides[1:]
                    and r.ctypes.data == base.ctypes.data + i * base.strides[0]
                    for i, r in enumerate(rows))):
        return base
    return np.stack(rows)


class _WorldState:
    """Per-network lockstep state shared by the executors: the stacked
    model and the double-buffered accumulate matrices (two buffers
    alternate so the new accumulator never overwrites the residual rows
    that still point into the previous one)."""

    __slots__ = ("stacked", "bufs", "flip")

    def __init__(self):
        self.stacked: Optional[StackedModel] = None
        self.bufs: List[Optional[np.ndarray]] = [None, None]
        self.flip = 0


def _world_state(net) -> _WorldState:
    st = getattr(net, "_rank_batch_state", None)
    if st is None:
        st = net._rank_batch_state = _WorldState()
    return st


# ---------------------------------------------------------------------------
# Executors (module-level, identical across ranks — rendezvous contract)
# ---------------------------------------------------------------------------
def _exec_fwd_bwd(net, sig, payloads):
    st = _world_state(net)
    models = [p[0] for p in payloads]
    xs = [p[1] for p in payloads]
    ys = [p[2] for p in payloads]
    stacked = st.stacked
    if stacked is None or stacked.models != models:
        try:
            stacked = st.stacked = StackedModel(models)
        except ValueError:
            # Not actually SPMD (diverged weights/shapes): run each
            # rank's own math — identical kernels, identical results.
            return [m.loss_and_grad(x, y) for m, x, y in zip(models, xs, ys)]
    if (any(x.shape != xs[0].shape for x in xs)
            or any(y.shape != ys[0].shape for y in ys)):
        # Uneven shards cannot stack; per-rank fallback (same kernels).
        return [m.loss_and_grad(x, y) for m, x, y in zip(models, xs, ys)]
    losses, gmat = stacked.loss_and_grad(np.stack(xs), np.stack(ys))
    return [(float(losses[r]), gmat[r]) for r in range(len(payloads))]


def _exec_accumulate(net, sig, payloads):
    st = _world_state(net)
    scale = payloads[0][1]
    if any(p[1] != scale for p in payloads):
        # Diverged schedules: per-rank arithmetic (same expression).
        return [res + s * g.astype(np.float32, copy=False)
                for res, s, g in payloads]
    res = stack_rows([p[0] for p in payloads])
    grads = stack_rows([p[2].astype(np.float32, copy=False)
                        for p in payloads])
    buf = st.bufs[st.flip]
    if buf is None or buf.shape != res.shape or buf is res or buf is grads:
        buf = np.empty_like(res)
    st.bufs[st.flip] = buf
    st.flip ^= 1
    # Same expression as the per-rank path (``residual + scale * grad``):
    # scalar-times-float32 stays float32, and IEEE addition commutes
    # bit-for-bit.
    if scale == 1.0:
        np.add(res, grads, out=buf)
    else:
        np.multiply(grads, scale, out=buf)
        buf += res
    return [buf[r] for r in range(res.shape[0])]


# ---------------------------------------------------------------------------
# Per-rank handle
# ---------------------------------------------------------------------------
class RankBatch:
    """One rank's handle on the world's lockstep batched compute.

    Created by the trainer and published as ``comm.rank_batch`` so that
    deeper layers (the Ok-Topk local selection) can join the batch.  All
    entry points return ``None`` when lockstep execution is not engaged;
    callers then run their ordinary per-rank code.
    """

    def __init__(self, comm, model: Any = None):
        self.comm = comm
        self.model = model
        self._supported = rank_batching_enabled() and (
            model is None or supports_stacking(model))

    def engaged(self) -> bool:
        """Deterministic, rank-uniform gate (see module docstring)."""
        if not self._supported:
            return False
        comm = self.comm
        net = comm.net
        sched = net._sched
        return (sched is not None and hasattr(sched, "collective")
                and comm.size > 1
                and comm.size == net.nranks
                and net.faults is None and not net.revoked
                and not net.trace_enabled)

    # -- trainer entry points ------------------------------------------
    def loss_and_grad(self, t: int, x: np.ndarray, y: np.ndarray):
        """World-stacked fwd/bwd.  Returns ``(loss, grad_row_view)`` or
        ``None`` when not engaged.  The gradient is a row view of the
        stacked gradient matrix, valid until the next iteration's
        fwd/bwd (the trainer consumes it within the iteration)."""
        if self.model is None or not self.engaged():
            return None
        return self.comm.fused_collective(
            ("rb_fwdbwd", t), (self.model, x, y), _exec_fwd_bwd)

    def accumulate(self, t: int, residual: np.ndarray, scale: float,
                   grad: np.ndarray):
        """World-stacked ``residual + scale * grad``.  Returns this
        rank's accumulator row (a view of a shared double-buffered
        matrix) or ``None`` when not engaged."""
        if not self.engaged():
            return None
        return self.comm.fused_collective(
            ("rb_accumulate", t), (residual, scale, grad), _exec_accumulate)
