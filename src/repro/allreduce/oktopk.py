"""Ok-Topk's O(k) sparse allreduce (Algorithm 1 and Section 3 of the paper).

Two phases per iteration:

1. **split and reduce** — the gradient space is partitioned into P regions
   (boundaries balanced over the local top-k coordinate distribution and
   agreed by consensus averaging every ``tau`` iterations); worker ``i``
   reduces region ``i``.  Messages follow a destination-rotation schedule
   and are grouped into buckets whose local reduction overlaps the next
   bucket's transfers (Figure 2).  Cost: ``(P-1) alpha + 2k (P-1)/P beta``.

2. **balance and allgatherv** — each worker selects the global top-k values
   inside its region with an estimated global threshold, packages them, and
   (only when the package sizes are skewed by more than ``balance_trigger``
   times the average) rebalances the packages with point-to-point moves
   before the final recursive-doubling/Bruck allgatherv.  Cost bounded by
   ``(P + 2 log P) alpha + 4k (P-1)/P beta``.

Thresholds: both the local and the global top-k thresholds are re-evaluated
exactly (sort-based) every ``tau_prime`` iterations and *reused* in between
(Section 3.1.3), making the per-iteration selection a single linear scan.

Total: less than ``6k (P-1)/P`` bandwidth — asymptotically optimal against
the ``2k (P-1)/P`` lower bound of Theorem 3.1.

Shared periodic state and bucketed sessions
-------------------------------------------

All periodic quantities — the reused local/global thresholds, the
consensus region boundaries, and the evaluation/repartition counters —
live in one :class:`OkTopkState` keyed to the *full* gradient length.  The
one-shot :meth:`OkTopkAllreduce._reduce` reads and writes it exactly as
before.  The scheme is additionally ``bucketable``: under a multi-bucket
:class:`~repro.allreduce.session.ReduceSession` each bucket runs
split-and-reduce + balance-and-allgatherv over its own slice (with its
proportional ``split_k`` budget) while **reading** the shared state
instead of thrashing it:

* every bucket selects by one linear scan against the **shared local
  threshold**; the selection guard is applied *per bucket* against the
  bucket's own budget, and a guard-triggered re-evaluation stays
  bucket-local (it is never written back — per-bucket writes would thrash
  the full-gradient estimate the sibling buckets read).  Likewise the
  per-bucket phase 2 reads the **shared global threshold**;
* on the ``tau_prime`` schedule both thresholds are re-evaluated **once
  per iteration, from the full gradient**: the last funded bucket — the
  point where the concatenation of the pushed segments *is* the whole
  gradient — re-estimates the local threshold from the full accumulator
  (global ``k``) and the global threshold from the union of all buckets'
  reduced slices (one values-only allgatherv), exactly the one-shot
  estimates.  They take effect from the next iteration, so the reuse
  window is at most ``tau_prime + 1`` iterations instead of
  ``tau_prime`` — well inside the paper's slowly-changing-statistics
  assumption.  At the very first iteration (no cached state yet) the
  first funded bucket bootstraps cheap estimates: the local threshold
  from the segments pushed so far (``k`` scaled to the visible
  fraction), the global threshold from its own reduced slice (bucket
  budget); the per-bucket guard covers the one-iteration bias;
* the **region boundaries** stay keyed to the full gradient.  Each bucket
  intersects the consensus boundaries with its extent (clip to
  ``[lo, hi)``, shift by ``lo``), so worker ``i`` reduces
  ``region i ∩ bucket``.  The consensus itself runs on the ``tau``
  schedule in the last funded bucket and takes effect from the next
  iteration; until the first consensus the naive equal split is used (it
  needs no collective and is identical on every rank).

A one-bucket plan never reaches this path (sessions delegate to the
one-shot ``_reduce``, bit-identical by construction).

World-level steady state
------------------------

Between re-evaluations every piece of control state except each rank's
own accumulator is rank-uniform: the global threshold and the consensus
boundaries are identical on every rank, the reused local thresholds
need no collective, and which iterations are due is a function of ``t``
alone.  So when lockstep rank batching is engaged
(``comm.rank_batch``), the fused path is available at this world size
and the iteration is in steady state (thresholds and boundaries cached,
neither the τ nor the τ′ schedule due), the one-shot ``_reduce`` enters
ONE rendezvous, ``("oktopk_world", t, k, ...)``, whose executor
(:func:`_exec_world`) runs Algorithm 1 for every rank:

1. threshold selection over the stacked ``(P, n)`` accumulator
   (:func:`_select_rows`, shared with the rank-batched selection of due
   iterations, per-rank guard re-evaluation included);
2. the split of every selection by the shared boundaries — one
   ``searchsorted`` over the flat selection;
3. split-and-reduce: the booking is :func:`_replay_split_reduce`, the
   same vectorized implementation the per-rank fused executor uses,
   and the owners' folds one :func:`_owner_sums` pass;
4. phase 2: region selection and package sizes per rank, the
   rank-uniform balance decision, and the allgather-object, optional
   alltoallv and allgatherv schedules replayed from the compiled-schedule
   cache.  Rebalancing preserves the global order, so ``u_t`` is the
   region-order concatenation of the packages either way; it is built
   once and shared read-only by every rank;
5. the per-rank intersection of line 14.

Every rank's compute charges and ``phase`` attribution run in its
per-rank order, so clocks, phase times, traffic counters, provenance and
the ``OkTopkState`` counters are bit-identical to the per-rank path.
Iteration 1 and due iterations, the threaded runner, fault plans,
tracing, group communicators, worlds below the fusion floor and
subclasses overriding a phase keep the per-rank path, which remains the
reference oracle (``tests/test_oktopk_world.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np

from ..comm import SimComm, collectives as coll
from ..comm import fused as _fused
from ..comm.fused import compile_allgatherv, compile_alltoallv, replay
from ..errors import ConfigError
from ..sparse import (
    COOVector,
    balanced_boundaries_local,
    combine_sum,
    equal_boundaries,
    exact_topk,
    intersect_sorted,
    kth_largest_abs,
    sanitize_boundaries,
    threshold_select,
)
from ..sparse.coo import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.topk import batched_kth_largest_abs, batched_threshold_select
from .base import PHASE_COMM, PHASE_SPARSIFY, AllreduceResult, GradientAllreduce
from .schedule import buckets, make_steps
from .session import BucketView

_TAG_SR = (1 << 21) + 21      # split-and-reduce region pieces
_TAG_BAL = (1 << 21) + 22     # data-balancing moves


class _SRPlan:
    """The split-and-reduce exchange of every rank, compiled once per
    ``(P, rotation, bucket_size)``.

    ``buckets`` holds, per bucket, the posting and the receiving ranks
    grouped by message count — ``(ranks, peers)`` with ``peers[i]`` the
    destinations (sources) of ``ranks[i]`` in program (request) order —
    so each group books as one ``(g, m)`` matrix.  ``gather_owner`` /
    ``gather_src`` list every ``(owner, source)`` piece in the order the
    owner folds them: its own piece first, then the request order.
    """

    __slots__ = ("buckets", "gather_owner", "gather_src")

    def __init__(self, p: int, rotation: bool, bucket_size: int):
        rank_buckets = [list(buckets(make_steps(r, p, rotation),
                                     bucket_size)) for r in range(p)]
        self.buckets = []
        for bb in range(len(rank_buckets[0])):
            sends = [[d for step in rank_buckets[r][bb] for d in step.send_to]
                     for r in range(p)]
            recvs = [[s for step in rank_buckets[r][bb]
                      for s in step.recv_from] for r in range(p)]
            self.buckets.append((_by_count(sends), _by_count(recvs)))
        order = [(r, s) for r in range(p)
                 for s in (r, *(s for bk in rank_buckets[r] for step in bk
                                for s in step.recv_from))]
        self.gather_owner = np.array([o for o, _ in order], dtype=np.int64)
        self.gather_src = np.array([s for _, s in order], dtype=np.int64)


def _by_count(peer_lists: List[List[int]]) -> tuple:
    """Group ranks with a non-empty peer list by its length."""
    groups: dict = {}
    for r, peers in enumerate(peer_lists):
        if peers:
            groups.setdefault(len(peers), []).append(r)
    return tuple((np.array(rs, dtype=np.int64),
                  np.array([peer_lists[r] for r in rs], dtype=np.int64))
                 for _, rs in sorted(groups.items()))


@lru_cache(maxsize=64)
def _sr_plan(p: int, rotation: bool, bucket_size: int) -> _SRPlan:
    return _SRPlan(p, rotation, bucket_size)


def _replay_split_reduce(net, plan: _SRPlan, counts: np.ndarray) -> None:
    """Book every rank's split-and-reduce exchange, bit-identically to the
    per-message path (:meth:`OkTopkAllreduce._split_and_reduce`).

    ``counts[s, d]`` is the nnz of rank ``s``'s piece for region ``d``
    (``2 * nnz`` wire words).  Bucket by bucket, for all ranks at once:
    ``isend_batch``'s egress booking (the ``o_inject`` clock chain from
    :meth:`NetworkModel.isend_avail`, then
    :meth:`NetworkModel.serialize_rows`), the overlap
    ``compute_words(2 * prev_words)`` charge, ``waitall``'s
    arrival-sorted ingress booking (ties by source, like the reference
    ``(t_first, src, seq)`` sort) and the send-request waits.  Row-wise
    ``cumsum`` is the same left fold as the scalar clock and link
    updates, and ``max`` is exact, so clocks and links land where
    ``P (P-1)`` individual posts and deliveries would leave them.
    """
    model = net.model
    alpha, o_send = model.alpha, model.o_send
    o_inject, gamma = model.o_inject, model.gamma
    p = counts.shape[0]
    words = 2 * counts
    wf = words.astype(np.float64)
    clocks = np.array(net.clocks, dtype=np.float64)
    eg = np.array(net.egress_free, dtype=np.float64)
    ing = np.array(net.ingress_free, dtype=np.float64)
    t_first = np.empty((p, p))
    prev = np.zeros(p, dtype=np.int64)
    for sends, recvs in plan.buckets:
        last_done = np.full(p, -np.inf)
        # -- posts: one batched egress booking per rank (isend_batch) ----
        for ranks, dst in sends:
            m = dst.shape[1]
            rows = ranks[:, None]
            avail = model.isend_avail(clocks[ranks], m)
            if o_inject:
                # one more charge after the last post: the scalar fold
                clocks[ranks] = avail[:, -1] + o_inject
            starts, ends = model.serialize_rows(eg[ranks], avail,
                                                wf[rows, dst])
            eg[ranks] = ends[:, -1]
            t_first[rows, dst] = starts + alpha
            # link ends are non-decreasing, so the last send completes last
            last_done[ranks] = ends[:, -1] + o_send
        # -- overlap: reduce the previous bucket while this one flies ----
        clocks += gamma * (2 * prev)
        # -- waitall: arrival-sorted batched delivery + send waits -------
        prev = np.zeros(p, dtype=np.int64)
        for ranks, src in recvs:
            cols = ranks[:, None]
            tf = t_first[src, cols]
            order = np.lexsort((src, tf), axis=-1)
            _, ends = model.serialize_rows(
                ing[ranks], np.take_along_axis(tf, order, axis=1),
                np.take_along_axis(wf[src, cols], order, axis=1))
            ing[ranks] = ends[:, -1]
            clocks[ranks] = np.maximum(clocks[ranks], ends[:, -1])
            prev[ranks] = counts[src, cols].sum(axis=1)
        np.maximum(clocks, last_done, out=clocks)
    clocks += gamma * (2 * prev)
    net.clocks[:] = clocks.tolist()
    net.egress_free[:] = eg.tolist()
    net.ingress_free[:] = ing.tolist()
    # every off-diagonal piece is one message, empty ones included
    own = np.diagonal(words)
    sent = (words.sum(axis=1) - own).tolist()
    recv = (words.sum(axis=0) - own).tolist()
    for r in range(p):
        net.words_sent[r] += sent[r]
        net.words_recv[r] += recv[r]
        net.msgs_sent[r] += p - 1
        net.msgs_recv[r] += p - 1


def _owner_sums(keys: np.ndarray, vals: np.ndarray, p: int, n: int):
    """The owners' split-and-reduce folds in one pass.

    ``keys`` are region indices biased by ``owner * n`` and concatenated
    owner by owner, each owner's pieces in fold order.  Region index
    ranges are disjoint per owner, so ONE stable sort + ``reduceat``
    reproduces every per-owner :func:`~repro.sparse.combine_sum` exactly:
    within an owner the stable sort keeps pieces in fold order, reduceat
    accumulates the identical float64 partial sums (a one-element run is
    returned unchanged), and the single float32 cast matches.  Returns
    ``(group_keys, sums, cuts)``; owner ``r`` holds ``[cuts[r],
    cuts[r+1])``.
    """
    if keys.size == 0:
        return (keys, np.empty(0, VALUE_DTYPE),
                np.zeros(p + 1, dtype=np.intp))
    size = keys.size
    if p * n * size < 1 << 62:
        # The stable argsort by key as one plain sort (about 3x faster):
        # ``key * size + position`` is unique, so ascending order is by
        # key with ties in input order.
        key_sorted, order = np.divmod(
            np.sort(keys * size + np.arange(size, dtype=np.int64)), size)
    else:
        order = np.argsort(keys, kind="stable")
        key_sorted = keys[order]
    val_sorted = vals[order]
    boundary = np.empty(key_sorted.size, dtype=bool)
    boundary[0] = True
    np.not_equal(key_sorted[1:], key_sorted[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    sums = np.add.reduceat(val_sorted, starts,
                           dtype=np.float64).astype(VALUE_DTYPE)
    group_keys = key_sorted[starts]
    cuts = np.searchsorted(group_keys, np.arange(p + 1, dtype=np.int64) * n)
    return group_keys, sums, cuts


def _exec_split_reduce(net, sig, payloads):
    """Fused executor for split-and-reduce (the macro-collective form of
    :meth:`OkTopkAllreduce._split_and_reduce`'s exchange).

    ``payloads[r]`` is rank ``r``'s region pieces (one COO vector per
    destination).  The booking is :func:`_replay_split_reduce` — the
    implementation the world-level executor shares — and the reduction
    one :func:`_owner_sums` pass over the pieces in each owner's fold
    order (its own piece, then the static request order), exactly what
    the per-message path folds — without creating a single message
    object or parking a single thread.
    """
    _, rotation, bucket_size = sig
    p = len(payloads)
    n = payloads[0][0].n
    plan = _sr_plan(p, rotation, bucket_size)
    counts = np.array([[piece.indices.size for piece in pieces]
                       for pieces in payloads], dtype=np.int64)
    _replay_split_reduce(net, plan, counts)
    owners, srcs = plan.gather_owner, plan.gather_src
    pieces = [payloads[s][o] for o, s in zip(owners.tolist(), srcs.tolist())]
    keys = np.concatenate([pc.indices for pc in pieces]).astype(np.int64)
    keys += np.repeat(owners * n, counts[srcs, owners])
    vals = np.concatenate([pc.values for pc in pieces])
    group_keys, sums, cuts = _owner_sums(keys, vals, p, n)
    cuts = cuts.tolist()
    return [COOVector(n, (group_keys[cuts[r]:cuts[r + 1]]
                          - r * n).astype(INDEX_DTYPE),
                      sums[cuts[r]:cuts[r + 1]]) for r in range(p)]


def _select_rows(entries, xs: np.ndarray, k: int,
                 due: List[bool]) -> List[COOVector]:
    """Threshold selection for every rank over the stacked ``(P, n)``
    accumulator ``xs`` (``entries[r]`` is ``(comm, allreduce, state)``).

    Ranks flagged ``due`` re-evaluate their local threshold first (one
    row-wise ``np.partition`` when all are due); then one stacked
    threshold scan selects for every rank.  Compute charges
    (``compute_sort``/``compute_scan``) run through each rank's own
    communicator, so clocks and phase attribution match the serial
    path exactly.  Data-dependent divergence — the degenerate all-zero
    path and the selection-guard re-evaluation — is handled per rank
    with the scalar primitives (it is pure local compute).
    """
    nranks, n = xs.shape
    if all(due):
        ths = batched_kth_largest_abs(xs, k)
        for r, (comm, _, st) in enumerate(entries):
            st.local_th = float(ths[r])
            st.local_evaluations += 1
            comm.compute_sort(n)
    elif any(due):
        for r, (comm, _, st) in enumerate(entries):
            if due[r]:
                st.local_th = kth_largest_abs(xs[r], k)
                st.local_evaluations += 1
                comm.compute_sort(n)
    for comm, _, _ in entries:
        comm.compute_scan(n)
    ths_now = [st.local_th for (_, _, st) in entries]
    if all(th > 0.0 for th in ths_now):
        selected = batched_threshold_select(xs, ths_now)
    else:
        selected = [threshold_select(xs[r], ths_now[r])
                    if ths_now[r] > 0.0 else None
                    for r in range(nranks)]
    out: List[COOVector] = []
    for r, (comm, ar, st) in enumerate(entries):
        if ths_now[r] <= 0.0:
            # Degenerate (all-zero accumulator or k >= n): exact
            # selection, no guard — same as the serial early return.
            out.append(exact_topk(xs[r], k))
            continue
        local = selected[r]
        g = ar.selection_guard
        if local.nnz > g * k or local.nnz * g < k:
            st.local_th = kth_largest_abs(xs[r], k)
            st.local_evaluations += 1
            comm.compute_sort(n)
            comm.compute_scan(n)
            local = (threshold_select(xs[r], st.local_th)
                     if st.local_th > 0 else exact_topk(xs[r], k))
        out.append(local)
    return out


def _exec_select_local(net, sig, payloads):
    """Rank-batched executor for :meth:`OkTopkAllreduce._select_local`.

    ``payloads[r]`` is ``(comm, allreduce, acc)`` for rank ``r``; the
    selection itself is :func:`_select_rows`.
    """
    from ..train.rankbatch import stack_rows
    _, t, k = sig
    xs = stack_rows([p[2] for p in payloads])
    entries = [(p[0], p[1], p[1]._state) for p in payloads]
    due = [st.local_th is None or ar._due(t, ar.tau_prime)
           for (_, ar, st) in entries]
    return _select_rows(entries, xs, k, due)


def _exec_world(net, sig, payloads):
    """World-level steady-state Ok-Topk: Algorithm 1 for every rank in one
    dispatch (see the module docstring).

    ``payloads[r]`` is ``(comm, allreduce, acc)``.  Runs only between
    re-evaluations, where the thresholds and boundaries are cached and
    no collective of the τ/τ′ schedules is due, so every rank executes
    the same control flow on its own accumulator.  Each rank's compute
    charges and phase contexts run in its per-rank order; the traffic is
    the per-rank path's schedules replayed.  Returns one
    :class:`AllreduceResult` per rank, all sharing one read-only ``u_t``.
    """
    from ..train.rankbatch import stack_rows
    _, _, k, rotation, bucket_size, data_balancing, balance_trigger = sig
    p = len(payloads)
    comms = [pl[0] for pl in payloads]
    entries = [(pl[0], pl[1], pl[1]._state) for pl in payloads]
    xs = stack_rows([pl[2] for pl in payloads])
    n = xs.shape[1]
    boundaries = entries[0][2].boundaries

    # -- lines 2-4: local selection ---------------------------------------
    start = [c.clock for c in comms]
    local = _select_rows(entries, xs, k, [False] * p)
    for c, t0 in zip(comms, start):
        c.close_phase(PHASE_SPARSIFY, t0)

    # -- line 8: split and reduce -------------------------------------------
    start = [c.clock for c in comms]
    nnz = [v.nnz for v in local]
    for c, m in zip(comms, nnz):
        c.compute_scan(m)
    row_base = np.arange(p, dtype=np.int64) * n
    cols = np.concatenate([v.indices for v in local]).astype(np.int64)
    vals = np.concatenate([v.values for v in local])
    # cut[s, j]: where region j starts in rank s's selection (flat)
    cut = np.searchsorted(
        cols + np.repeat(row_base, nnz),
        (row_base[:, None] + boundaries[None, :]).ravel()).reshape(p, p + 1)
    counts = np.diff(cut, axis=1)
    plan = _sr_plan(p, rotation, bucket_size)
    _replay_split_reduce(net, plan, counts)
    for c, t0 in zip(comms, start):
        c.close_phase(PHASE_COMM, t0)
    owners, srcs = plan.gather_owner, plan.gather_src
    lens = counts[srcs, owners]
    pos = np.arange(int(lens.sum())) + np.repeat(
        cut[srcs, owners] - (np.cumsum(lens) - lens), lens)
    keys, sums, ocut = _owner_sums(np.repeat(row_base[owners], lens)
                                   + cols[pos], vals[pos], p, n)

    # -- line 13: balance and allgatherv ---------------------------------
    start = [c.clock for c in comms]
    reduced_nnz = np.diff(ocut)
    for c, m in zip(comms, reduced_nnz.tolist()):
        c.compute_scan(m)
    gths = [st.global_th for (_, _, st) in entries]
    if all(g == gths[0] for g in gths):
        mask = np.abs(sums) >= gths[0] if gths[0] > 0 else None
    else:
        mask = np.concatenate([
            np.abs(sums[a:b]) >= g if g > 0 else np.ones(b - a, dtype=bool)
            for g, a, b in zip(gths, ocut[:-1].tolist(), ocut[1:].tolist())])
    if mask is None:
        sizes = reduced_nnz
    else:
        keys, sums = keys[mask], sums[mask]
        kept = np.concatenate(([0], np.cumsum(mask)))
        sizes = kept[ocut[1:]] - kept[ocut[:-1]]
    replay(net, compile_allgatherv(p, (1,) * p))      # allgather_object
    sizes_l = sizes.tolist()
    total = sum(sizes_l)
    balanced = bool(data_balancing and total > 0
                    and max(sizes_l) > balance_trigger * total / p)
    if balanced:
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        targets = np.linspace(0, offsets[-1], p + 1).astype(np.int64)
        lo = np.maximum(offsets[:-1, None], targets[None, :-1])
        hi = np.minimum(offsets[1:, None], targets[None, 1:])
        rows = 2 * np.maximum(hi - lo, 0)
        replay(net, compile_alltoallv(p, tuple(map(tuple, rows.tolist()))))
        package = np.diff(targets)
        for _, _, st in entries:
            st.balancing_triggered += 1
    else:
        package = sizes
    replay(net, compile_allgatherv(p, tuple((2 * package).tolist())))
    # Rebalancing preserves the global order, so every rank gathers the
    # same concatenation of the selected packages in region order.
    u_idx = (keys - np.repeat(row_base, sizes)).astype(INDEX_DTYPE)
    u_val = sums
    u_idx.setflags(write=False)
    u_val.setflags(write=False)
    u_t = COOVector(n, u_idx, u_val)
    for c, t0 in zip(comms, start):
        c.close_phase(PHASE_COMM, t0)

    # -- line 14 -----------------------------------------------------------
    return [AllreduceResult(
        update=u_t,
        contributed_indices=intersect_sorted(loc.indices, u_idx),
        info={
            "k": k,
            "selected_local": loc.nnz,
            "selected_global": u_t.nnz,
            "local_threshold": st.local_th,
            "global_threshold": st.global_th,
            "balancing_triggered": balanced,
            "boundaries": st.boundaries,
        }) for loc, (_, _, st) in zip(local, entries)]


#: the per-rank steps :func:`_exec_world` reproduces; a subclass that
#: overrides any of them (the quantized variant's phase 2) keeps the
#: per-rank path
_WORLD_STEPS = ("_select_local", "_select_local_serial", "_repartition",
                "_split_and_reduce", "_global_threshold",
                "_balance_and_allgatherv", "_rebalance")


@lru_cache(maxsize=None)
def _world_capable(cls: type) -> bool:
    return all(getattr(cls, name) is getattr(OkTopkAllreduce, name)
               for name in _WORLD_STEPS)


@dataclass
class OkTopkState:
    """Ok-Topk's periodic state, keyed to one full-gradient length.

    One instance per worker and gradient layout; a gradient-size change
    discards the whole object, so the cached thresholds, the consensus
    boundaries **and** the ablation counters always describe the same
    model (resetting only the thresholds used to leave stale counters
    behind).  The ``*_t`` markers record the iteration of the last
    full-gradient re-estimate so a bucketed session refreshes each shared
    quantity at most once per iteration — per-bucket execution reads this
    state, it never thrashes it.  ``pending_reduced`` is per-iteration
    scratch: the buckets' reduced values collected for the end-of-iteration
    global-threshold refresh.
    """

    n: int
    local_th: Optional[float] = None
    global_th: Optional[float] = None
    boundaries: Optional[np.ndarray] = None
    # ablation counters (Figure 4/6/7 instrumentation)
    local_evaluations: int = 0
    global_evaluations: int = 0
    repartitions: int = 0
    balancing_triggered: int = 0
    # iteration of the last full-gradient refresh (bucketed sessions only)
    local_refresh_t: int = 0
    global_refresh_t: int = 0
    repartition_t: int = 0
    # per-iteration scratch for the bucketed global-threshold refresh
    pending_t: int = 0
    pending_reduced: List[np.ndarray] = field(default_factory=list)


class OkTopkAllreduce(GradientAllreduce):
    """The paper's scheme, with every optimization toggleable for ablations.

    Args:
        tau: space-repartition period (paper: 64).
        tau_prime: threshold re-evaluation period (paper: 32 or 128).
        balanced_partition: use the balanced split (False = naive equal).
        rotation: destination rotation in split-and-reduce (Figure 2b).
        bucket_size: messages per bucket in split-and-reduce (Figure 2c).
        data_balancing: enable the pre-allgatherv balancing step.
        balance_trigger: run balancing when ``max size > trigger * avg``
            (paper: 4).
        selection_guard: re-evaluate a stale threshold immediately when the
            selected count leaves ``[k/guard, guard*k]`` (implementation
            safeguard; the paper tolerates ~11% deviation, the guard only
            catches pathological drift).
    """

    # Bucketable via the shared-state session path (module docstring):
    # buckets read the full-gradient OkTopkState instead of re-keying the
    # periodic thresholds/boundaries to their slice.
    name = "oktopk"
    bucketable = True

    def __init__(self, *, tau: int = 64, tau_prime: int = 32,
                 balanced_partition: bool = True, rotation: bool = True,
                 bucket_size: int = 8, data_balancing: bool = True,
                 balance_trigger: float = 4.0, selection_guard: float = 3.0,
                 **kwargs):
        super().__init__(**kwargs)
        if tau < 1 or tau_prime < 1:
            raise ValueError("tau and tau_prime must be >= 1")
        if (isinstance(bucket_size, bool)
                or not isinstance(bucket_size, (int, np.integer))
                or bucket_size < 1):
            raise ConfigError(
                f"bucket_size must be an integer >= 1, got {bucket_size!r}")
        if not (isinstance(balance_trigger, (int, float, np.number))
                and math.isfinite(balance_trigger) and balance_trigger >= 0):
            raise ConfigError(f"balance_trigger must be finite and >= 0, "
                              f"got {balance_trigger!r}")
        if not (isinstance(selection_guard, (int, float, np.number))
                and selection_guard > 1):
            # a guard <= 1 (or NaN) re-evaluates on every iteration or
            # never, silently defeating threshold reuse
            raise ConfigError(
                f"selection_guard must be > 1, got {selection_guard!r}")
        self.tau = tau
        self.tau_prime = tau_prime
        self.balanced_partition = balanced_partition
        self.rotation = rotation
        self.bucket_size = bucket_size
        self.data_balancing = data_balancing
        self.balance_trigger = balance_trigger
        self.selection_guard = selection_guard
        #: shared periodic state, created lazily per gradient length
        self._state: Optional[OkTopkState] = None

    # ------------------------------------------------------------------
    # Back-compat accessors over the state object
    # ------------------------------------------------------------------
    @property
    def state(self) -> Optional[OkTopkState]:
        return self._state

    @property
    def local_evaluations(self) -> int:
        return self._state.local_evaluations if self._state else 0

    @property
    def global_evaluations(self) -> int:
        return self._state.global_evaluations if self._state else 0

    @property
    def repartitions(self) -> int:
        return self._state.repartitions if self._state else 0

    @property
    def balancing_triggered(self) -> int:
        return self._state.balancing_triggered if self._state else 0

    @property
    def _local_th(self) -> Optional[float]:
        return self._state.local_th if self._state else None

    @property
    def _global_th(self) -> Optional[float]:
        return self._state.global_th if self._state else None

    @property
    def _boundaries(self) -> Optional[np.ndarray]:
        return self._state.boundaries if self._state else None

    # ------------------------------------------------------------------
    def _due(self, t: int, period: int) -> bool:
        """Is periodic work scheduled at iteration ``t``?

        Iterations are **1-based** (the contract of
        :meth:`GradientAllreduce.reduce` / :meth:`~GradientAllreduce.begin`):
        the schedule fires at ``t = 1, 1+period, 1+2*period, ...``.  A
        non-positive ``t`` would silently shift the whole tau/tau_prime
        schedule by a full period, so it is rejected here as well as at
        the public entry points.
        """
        if t < 1:
            raise ConfigError(
                f"Ok-Topk iterations are 1-based (the tau/tau_prime "
                f"schedules key off t - 1); got t={t}")
        return (t - 1) % period == 0

    def on_world_resize(self, size: int) -> None:
        """Re-key the periodic state to a shrunk world (elastic recovery).

        The consensus boundaries partition gradient space over P ranks
        and the thresholds were estimated from P-way contributions, so
        both are dropped: clearing ``boundaries`` forces the next
        :meth:`_repartition` to re-run the consensus at the new size, and
        clearing the thresholds forces fresh estimates.  The interrupted
        iteration's bucket scratch is discarded (its traffic was flushed
        by the shrink barrier); ablation counters are cumulative across
        the resize and are kept.
        """
        st = self._state
        if st is None:
            return
        st.local_th = None
        st.global_th = None
        st.boundaries = None
        st.pending_t = 0
        st.pending_reduced = []

    def _reset_state_if_needed(self, n: int) -> OkTopkState:
        st = self._state
        if st is None or st.n != n:
            # Thresholds, boundaries and the ablation counters reset
            # *together*: an instance reused across models must not carry
            # stale evaluation/repartition stats into the new run.
            st = self._state = OkTopkState(n)
        return st

    # ------------------------------------------------------------------
    # Local selection (Algorithm 1 lines 2-4)
    # ------------------------------------------------------------------
    def _select_local(self, comm: SimComm, acc: np.ndarray,
                      k: int, t: int) -> COOVector:
        """Threshold selection; under lockstep rank-batching (a
        :class:`repro.train.rankbatch.RankBatch` published on the
        communicator) the whole world's selection runs as one stacked
        dispatch — one ``np.partition`` / one threshold scan over the
        ``(P, n)`` accumulator matrix — bit-identical per rank to the
        serial path."""
        rb = getattr(comm, "rank_batch", None)
        if rb is not None and rb.engaged():
            return comm.fused_collective(("oktopk_select", t, k),
                                         (comm, self, acc),
                                         _exec_select_local)
        return self._select_local_serial(comm, acc, k, t)

    def _select_local_serial(self, comm: SimComm, acc: np.ndarray,
                             k: int, t: int) -> COOVector:
        st = self._state
        n = acc.size
        if st.local_th is None or self._due(t, self.tau_prime):
            st.local_th = kth_largest_abs(acc, k)
            st.local_evaluations += 1
            comm.compute_sort(n)
        comm.compute_scan(n)
        if st.local_th <= 0.0:
            # Degenerate (all-zero accumulator or k >= n): exact selection.
            return exact_topk(acc, k)
        local = threshold_select(acc, st.local_th)
        g = self.selection_guard
        if local.nnz > g * k or local.nnz * g < k:
            # Stale threshold drifted too far: re-evaluate immediately.
            st.local_th = kth_largest_abs(acc, k)
            st.local_evaluations += 1
            comm.compute_sort(n)
            comm.compute_scan(n)
            local = (threshold_select(acc, st.local_th)
                     if st.local_th > 0 else exact_topk(acc, k))
        return local

    # ------------------------------------------------------------------
    # Space repartition (Algorithm 1 lines 5-7)
    # ------------------------------------------------------------------
    def _consensus_boundaries(self, comm: SimComm, st: OkTopkState,
                              proposal: np.ndarray, n: int, t: int) -> None:
        """Average the boundary proposals across ranks (P+1-word
        allreduce), sanitize, and store as the shared boundaries."""
        summed = coll.allreduce_recursive_doubling(comm, proposal)
        st.boundaries = sanitize_boundaries(summed / comm.size, n)
        st.repartitions += 1
        st.repartition_t = t

    def _repartition(self, comm: SimComm, local: COOVector, n: int,
                     t: int) -> np.ndarray:
        st = self._state
        if st.boundaries is not None and not self._due(t, self.tau):
            return st.boundaries
        if self.balanced_partition:
            proposal = balanced_boundaries_local(local.indices, n, comm.size)
        else:
            proposal = equal_boundaries(n, comm.size).astype(np.float64)
        self._consensus_boundaries(comm, st, proposal, n, t)
        return st.boundaries

    # ------------------------------------------------------------------
    # Phase 1: split and reduce (Section 3.1.1)
    # ------------------------------------------------------------------
    def _split_and_reduce(self, comm: SimComm, local: COOVector,
                          boundaries: np.ndarray) -> COOVector:
        p, r = comm.size, comm.rank
        pieces = local.split(boundaries)
        comm.compute_scan(local.nnz)
        reduced = pieces[r]
        if p == 1:
            return reduced
        if _fused._available(comm):
            # Fused macro-collective: the whole rotation schedule —
            # batched egress posts, overlapped reductions, arrival-sorted
            # deliveries — in one engine dispatch (see _exec_split_reduce).
            return comm.fused_collective(
                ("oktopk_sr", self.rotation, self.bucket_size), pieces,
                _exec_split_reduce)
        steps = make_steps(r, p, self.rotation)
        # Simulated time is charged per bucket (the overlap model of
        # Figure 2c: the previous bucket's reduction hides behind the next
        # bucket's transfers, and only needs the piece sizes).  The actual
        # numpy reduction is batched into one combine_sum over all pieces —
        # a single sort/reduceat pass instead of a fold per bucket.
        pending: List[COOVector] = []
        prev_words = 0
        for bucket in buckets(steps, self.bucket_size):
            reqs = []
            sends = []
            for step in bucket:
                for src in step.recv_from:
                    reqs.append(comm.irecv(src, _TAG_SR))
                for dst in step.send_to:
                    sends.append((pieces[dst], dst, _TAG_SR))
            # One egress-booking pass for the whole bucket's fan-out
            # (bit-identical to per-message isend; see isend_batch).
            reqs.extend(comm.isend_batch(sends))
            # Overlap: reduce the previous bucket while this one flies.
            if prev_words:
                comm.compute_words(2 * prev_words)
            got = comm.waitall(reqs)
            arrived = [g for g in got if isinstance(g, COOVector)]
            pending.extend(arrived)
            prev_words = sum(v.nnz for v in arrived)
        if prev_words:
            comm.compute_words(2 * prev_words)
        if pending:
            reduced = combine_sum([reduced, *pending])
        return reduced

    # ------------------------------------------------------------------
    # Global threshold (Algorithm 1 lines 9-12)
    # ------------------------------------------------------------------
    def _estimate_global_th(self, comm: SimComm, st: OkTopkState,
                            merged_values: np.ndarray, k: int) -> float:
        """Store the ``k``-th magnitude of the gathered reduced values as
        the shared global threshold (0 when nothing was reduced); charges
        the sort and bumps the evaluation counter."""
        with comm.phase(PHASE_SPARSIFY):
            if merged_values.size:
                st.global_th = kth_largest_abs(
                    merged_values, min(k, merged_values.size))
            else:
                st.global_th = 0.0
            comm.compute_sort(merged_values.size)
        st.global_evaluations += 1
        return st.global_th

    def _global_threshold(self, comm: SimComm, reduced: COOVector,
                          k: int, t: int) -> float:
        st = self._state
        if st.global_th is not None and not self._due(t, self.tau_prime):
            return st.global_th
        with comm.phase(PHASE_COMM):
            all_reduced = coll.allgatherv_coo(comm, reduced)
        merged_values = np.concatenate(
            [v.values for v in all_reduced]) if all_reduced else np.empty(0)
        return self._estimate_global_th(comm, st, merged_values, k)

    # ------------------------------------------------------------------
    # Phase 2: balance and allgatherv (Section 3.1.2)
    # ------------------------------------------------------------------
    def _balance_and_allgatherv(self, comm: SimComm, reduced: COOVector,
                                global_th: float) -> tuple[COOVector, bool]:
        p = comm.size
        n = reduced.n
        # (1) global top-k selection inside my region + (2) packaging
        mine = (reduced.select_threshold(global_th) if global_th > 0
                else reduced)
        comm.compute_scan(reduced.nnz)
        if p == 1:
            return mine, False
        # (3) size exchange and optional data balancing
        sizes = coll.allgather_object(comm, mine.nnz)
        total = int(sum(sizes))
        balanced = False
        idx, val = mine.indices, mine.values
        if (self.data_balancing and total > 0
                and max(sizes) > self.balance_trigger * total / p):
            idx, val = self._rebalance(comm, idx, val, sizes)
            balanced = True
            self._state.balancing_triggered += 1
        # (4) allgatherv via dissemination; region order keeps global sort
        pieces = coll.allgatherv(comm, (idx, val))
        cat_idx = np.concatenate([pc[0] for pc in pieces])
        cat_val = np.concatenate([pc[1] for pc in pieces])
        out = COOVector(n, cat_idx.astype(INDEX_DTYPE),
                        cat_val.astype(VALUE_DTYPE))
        return out, balanced

    def _rebalance(self, comm: SimComm, idx: np.ndarray, val: np.ndarray,
                   sizes: List[int]) -> tuple[np.ndarray, np.ndarray]:
        """Even out package sizes with point-to-point moves.

        Every rank knows all package sizes, hence the global position range
        it holds and the near-equal target ranges; overlaps define the
        moves.  Source-rank order preserves the global (sorted) order.
        """
        p, r = comm.size, comm.rank
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        targets = np.linspace(0, offsets[-1], p + 1).astype(np.int64)
        my_lo, my_hi = int(offsets[r]), int(offsets[r + 1])
        blocks = []
        for j in range(p):
            a = max(my_lo, int(targets[j]))
            b = min(my_hi, int(targets[j + 1]))
            if b > a:
                blocks.append((idx[a - my_lo:b - my_lo],
                               val[a - my_lo:b - my_lo]))
            else:
                blocks.append(None)
        got = coll.alltoallv(comm, blocks)
        kept = [g for g in got if g is not None]
        if not kept:
            return (np.empty(0, INDEX_DTYPE), np.empty(0, VALUE_DTYPE))
        return (np.concatenate([g[0] for g in kept]),
                np.concatenate([g[1] for g in kept]))

    # ------------------------------------------------------------------
    # Algorithm 1 driver
    # ------------------------------------------------------------------
    def _world_ready(self, comm: SimComm, st: OkTopkState, t: int) -> bool:
        """Whether iteration ``t`` runs as one world-level dispatch
        (:func:`_exec_world`): lockstep rank batching engaged, the fused
        path available at this world size, and a steady-state iteration —
        cached thresholds and boundaries, no τ/τ′ re-evaluation due.
        Rank-uniform: every input is identical on every rank."""
        rb = comm.rank_batch
        return (st.boundaries is not None and st.global_th is not None
                and st.local_th is not None
                and not self._due(t, self.tau_prime)
                and not self._due(t, self.tau)
                and _world_capable(type(self))
                and rb is not None and rb.engaged()
                and _fused._available(comm)
                and comm.size >= comm.net._sched.fused_min_ranks)

    def _reduce(self, comm: SimComm, acc: np.ndarray,
                t: int) -> AllreduceResult:
        n = acc.size
        k = self.resolve_k(n)
        st = self._reset_state_if_needed(n)
        if self._world_ready(comm, st, t):
            return comm.fused_collective(
                ("oktopk_world", t, k, self.rotation, self.bucket_size,
                 self.data_balancing, self.balance_trigger),
                (comm, self, acc), _exec_world)

        with comm.phase(PHASE_SPARSIFY):                 # lines 2-4
            local = self._select_local(comm, acc, k, t)
        with comm.phase(PHASE_COMM):                      # lines 5-7
            boundaries = self._repartition(comm, local, n, t)
            reduced = self._split_and_reduce(comm, local, boundaries)  # l.8
        global_th = self._global_threshold(comm, reduced, k, t)  # lines 9-12
        with comm.phase(PHASE_COMM):                      # line 13
            u_t, balanced = self._balance_and_allgatherv(
                comm, reduced, global_th)
        indexes = intersect_sorted(local.indices, u_t.indices)   # line 14

        return AllreduceResult(
            update=u_t,
            contributed_indices=indexes,
            info={
                "k": k,
                "selected_local": local.nnz,
                "selected_global": u_t.nnz,
                "local_threshold": self._state.local_th,
                "global_threshold": global_th,
                "balancing_triggered": balanced,
                "boundaries": boundaries,
            },
        )

    # ------------------------------------------------------------------
    # Native bucketed sessions (shared periodic state; module docstring)
    # ------------------------------------------------------------------
    def _reduce_bucket(self, comm: SimComm, acc: np.ndarray, t: int, *,
                       k: Optional[int] = None,
                       view: Optional[BucketView] = None) -> AllreduceResult:
        """Run Algorithm 1 over one session bucket, reading shared state.

        ``view`` locates the bucket inside the full gradient (sessions
        always provide it); without one the slice is treated as a complete
        single-bucket gradient.
        """
        n_b = acc.size
        if view is None:
            view = BucketView(lo=0, hi=n_b, n=n_b, index=0, nbuckets=1,
                              final=True, acc=acc)
        st = self._reset_state_if_needed(view.n)
        k_total = self.resolve_k(view.n)
        if k is None:
            k_b = max(1, min(n_b, int(round(k_total * n_b / view.n))))
        else:
            k_b = max(1, min(int(k), n_b))

        with comm.phase(PHASE_SPARSIFY):
            local = self._select_local_bucket(comm, st, acc, k_b, k_total,
                                              view)
        with comm.phase(PHASE_COMM):
            bnd = self._bucket_boundaries(comm, st, view)
            reduced = self._split_and_reduce(comm, local, bnd)
        if self._due(t, self.tau_prime):
            # This iteration ends with a global-threshold refresh: keep
            # the bucket's reduced values for the union (scratch, cleared
            # by the refresh).
            if st.pending_t != t:
                st.pending_t = t
                st.pending_reduced = []
            st.pending_reduced.append(reduced.values)
        global_th = self._global_threshold_bucket(comm, st, reduced, k_b)
        with comm.phase(PHASE_COMM):
            u_t, balanced = self._balance_and_allgatherv(
                comm, reduced, global_th)
        if view.final:
            # The whole gradient has been pushed by now: run the scheduled
            # full-gradient re-estimates (thresholds, consensus
            # boundaries) for the *next* iterations — this one already ran
            # every bucket on the previous estimates.
            self._refresh_shared_state(comm, st, view, t)
        indexes = intersect_sorted(local.indices, u_t.indices)

        return AllreduceResult(
            update=u_t,
            contributed_indices=indexes,
            info={
                "k": k_b,
                "selected_local": local.nnz,
                "selected_global": u_t.nnz,
                "local_threshold": st.local_th,
                "global_threshold": global_th,
                "balancing_triggered": balanced,
                "boundaries": bnd,
            },
        )

    def _select_local_bucket(self, comm: SimComm, st: OkTopkState,
                             acc: np.ndarray, k_b: int, k_total: int,
                             view: BucketView) -> COOVector:
        """Per-bucket threshold selection against the shared local threshold.

        The shared threshold is normally refreshed from the full gradient
        at the end of each due iteration (:meth:`_refresh_shared_state`);
        only the very first bucket ever run bootstraps it from the
        concatenation of the segments pushed so far, with ``k`` scaled to
        the visible fraction of the gradient.  The guard is applied per
        bucket against its own budget; a guard re-evaluation is
        bucket-local and never written back (writing it would thrash the
        full-gradient estimate the other buckets read).
        """
        n_b = acc.size
        if st.local_th is None:
            pushed = view.pushed
            k_eval = max(1, min(pushed.size,
                                int(round(k_total * pushed.size / view.n))))
            st.local_th = kth_largest_abs(pushed, k_eval)
            st.local_evaluations += 1
            comm.compute_sort(pushed.size)
        comm.compute_scan(n_b)
        if st.local_th <= 0.0:
            return exact_topk(acc, k_b)
        local = threshold_select(acc, st.local_th)
        g = self.selection_guard
        if local.nnz > g * k_b or local.nnz * g < k_b:
            th_b = kth_largest_abs(acc, k_b)
            # counted like the one-shot guard path: the sort really ran,
            # even though the corrected threshold stays bucket-local
            st.local_evaluations += 1
            comm.compute_sort(n_b)
            comm.compute_scan(n_b)
            local = (threshold_select(acc, th_b) if th_b > 0
                     else exact_topk(acc, k_b))
        return local

    def _bucket_boundaries(self, comm: SimComm, st: OkTopkState,
                           view: BucketView) -> np.ndarray:
        """Consensus full-gradient boundaries intersected with the bucket.

        Worker ``i`` reduces ``region i ∩ [lo, hi)``; regions that miss the
        bucket degenerate to empty slices (their pieces carry no words).
        Before the first consensus (iteration 1's buckets) the naive equal
        split is used — identical on every rank without a collective.
        """
        full = st.boundaries
        if full is None:
            full = equal_boundaries(view.n, comm.size)
        return np.clip(full, view.lo, view.hi) - view.lo

    def _global_threshold_bucket(self, comm: SimComm, st: OkTopkState,
                                 reduced: COOVector, k_b: int) -> float:
        """Shared global threshold; bootstrapped by the first bucket ever
        run (from its own reduced slice, bucket budget) and otherwise
        refreshed from the full reduced gradient at the end of each due
        iteration (:meth:`_refresh_shared_state`)."""
        if st.global_th is not None:
            return st.global_th
        with comm.phase(PHASE_COMM):
            all_reduced = coll.allgatherv_coo(comm, reduced)
        merged_values = np.concatenate(
            [v.values for v in all_reduced]) if all_reduced else np.empty(0)
        return self._estimate_global_th(comm, st, merged_values, k_b)

    def _refresh_shared_state(self, comm: SimComm, st: OkTopkState,
                              view: BucketView, t: int) -> None:
        """End-of-iteration re-estimates from the fully pushed gradient.

        Runs inside the last funded bucket, after its phase 2: each shared
        quantity is refreshed at most once per iteration, on its own
        schedule, and takes effect from the next iteration.  The local
        threshold is the exact ``k``-th magnitude of the full accumulator
        and the global threshold the ``k``-th magnitude of the union of
        all buckets' reduced values (one values-only allgatherv) — the
        same estimates the one-shot path computes, evaluated one bucket
        plan later.
        """
        acc_full = view.acc
        n = acc_full.size
        k_total = self.resolve_k(n)
        if self._due(t, self.tau_prime) and st.local_refresh_t != t:
            with comm.phase(PHASE_SPARSIFY):
                st.local_th = kth_largest_abs(acc_full, k_total)
                st.local_evaluations += 1
                st.local_refresh_t = t
                comm.compute_sort(n)
        if self._due(t, self.tau) and st.repartition_t != t:
            with comm.phase(PHASE_COMM):
                self._repartition_full(comm, st, acc_full, t)
        if self._due(t, self.tau_prime) and st.global_refresh_t != t:
            mine = (np.concatenate(st.pending_reduced)
                    if st.pending_reduced
                    else np.empty(0, VALUE_DTYPE))
            with comm.phase(PHASE_COMM):
                pieces = coll.allgatherv(comm, mine)
            merged_values = (np.concatenate(pieces) if pieces
                             else np.empty(0))
            self._estimate_global_th(comm, st, merged_values, k_total)
            st.global_refresh_t = t
            st.pending_t = 0
            st.pending_reduced = []

    def _repartition_full(self, comm: SimComm, st: OkTopkState,
                          acc_full: np.ndarray, t: int) -> None:
        """The tau-schedule consensus repartition, run once per due
        iteration from the fully pushed gradient (one threshold scan
        recovers this rank's selected coordinates)."""
        p = comm.size
        if self.balanced_partition and st.local_th is not None \
                and st.local_th > 0.0:
            sel = np.flatnonzero(np.abs(acc_full) >= st.local_th)
            comm.compute_scan(acc_full.size)
            proposal = balanced_boundaries_local(sel, acc_full.size, p)
        else:
            proposal = equal_boundaries(acc_full.size, p).astype(np.float64)
        self._consensus_boundaries(comm, st, proposal, acc_full.size, t)
