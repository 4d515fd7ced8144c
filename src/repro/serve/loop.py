"""The serving engine: open-loop arrivals -> dynamic batches -> TP steps.

One SPMD program runs on every rank of the tensor-parallel group.  Each
engine step is one of:

* **prefill** — admit a batch and push its summed prompt tokens through
  the model (one large, bandwidth-bound allreduce per layer), emitting
  every admitted request's first token;
* **decode** — push one token per active request (one small,
  latency-bound allreduce per layer);
* **idle jump** — no work pending: jump the simulated clock to the next
  admission time (a closed form over the open-loop arrivals).

Determinism contract
--------------------

The repo's core invariant — a run is a pure function of ``(seed,
config)``, bit-identical across the ``coop`` and ``threads``
runners — has one serving-specific hazard: after a dense allreduce at
non-power-of-two P, the per-rank simulated clocks legitimately *diverge*
(the fold-in/out ranks sit on different dependency chains), so admission
decisions keyed on a rank-local clock would differ across ranks and
deadlock the collectives.  The loop therefore synchronizes a **decision
clock as data** at every step boundary: an ``allgather`` of the per-rank
clocks whose max is the step's decision time on every rank.  All
admissions, token stamps and metrics use that shared value, so the
records are bit-identical on every rank (asserted by the driver) and
across runners; residual per-rank clock skew stays in the network, where
it belongs.

Fault tolerance
---------------

``simulate_serving(..., faults=FaultPlan)`` threads the PR-6 fault model
into the section: slow links and stragglers degrade the clock honestly,
and a ``RankCrash`` fail-stops a rank mid-traffic.  Survivors catch the
resulting :class:`~repro.errors.RankFailedError` at the decision-clock
synchronization points and run elastic recovery:

1. ``comm.shrink()`` — agree on the survivor set (ULFM-style), flush the
   dead world's messages, synchronize clocks past the detection bound;
2. **rollback consensus** — each survivor may have caught the failure a
   step apart (the dead rank's last eager sends can complete one
   survivor's collective but not another's), so survivors allgather their
   last completed step boundary and every rank rolls back to the
   *minimum*.  Boundaries are journaled, not copied: before a step first
   changes a request's entry (admission, token stamps, retries, terminal
   status) the entry's previous value goes into that step's undo record,
   and each committed boundary keeps its undo record plus the small loop
   state (batcher queue, active set, step counters, model carry).  Only
   the last three boundaries are retained — the spread is bounded by the
   decision-clock sync, which requires a post from every rank.  Rollback
   first undoes the uncommitted partial step, then the committed steps
   newer than the resume boundary, newest first, so a step costs what it
   touches instead of a copy of every request seen.  The loop itself
   exits only through one more sync, so a survivor whose last sync
   completed still joins the rollback of one whose sync failed;
3. **rebuild** :class:`~repro.serve.model.TPDecodeModel` at the shrunken
   world — gain tables re-derived by consensus from the replicated seed,
   flops re-sharded 1/(P-1), and the adaptive allreduce crossover
   re-computed for the new P by the selector itself;
4. **re-enqueue** — in-flight requests whose generated tokens died with
   the crash go back to the batcher with capped exponential backoff
   (seeded jitter, bounded retry budget); requests that exhaust the
   budget are shed.

Request-level robustness (deadlines, timeout reaping, deadline-aware
admission shedding) rides the same fault-aware loop.  The fault-free
path is dispatched by a single ``faults is not None`` test (RL003-checked
for this module) and stays byte-identical to a loop that has never heard
of faults.  A faulted run remains a pure function of ``(seed, config,
plan)``: recovery decisions only consume synchronized or consensus data,
so reports stay bit-identical across runners and fused/unfused paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..comm import collectives as coll
from ..comm.communicator import SimComm
from ..comm.faults import FaultPlan
from ..comm.launcher import run_spmd
from ..comm.model import NetworkModel
from ..errors import ConfigError, RankFailedError
from .batcher import DynamicBatcher
from .metrics import RequestRecord, ServeReport
from .model import TPDecodeModel, TPModelConfig
from .workload import Request, TokenSpec, Workload


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serving run is a function of (besides the network)."""

    p: int = 4
    # --- workload (ignored when an explicit trace Workload is passed) ---
    rate: float = 2000.0          # offered load, requests per simulated s
    n_requests: int = 32
    prompt_tokens: TokenSpec = 64
    output_tokens: TokenSpec = 4
    # --- batcher ---
    max_batch_size: int = 8
    max_wait: float = 5e-4        # simulated seconds
    # --- model ---
    hidden: int = 256
    layers: int = 4
    ffn_mult: int = 4
    # --- collectives ---
    #: "adaptive" | "latency" | "bandwidth" | "auto" | concrete name
    algorithm: str = "adaptive"
    seed: int = 0
    # --- request-level robustness (consulted by the fault-aware loop;
    # --- the plan-less fast path never reads them) ---
    #: completion SLO relative to arrival (simulated s); ``None`` = none.
    #: Per-request ``Request.deadline`` values override it.
    deadline: Optional[float] = None
    #: crash re-enqueues allowed per request before it is shed
    retry_budget: int = 2
    #: base / cap of the capped exponential retry backoff (simulated s)
    retry_backoff: float = 2e-4
    retry_backoff_cap: float = 2e-3

    def __post_init__(self):
        # The same rule as Request.deadline: finite and > 0.  A NaN would
        # break record equality across ranks; zero or negative would time
        # out every request.
        if self.deadline is not None \
                and not (isfinite(self.deadline) and self.deadline > 0):
            raise ConfigError(
                f"deadline must be finite and > 0, got {self.deadline}")
        for name in ("max_wait", "retry_backoff", "retry_backoff_cap"):
            val = getattr(self, name)
            if not (isfinite(val) and val >= 0):
                raise ConfigError(
                    f"{name} must be finite and >= 0, got {val}")
        if self.retry_budget < 0:
            raise ConfigError(
                f"retry_budget must be >= 0, got {self.retry_budget}")

    @property
    def model_config(self) -> TPModelConfig:
        return TPModelConfig(hidden=self.hidden, layers=self.layers,
                             ffn_mult=self.ffn_mult)

    def workload(self) -> Workload:
        return Workload.poisson(
            self.n_requests, self.rate, prompt_tokens=self.prompt_tokens,
            output_tokens=self.output_tokens, seed=self.seed)


def _sync_decision_time(comm: SimComm) -> float:
    """Synchronize the step's decision clock as *data*: every rank posts
    its clock, everyone takes the max, and local clocks advance to it.
    The gathered set is identical on all ranks, so the max is too."""
    clocks = coll.allgather_object(comm, comm.clock)
    t = max(clocks)
    comm._advance_clock(t)
    return t


def _retry_release(cfg: ServeConfig, rid: int, attempt: int,
                   now: float) -> float:
    """Release time of retry ``attempt`` (1-based) for request ``rid``:
    capped exponential backoff with seeded jitter — a pure function of
    ``(cfg.seed, rid, attempt, now)``, identical on every rank."""
    delay = min(cfg.retry_backoff * (2.0 ** (attempt - 1)),
                cfg.retry_backoff_cap)
    jitter = np.random.default_rng(
        [cfg.seed & 0x7FFFFFFF, rid, attempt]).random()
    return now + delay * (1.0 + jitter)


def _rank_serve(comm: SimComm, cfg: ServeConfig, workload: Workload) -> Dict:
    faults = comm.net.faults
    if faults is not None:  # the plan-less fast path stays this one test
        return _rank_serve_faulted(comm, cfg, workload, faults)
    model = TPDecodeModel(cfg.model_config, comm,
                          algorithm=cfg.algorithm, seed=cfg.seed)
    batcher = DynamicBatcher(workload, cfg.max_batch_size, cfg.max_wait)
    admitted_at: Dict[int, float] = {}
    token_times: Dict[int, List[float]] = {}
    active: List[List] = []  # [request, tokens_emitted]
    prefill_batches = 0
    decode_steps = 0

    with comm.phase("serve"):
        t = _sync_decision_time(comm)
        while True:
            batch = batcher.admit(t, cfg.max_batch_size - len(active),
                                  bool(active))
            if batch:
                for rq in batch:
                    admitted_at[rq.rid] = t
                model.step(sum(rq.prompt_tokens for rq in batch))
                prefill_batches += 1
                t = _sync_decision_time(comm)
                for rq in batch:
                    token_times[rq.rid] = [t]
                    if rq.output_tokens > 1:
                        active.append([rq, 1])
                continue
            if active:
                model.step(len(active))
                decode_steps += 1
                t = _sync_decision_time(comm)
                still: List[List] = []
                for rq, emitted in active:
                    emitted += 1
                    token_times[rq.rid].append(t)
                    if emitted < rq.output_tokens:
                        still.append([rq, emitted])
                active = still
                continue
            t_next = batcher.next_decision(t)
            if t_next is None:
                break
            comm._advance_clock(t_next)
            t = _sync_decision_time(comm)

    records = [
        RequestRecord(rq.rid, rq.arrival, rq.prompt_tokens,
                      rq.output_tokens, admitted_at[rq.rid],
                      tuple(token_times[rq.rid]))
        for rq in workload.requests]
    return {
        "records": records,
        "checksum": model.checksum,
        "steps": {"prefill_batches": prefill_batches,
                  "decode_steps": decode_steps},
    }


class _Req(NamedTuple):
    """Per-request state of the fault-aware loop (immutable: an update
    replaces the entry, so the undo journal can keep the old one as is)."""

    admitted: Optional[float] = None
    tokens: Tuple[float, ...] = ()
    retries: int = 0
    status: str = "ok"                  # "ok" | "timeout" | "shed"


_FRESH = _Req()

#: step boundaries whose state stays restorable (the decision-clock sync
#: bounds the survivors' spread to less than this)
_WINDOW = 3


class _Journal:
    """The fault-aware loop's request table and its undo journal.

    Every update records the entry's previous value, once per step, in
    the undo record of the step in progress.  :meth:`commit` files that
    record with the boundary's small loop state; :meth:`rollback` undoes
    the step in progress, then the committed steps newer than the resume
    boundary, newest first.  A step therefore costs what it touches, not
    a copy of every request seen."""

    def __init__(self) -> None:
        self.reqs: Dict[int, _Req] = {}
        #: rid -> entry before the step in progress (``None``: absent)
        self._undo: Dict[int, Optional[_Req]] = {}
        #: boundary -> (undo record of the step that ended there, state)
        self._window: Dict[int, Tuple[Dict[int, Optional[_Req]], tuple]] = {}

    def get(self, rid: int) -> _Req:
        return self.reqs.get(rid, _FRESH)

    def update(self, rid: int, **changes) -> None:
        old = self.reqs.get(rid)
        if rid not in self._undo:
            self._undo[rid] = old
        self.reqs[rid] = (_FRESH if old is None else old)._replace(**changes)

    def commit(self, boundary: int, state: tuple) -> None:
        self._window[boundary] = (self._undo, state)
        self._undo = {}
        self._window.pop(boundary - _WINDOW, None)

    def rollback(self, boundary: int, resume: int) -> tuple:
        """Restore the request table as of ``resume`` (within the window)
        and return the loop state committed there."""
        self._apply(self._undo)
        self._undo = {}
        for b in range(boundary, resume, -1):
            self._apply(self._window.pop(b)[0])
        return self._window[resume][1]

    def _apply(self, undo: Dict[int, Optional[_Req]]) -> None:
        reqs = self.reqs
        for rid, old in undo.items():
            if old is None:
                del reqs[rid]
            else:
                reqs[rid] = old


def _rank_serve_faulted(comm: SimComm, cfg: ServeConfig,
                        workload: Workload, faults) -> Dict:
    """The fault-aware serving loop (see the module docstring's recovery
    walkthrough).  Same decision structure as :func:`_rank_serve`, plus
    journaled step boundaries, deadline/timeout/shed handling, and
    elastic shrink-and-resume on :class:`~repro.errors.RankFailedError`."""
    assert faults is not None  # dispatch contract; guards every deref below
    detect_timeout = faults.detect_timeout
    model = TPDecodeModel(cfg.model_config, comm,
                          algorithm=cfg.algorithm, seed=cfg.seed)
    batcher = DynamicBatcher(workload, cfg.max_batch_size, cfg.max_wait,
                             deadline=cfg.deadline)
    journal = _Journal()
    active: List[Tuple[Request, int]] = []  # (request, tokens_emitted)
    events: List[Dict] = []
    known_dead: set = set()
    prefill_batches = 0
    decode_steps = 0
    step_no = 0                         # decision-loop pass (1-based)

    def loop_state() -> tuple:
        """What a boundary determines besides the request table.  The
        model part is world-size independent, so it restores into a
        rebuilt post-shrink model."""
        return (batcher.snapshot(), tuple(active), prefill_batches,
                decode_steps, step_no, model.snapshot())

    boundary = 0                        # completed stamping boundaries
    journal.commit(0, loop_state())
    failure: Optional[RankFailedError] = None
    t: Optional[float] = None

    def commit_boundary() -> None:
        nonlocal boundary
        boundary += 1
        journal.commit(boundary, loop_state())
        # first stamp after a shrink closes that event's recovery window
        if events and "recovery_time" not in events[-1]:
            events[-1]["first_token"] = t
            events[-1]["recovery_time"] = t - events[-1]["detected"]

    while True:
        try:
            if failure is not None:
                exc, failure = failure, None
                new_failed = sorted(set(exc.failures) - known_dead)
                if not new_failed:
                    raise AssertionError(
                        "RankFailedError without fresh failures after "
                        "recovery") from exc
                detected = max(exc.failures[r].time
                               for r in new_failed) + detect_timeout
                old_size = comm.size
                comm = comm.shrink()
                # Rollback consensus: survivors may have caught the
                # failure one boundary apart; everyone resumes from the
                # minimum completed boundary.
                resume = min(coll.allgather_object(comm, boundary))
                (queue, active_at, prefill_batches, decode_steps, step_no,
                 model_at) = journal.rollback(boundary, resume)
                batcher.restore(queue)
                active = list(active_at)
                model = TPDecodeModel(cfg.model_config, comm,
                                      algorithm=cfg.algorithm,
                                      seed=cfg.seed)
                model.restore(model_at)
                rollback = boundary - resume
                boundary = resume
                known_dead |= set(exc.failures)
                # Record the event before the post-shrink sync so a
                # cascading crash during recovery still leaves a trace.
                events.append({
                    "event": "shrink", "failed_ranks": new_failed,
                    "old_size": old_size, "new_size": comm.size,
                    "detected": detected, "rollback": rollback,
                })
                t = _sync_decision_time(comm)
                # In-flight requests' tokens died with the crashed world:
                # deterministically re-enqueue (or shed at budget).
                requeued: List[int] = []
                dropped: List[int] = []
                for rq, _emitted in active:
                    attempt = journal.get(rq.rid).retries + 1
                    if attempt > cfg.retry_budget:
                        journal.update(rq.rid, admitted=None, tokens=(),
                                       retries=attempt, status="shed")
                        dropped.append(rq.rid)
                    else:
                        journal.update(rq.rid, admitted=None, tokens=(),
                                       retries=attempt)
                        batcher.requeue(
                            rq, _retry_release(cfg, rq.rid, attempt, t))
                        requeued.append(rq.rid)
                active = []
                events[-1].update(resumed=t, requeued=requeued,
                                  dropped=dropped)
            elif t is None:
                t = _sync_decision_time(comm)
            step_no += 1
            comm.maybe_crash(iteration=step_no)
            # Timeout detection on the simulated clock: queued requests
            # whose completion deadline already passed are reaped here.
            for rq in batcher.expire(t):
                journal.update(rq.rid, status="timeout")
            batch = batcher.admit(t, cfg.max_batch_size - len(active),
                                  bool(active))
            if batch:
                # Deadline-aware admission control: shed what even an
                # uncontended run at the current world size cannot finish
                # in time (post-shrink capacity raises this bound).
                kept: List[Request] = []
                for rq in batch:
                    dl = rq.deadline_at(cfg.deadline)
                    if dl is not None and t + model.min_service_seconds(
                            rq.prompt_tokens, rq.output_tokens) > dl:
                        journal.update(rq.rid, status="shed")
                    else:
                        kept.append(rq)
                if not kept:
                    continue
                for rq in kept:
                    journal.update(rq.rid, admitted=t)
                model.step(sum(rq.prompt_tokens for rq in kept))
                prefill_batches += 1
                t = _sync_decision_time(comm)
                for rq in kept:
                    journal.update(rq.rid, tokens=(t,))
                    if rq.output_tokens > 1:
                        active.append((rq, 1))
                commit_boundary()
                continue
            if active:
                model.step(len(active))
                decode_steps += 1
                t = _sync_decision_time(comm)
                still: List[Tuple[Request, int]] = []
                for rq, emitted in active:
                    emitted += 1
                    journal.update(rq.rid,
                                   tokens=journal.get(rq.rid).tokens + (t,))
                    if emitted < rq.output_tokens:
                        still.append((rq, emitted))
                active = still
                commit_boundary()
                continue
            t_next = batcher.next_decision(t)
            if t_next is None:
                # Leave only through an agreement every survivor joins: a
                # rank whose last sync completed (the dead rank's eager
                # post had reached it) fails here instead of returning,
                # and takes part in the rollback of those whose sync
                # failed.
                _sync_decision_time(comm)
                break
            comm._advance_clock(t_next)
            t = _sync_decision_time(comm)
        except RankFailedError as exc_:
            failure = exc_  # recover at the top of the next pass

    records = []
    for rq in workload.requests:
        st = journal.get(rq.rid)
        records.append(RequestRecord(
            rq.rid, rq.arrival, rq.prompt_tokens, rq.output_tokens,
            st.admitted, st.tokens, status=st.status, retries=st.retries,
            deadline=rq.deadline_at(cfg.deadline)))
    return {
        "records": records,
        "checksum": model.checksum,
        "steps": {"prefill_batches": prefill_batches,
                  "decode_steps": decode_steps},
        "events": events,
    }


def simulate_serving(cfg: ServeConfig, *,
                     workload: Optional[Workload] = None,
                     network: Optional[NetworkModel] = None,
                     runner: Optional[str] = None,
                     fused: Optional[bool] = None,
                     faults: Optional[FaultPlan] = None) -> ServeReport:
    """Run one serving simulation; a pure function of ``(cfg, workload,
    network, faults)`` — bit-identical across runners and fused/unfused
    paths.  Under a fault plan the run survives the whole PR-6 model:
    crashed ranks return no records and the report is assembled from the
    (bit-identical) survivors."""
    if cfg.p < 1:
        raise ConfigError(f"p must be >= 1, got {cfg.p}")
    wl = workload if workload is not None else cfg.workload()
    if len(wl) == 0:
        raise ConfigError("serving needs a non-empty workload")
    res = run_spmd(cfg.p, _rank_serve, cfg, wl, model=network,
                   runner=runner, fused=fused, faults=faults)
    survivors = res.survivors
    first = res[survivors[0]]
    for r in survivors[1:]:  # the loop's own cross-rank contract
        if res[r]["records"] != first["records"]:
            raise AssertionError(
                f"rank {r} serving records diverged from "
                f"rank {survivors[0]}")
    return ServeReport(
        p=cfg.p,
        algorithm=cfg.algorithm,
        requests=first["records"],
        makespan=res.makespan,
        checksum=first["checksum"],
        algorithms=res.network.algorithm_provenance(),
        steps=first["steps"],
        config={"rate": cfg.rate, "n_requests": cfg.n_requests,
                "max_batch_size": cfg.max_batch_size,
                "max_wait": cfg.max_wait, "hidden": cfg.hidden,
                "layers": cfg.layers, "seed": cfg.seed},
        faulted=faults is not None,
        events=list(first.get("events", ())),
    )


def sweep_load(cfg: ServeConfig, rates: Sequence[float], *,
               network: Optional[NetworkModel] = None,
               runner: Optional[str] = None,
               fused: Optional[bool] = None,
               faults: Optional[FaultPlan] = None) -> List[ServeReport]:
    """Goodput-vs-offered-load sweep: one serving run per rate (same seed
    and shapes, fresh network each — runs are independent)."""
    return [simulate_serving(replace(cfg, rate=float(rate)),
                             network=network, runner=runner, fused=fused,
                             faults=faults)
            for rate in rates]
