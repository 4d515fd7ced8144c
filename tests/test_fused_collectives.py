"""Fused collective fast path: schedule-compiler properties and the
three-way bit-identity oracle (fused-coop == per-message-coop == threads).

The fused path (``repro.comm.fused``) must be *indistinguishable* from the
per-message reference in everything the simulator observes: results,
per-rank traffic counters, link occupancy and simulated clocks/makespans —
for every collective, power-of-two and non-power-of-two P, object and
array payloads, the schemes built on top, and fused collectives issued
inside ``async_region`` under stream-mode contention.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.allreduce import ParamLayout, make_allreduce
from repro.allreduce.session import run_session
from repro.comm import NetworkModel, collectives as coll, fusion_enabled, \
    run_spmd
from repro.comm import fused as fused_mod
from repro.errors import RankFailedError

PS = [2, 3, 4, 5, 8]


@pytest.fixture(autouse=True)
def _fusion_floors_off(monkeypatch):
    """Pin the profitability floor to zero so every P in ``PS`` exercises
    the fused path (the default floor routes P <= 3 to the per-message
    path for wall-clock reasons — semantics coverage must not shrink)."""
    monkeypatch.setenv(fused_mod.FUSED_MIN_RANKS_ENV, "0")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def net_state(res):
    net = res.network
    return (list(net.clocks), list(net.egress_free),
            list(net.ingress_free), list(net.words_sent),
            list(net.words_recv), list(net.msgs_sent),
            list(net.msgs_recv))


def assert_same(a, b, path=""):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), f"value bits differ at {path}"
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif hasattr(a, "indices") and hasattr(a, "values"):  # COOVector
        assert_same(a.indices, b.indices, f"{path}.indices")
        assert_same(a.values, b.values, f"{path}.values")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def three_way(prog, p, *args, model=None):
    """Run under fused coop / reference coop / threads; assert identical
    network state; return the three results for result comparison."""
    a = run_spmd(p, prog, *args, runner="coop", fused=True, model=model)
    b = run_spmd(p, prog, *args, runner="coop", fused=False, model=model)
    c = run_spmd(p, prog, *args, runner="threads", model=model)
    sa = net_state(a)
    assert sa == net_state(b), f"fused vs reference state differs (P={p})"
    assert sa == net_state(c), f"fused vs threads state differs (P={p})"
    assert_same(list(a.results), list(b.results), f"P={p} ref")
    assert_same(list(a.results), list(c.results), f"P={p} threads")
    return a


# ---------------------------------------------------------------------------
# Schedule compiler properties: the compiled message schedule matches the
# executed per-message collective (message multiset and volumes, via the
# reference path's trace)
# ---------------------------------------------------------------------------
def _traced_messages(prog, p, *args):
    """Messages (src, dst, nwords, tag) of the per-message reference run
    (tracing disables fusion automatically)."""
    res = run_spmd(p, prog, *args, runner="coop", trace=True)
    return Counter((t.src, t.dst, t.nwords, t.tag)
                   for t in res.network.trace)


class TestScheduleCompiler:
    @pytest.mark.parametrize("p", PS + [16])
    @pytest.mark.parametrize("algo,n,wpe", [
        ("recursive_doubling", 129, 1),
        ("recursive_doubling", 7, 2),
        ("rabenseifner", 257, 1),
        ("rabenseifner", 64, 1),
    ])
    def test_allreduce_schedule_matches_trace(self, p, algo, n, wpe):
        dtype = np.float32 if wpe == 1 else np.float64

        def prog(comm):
            arr = np.arange(n, dtype=dtype) + comm.rank
            table = {"recursive_doubling": coll.allreduce_recursive_doubling,
                     "rabenseifner": coll.allreduce_rabenseifner}
            table[algo](comm, arr)

        sched = fused_mod.compile_allreduce(p, n, wpe, algo)
        assert Counter(sched.messages()) == _traced_messages(prog, p)

    @pytest.mark.parametrize("p", PS + [16])
    def test_ring_schedules_match_trace(self, p):
        n = 101

        def prog(comm):
            coll.allreduce_ring(comm, np.arange(n, dtype=np.float32))

        rs = fused_mod.compile_reduce_scatter_ring(p, n, 1)
        ag = fused_mod.compile_allgather_ring(p, n, 1)
        assert (Counter(rs.messages()) + Counter(ag.messages())
                == _traced_messages(prog, p))

    @pytest.mark.parametrize("p", PS + [16])
    def test_allgatherv_schedule_matches_trace(self, p):
        def prog(comm):
            coll.allgatherv(comm, np.arange(comm.rank + 2,
                                            dtype=np.float32))

        sizes = tuple(r + 2 for r in range(p))
        sched = fused_mod.compile_allgatherv(p, sizes)
        assert Counter(sched.messages()) == _traced_messages(prog, p)

    @pytest.mark.parametrize("p", PS)
    def test_small_collective_schedules_match_trace(self, p):
        root = p - 1

        def prog(comm):
            coll.barrier(comm)
            coll.bcast(comm, np.arange(5, dtype=np.float32), root=root)
            coll.reduce(comm, np.arange(4, dtype=np.float32), root=root)
            coll.gather(comm, np.arange(3, dtype=np.float32), root=root)
            coll.scatter(comm,
                         [np.arange(2, dtype=np.float32)] * comm.size
                         if comm.rank == root else None, root=root)
            coll.alltoallv(comm, [np.arange(j + 1, dtype=np.float32)
                                  for j in range(comm.size)])

        expect = Counter()
        expect += Counter(fused_mod.compile_barrier(p).messages())
        expect += Counter(fused_mod.compile_bcast(p, root, 5).messages())
        expect += Counter(fused_mod.compile_reduce(p, root, 4, 1).messages())
        expect += Counter(
            fused_mod.compile_gather(p, root, (3,) * p).messages())
        expect += Counter(
            fused_mod.compile_scatter(p, root, (2,) * p).messages())
        rows = tuple(tuple(j + 1 for j in range(p)) for _ in range(p))
        expect += Counter(fused_mod.compile_alltoallv(p, rows).messages())
        assert expect == _traced_messages(prog, p)

    @pytest.mark.parametrize("p", PS + [16])
    def test_schedule_totals_are_symmetric(self, p):
        """Every compiled message is delivered: per-rank totals add up."""
        for sched in (fused_mod.compile_allreduce(p, 33, 1, "rabenseifner"),
                      fused_mod.compile_allgatherv(p, tuple(range(1, p + 1))),
                      fused_mod.compile_barrier(p)):
            assert sum(sched.words_sent) == sum(sched.words_recv)
            assert sum(sched.msgs_sent) == sum(sched.msgs_recv)
            assert sum(sched.msgs_sent) == sched.nmsgs


# ---------------------------------------------------------------------------
# Three-way bit identity: every collective, staggered clocks, pending
# point-to-point traffic, object payloads, both payload word sizes
# ---------------------------------------------------------------------------
def _collective_torture(comm):
    p, r = comm.size, comm.rank
    rng = np.random.default_rng(1000 + r)
    comm.compute(r * 3.7e-7)                     # staggered clocks
    req = comm.isend(np.float32([r]), (r + 1) % p, tag=7)  # pending p2p
    root = p - 1
    x = rng.standard_normal(211).astype(np.float32)
    out = [
        coll.allreduce(comm, x, algo="rabenseifner"),
        coll.allreduce(comm, x, algo="recursive_doubling"),
        coll.allreduce(comm, x, algo="ring"),
        coll.allreduce_recursive_doubling(
            comm, np.linspace(0.0, 1.0, p + 1)),     # float64, wpe=2
        coll.bcast(comm, x if r == root else None, root=root),
        coll.reduce(comm, x, root=0),
        coll.allgatherv(comm, x[:r + 1]),
        coll.allgather_object(comm, (r, "tag")),
        coll.alltoallv(comm, [x[j:j + 2] for j in range(p)]),
        coll.gather(comm, x[:4], root=root),
        coll.scatter(comm, [x[j:j + 3] for j in range(p)]
                     if r == 0 else None, root=0),
    ]
    coll.barrier(comm)
    got = comm.recv((r - 1) % p, tag=7)          # drain the pending p2p
    req.wait()
    return out, got, comm.clock


class TestThreeWayBitIdentity:
    @pytest.mark.parametrize("p", PS + [16])
    def test_collectives(self, p):
        three_way(_collective_torture, p)

    @pytest.mark.parametrize("p", [3, 4])
    def test_collectives_with_overheads(self, p):
        model = NetworkModel(o_inject=3e-8, o_send=1e-8)
        three_way(_collective_torture, p, model=model)

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("scheme,kwargs", [
        ("dense", {}),
        ("dense_ovlp", {"nbuckets": 3}),
        ("gtopk", {"k": 40}),
        ("topka", {"k": 40}),
        ("gaussiank", {"k": 40}),
        ("topkdsa", {"k": 40}),
        ("oktopk", {"k": 40, "tau": 2, "tau_prime": 2}),
        ("oktopk", {"k": 40, "rotation": False, "bucket_size": 2}),
    ])
    def test_schemes(self, p, scheme, kwargs):
        def prog(comm):
            rng = np.random.default_rng(7 + comm.rank)
            sch = make_allreduce(scheme, **kwargs)
            outs = []
            for t in range(1, 4):
                acc = rng.standard_normal(541).astype(np.float32)
                res = sch.reduce(comm, acc, t)
                upd = res.update
                outs.append((upd.indices.copy(), upd.values.copy())
                            if hasattr(upd, "indices") else upd)
                outs.append(comm.clock)
            return outs

        three_way(prog, p)

    @pytest.mark.parametrize("p", [4, 5])
    def test_stream_mode_contention(self, p):
        """Fused collectives issued inside ``async_region`` keep
        contending with in-flight bucket traffic: the streamed multi-
        bucket session is three-way bit-identical."""
        layout = ParamLayout.from_sizes([96, 64, 48, 32])

        def prog(comm):
            rng = np.random.default_rng(3 + comm.rank)
            sch = make_allreduce("oktopk", k=30, tau=2, tau_prime=2)
            outs = []
            for t in range(1, 4):
                acc = rng.standard_normal(layout.n).astype(np.float32)

                def pacer(seg, _c=comm):
                    _c.compute(2e-6)

                res = run_session(sch, comm, layout, t, acc,
                                  bucket_size=64, pacer=pacer)
                outs.append((res.update.indices.copy(),
                             res.update.values.copy(), comm.clock))
            return outs

        three_way(prog, p)

    def test_trace_falls_back_to_reference(self):
        """Tracing needs per-message records: fusion must disengage."""
        def prog(comm):
            coll.allreduce(comm, np.ones(16, dtype=np.float32))

        res = run_spmd(4, prog, runner="coop", trace=True)
        assert len(res.network.trace) > 0

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED", "0")
        assert not fusion_enabled()
        monkeypatch.setenv("REPRO_FUSED", "1")
        assert fusion_enabled()
        monkeypatch.delenv("REPRO_FUSED")
        assert fusion_enabled()


# ---------------------------------------------------------------------------
# Profitability floor (world-size gate)
# ---------------------------------------------------------------------------
class TestFusionFloors:
    def _prog(self, comm):
        coll.allreduce(comm, np.ones(256, dtype=np.float32),
                       algo="recursive_doubling")

    def test_floor_defaults_and_env_parsing(self, monkeypatch):
        monkeypatch.delenv(fused_mod.FUSED_MIN_RANKS_ENV, raising=False)
        assert fused_mod.fusion_min_ranks() == 4
        monkeypatch.setenv(fused_mod.FUSED_MIN_RANKS_ENV, "2")
        assert fused_mod.fusion_min_ranks() == 2
        monkeypatch.setenv(fused_mod.FUSED_MIN_RANKS_ENV, "not-a-number")
        assert fused_mod.fusion_min_ranks() == 4

    def test_small_world_skip_records_provenance(self, monkeypatch):
        monkeypatch.delenv(fused_mod.FUSED_MIN_RANKS_ENV, raising=False)
        res = run_spmd(3, self._prog, runner="coop", fused=True)
        log = res.network.algorithm_log
        assert log[("allreduce", "recursive_doubling", "unfused-small")] \
            == {"calls": 1, "words": 256}
        # the reference path ran and recorded its own entry
        assert ("allreduce", "recursive_doubling", "forced") in log
        # at the floor nothing is skipped
        res = run_spmd(4, self._prog, runner="coop", fused=True)
        assert not any(mode == "unfused-small"
                       for _, _, mode in res.network.algorithm_log)

    def test_ring_decomposition_skip_records_both_phases(self, monkeypatch):
        monkeypatch.delenv(fused_mod.FUSED_MIN_RANKS_ENV, raising=False)

        def prog(comm):
            coll.allreduce(comm, np.ones(256, dtype=np.float32),
                           algo="ring")

        log = run_spmd(3, prog, runner="coop",
                       fused=True).network.algorithm_log
        assert ("reduce_scatter_ring", "ring", "unfused-small") in log
        assert ("allgather_ring", "ring", "unfused-small") in log

    def test_skipped_run_stays_bit_identical(self, monkeypatch):
        """With the default floors tripping (P=2), fused=True must land on
        exactly the reference execution."""
        monkeypatch.delenv(fused_mod.FUSED_MIN_RANKS_ENV, raising=False)
        three_way(_collective_torture, 2)


# ---------------------------------------------------------------------------
# Rendezvous semantics
# ---------------------------------------------------------------------------
class TestRendezvous:
    def test_mismatched_collectives_abort(self):
        def prog(comm):
            x = np.ones(8, dtype=np.float32)
            if comm.rank == 0:
                return coll.allreduce(comm, x, algo="rabenseifner")
            return coll.allreduce(comm, x, algo="recursive_doubling")

        with pytest.raises(RankFailedError, match="mismatch"):
            run_spmd(4, prog, runner="coop", fused=True)

    def test_missing_rank_is_deadlock(self):
        """A rank that never reaches the rendezvous deadlocks the rest —
        detected, not hung."""
        def prog(comm):
            if comm.rank == 0:
                return None
            return coll.allreduce(comm, np.ones(4, dtype=np.float32))

        with pytest.raises(RankFailedError, match="rendezvous"):
            run_spmd(3, prog, runner="coop", fused=True)

    def test_mixed_blocked_recv_and_rendezvous_deadlock(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=12345)   # never sent
            return coll.allreduce(comm, np.ones(4, dtype=np.float32))

        with pytest.raises(RankFailedError, match="can never match"):
            run_spmd(3, prog, runner="coop", fused=True)

    def test_failing_rank_unblocks_rendezvous(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            return coll.allreduce(comm, np.ones(4, dtype=np.float32))

        with pytest.raises(RankFailedError, match="boom"):
            run_spmd(3, prog, runner="coop", fused=True)
