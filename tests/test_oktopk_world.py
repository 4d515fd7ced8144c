"""World-level Ok-Topk steady state: bit-identity against the per-rank paths.

On steady-state iterations (cached thresholds and boundaries, no τ/τ′
re-evaluation due) a rank-batched cooperative run executes Algorithm 1
for every rank in one dispatch (``oktopk._exec_world``).  Its oracles are
the per-rank paths that stay: the rank-batched-off run
(``REPRO_RANK_BATCH=0``), the per-message run (``fused=False``) and the
threaded runner.  Everything a run observes — updates, contributed
indices, per-rank phase times, clocks, traffic counters, provenance and
the ``OkTopkState`` counters — must be equal across all four, and the
world path must engage exactly on steady-state iterations at P >= 4.

The mutation tests at the bottom show the identity check still bites: a
one-ulp change of one reduced value, or one extra word booked on one
link, in the world path must make it fail.
"""

import numpy as np
import pytest

from repro.allreduce import make_allreduce
from repro.allreduce import oktopk as ok
from repro.bench.harness import perf_proxy, proxy_network
from repro.comm import run_spmd
from repro.comm.model import NetworkModel
from repro.data import ShardedLoader
from repro.errors import ConfigError
from repro.train import Trainer, TrainerConfig
from repro.train.rankbatch import RankBatch

TAU, TAU_PRIME = 4, 3
ITERS = 10            # due at t = 1, 4, 5, 7, 9, 10; steady at 2, 3, 6, 8
N = 2000


def _steady(iters, tau=TAU, tau_prime=TAU_PRIME):
    return [t for t in range(2, iters + 1)
            if (t - 1) % tau and (t - 1) % tau_prime]


@pytest.fixture
def world_calls(monkeypatch):
    """Iterations on which the world executor ran (one entry per
    dispatch, not per rank)."""
    calls = []
    orig = ok._exec_world

    def counting(net, sig, payloads):
        calls.append(sig[1])
        return orig(net, sig, payloads)

    monkeypatch.setattr(ok, "_exec_world", counting)
    return calls


def _run(monkeypatch, prog, p, *args, config="world", model=None):
    """One run under an execution configuration; returns everything the
    identity check compares."""
    monkeypatch.delenv("REPRO_RANK_BATCH", raising=False)
    runner, fused = "coop", None
    if config == "rank_batch_off":
        monkeypatch.setenv("REPRO_RANK_BATCH", "0")
    elif config == "per_message":
        fused = False
    elif config == "threads":
        runner = "threads"
    res = run_spmd(p, prog, *args, runner=runner, fused=fused,
                   model=model or proxy_network())
    monkeypatch.delenv("REPRO_RANK_BATCH", raising=False)
    st = res.stats
    return {
        "results": res.results,
        "clocks": list(res.network.clocks),
        "links": [list(res.network.egress_free),
                  list(res.network.ingress_free)],
        "traffic": [list(st.words_sent), list(st.words_recv),
                    list(st.msgs_sent), list(st.msgs_recv)],
        "provenance": res.network.algorithm_provenance(),
    }


def _assert_identical(a, b, *, full_provenance=True):
    assert a["results"] == b["results"]
    assert a["clocks"] == b["clocks"]
    assert a["links"] == b["links"]
    assert a["traffic"] == b["traffic"]
    pa, pb = a["provenance"], b["provenance"]
    if not full_provenance:
        # Below the fusion floor the fused collectives log their own
        # "unfused-small" skips; the per-message paths have nothing to skip.
        pa = {k: v for k, v in pa.items() if not k.endswith("/unfused-small")}
        pb = {k: v for k, v in pb.items() if not k.endswith("/unfused-small")}
    assert pa == pb


ORACLES = ("rank_batch_off", "per_message", "threads")


def _check_all(monkeypatch, world_calls, prog, p, *args, steady,
               model=None):
    world = _run(monkeypatch, prog, p, *args, model=model)
    engaged = list(world_calls)
    for config in ORACLES:
        other = _run(monkeypatch, prog, p, *args, config=config, model=model)
        _assert_identical(world, other,
                          full_provenance=config == "rank_batch_off")
    assert world_calls == engaged, "the oracles must not take the world path"
    assert engaged == (steady if p >= 4 else [])
    return world


# ---------------------------------------------------------------------------
# Trainer runs: records, clocks, traffic, provenance, state counters
# ---------------------------------------------------------------------------
def _train_prog(comm, kwargs):
    proxy = perf_proxy(hidden=16, image_size=8, n_train=64, global_batch=16)
    train, _ = proxy.make_splits()
    loader = ShardedLoader(train, proxy.global_batch, comm.rank, comm.size,
                           seed=3)
    cfg = TrainerConfig(iterations=ITERS, scheme="oktopk", density=0.05,
                        lr=proxy.lr, mode=proxy.mode,
                        scheme_kwargs=dict(tau=TAU, tau_prime=TAU_PRIME,
                                           **kwargs))
    trainer = Trainer(comm, proxy.make_model(), loader, cfg)
    rec = trainer.run()
    a = trainer.allreduce
    return (rec.to_dict(), comm.phase_times(),
            (a.local_evaluations, a.global_evaluations, a.repartitions,
             a.balancing_triggered))


@pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 16])
def test_trainer_identical_across_paths(monkeypatch, world_calls, p):
    _check_all(monkeypatch, world_calls, _train_prog, p, {},
               steady=_steady(ITERS))


def test_trainer_balancing_identical(monkeypatch, world_calls):
    world = _check_all(monkeypatch, world_calls, _train_prog, 8,
                       {"balance_trigger": 1.0}, steady=_steady(ITERS))
    counters = [r[2] for r in world["results"]]
    assert all(c[3] >= len(_steady(ITERS)) for c in counters)


# ---------------------------------------------------------------------------
# Direct reduces on synthetic accumulators: the data-dependent branches
# ---------------------------------------------------------------------------
def _reduce_prog(comm, kwargs, k, zero_at, scale_rank):
    """Algorithm 2 with synthetic gradients.  ``zero_at``: iterations
    whose accumulator is all zeros; ``scale_rank``: rank-dependent
    gradient drift that drives the selection guard."""
    comm.rank_batch = RankBatch(comm)
    sel = {"k": k} if k is not None else {"density": 0.05}
    algo = make_allreduce("oktopk", tau=TAU, tau_prime=TAU_PRIME,
                          **sel, **kwargs)
    rng = np.random.default_rng(1000 + comm.rank)
    residual = np.zeros(N, dtype=np.float32)
    out = []
    for t in range(1, ITERS + 1):
        grad = rng.standard_normal(N).astype(np.float32)
        # heavier coordinates in the first quarter skew the regions
        grad[: N // 4] *= 3.0
        if scale_rank:
            grad *= np.float32(4.0 ** ((t + comm.rank) % 3 - 1))
        acc = (np.zeros(N, dtype=np.float32) if t in zero_at
               else residual + grad)
        res = algo.reduce(comm, acc, t)
        residual = acc.copy()
        residual[res.contributed_indices] = 0.0
        info = {key: val for key, val in res.info.items()
                if key != "boundaries"}
        out.append((res.update.n, res.update.indices.tobytes(),
                    res.update.values.tobytes(),
                    res.contributed_indices.tobytes(), res.phase_times,
                    info, res.info["boundaries"].tolist()))
    st = algo.state
    return out, (st.local_evaluations, st.global_evaluations,
                 st.repartitions, st.balancing_triggered)


VARIANTS = {
    "default": ({}, None, (), False),
    "naive_rotation": ({"rotation": False}, None, (), False),
    "equal_partition": ({"balanced_partition": False}, None, (), False),
    "bucket_1": ({"bucket_size": 1}, None, (), False),
    "bucket_3": ({"bucket_size": 3}, None, (), False),
    "bucket_8_no_balancing": ({"bucket_size": 8, "data_balancing": False},
                              None, (), False),
    "always_balance": ({"balance_trigger": 1.0}, None, (), False),
    "guard": ({"selection_guard": 1.5}, None, (), True),
    "zero_accumulator": ({}, None, (3, 6), False),
    "k_ge_n": ({}, N + 3, (), False),
}


@pytest.mark.parametrize("p", [4, 5, 8])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_reduce_identical_across_paths(monkeypatch, world_calls, variant, p):
    kwargs, k, zero_at, drift = VARIANTS[variant]
    world = _check_all(monkeypatch, world_calls, _reduce_prog, p, kwargs, k,
                       zero_at, drift, steady=_steady(ITERS))
    counters = [r[1] for r in world["results"]]
    if variant == "always_balance":
        assert all(c[3] >= len(_steady(ITERS)) for c in counters)
    if variant == "guard":
        # re-evaluations beyond the τ′ schedule happened, on some ranks
        # more than on others
        scheduled = len([t for t in range(1, ITERS + 1)
                         if (t - 1) % TAU_PRIME == 0])
        assert max(c[0] for c in counters) > scheduled
    if variant == "zero_accumulator":
        updates = [r[0][2] for r in world["results"]]
        assert all(u[1] == b"" for u in updates)  # nothing survives


@pytest.mark.parametrize("rotation", [True, False])
def test_send_overheads_identical(monkeypatch, world_calls, rotation):
    """Per-post injection and send-completion overheads: the clock chain
    of back-to-back isends becomes a row-wise cumsum in the world path."""
    model = NetworkModel(alpha=2.0e-6, beta=2.0e-7, o_inject=3.0e-7,
                         o_send=1.0e-7)
    _check_all(monkeypatch, world_calls, _reduce_prog, 5,
               {"rotation": rotation, "bucket_size": 3}, None, (), False,
               steady=_steady(ITERS), model=model)


def test_small_worlds_keep_the_per_rank_path(monkeypatch, world_calls):
    for p in (2, 3):
        _check_all(monkeypatch, world_calls, _reduce_prog, p, {}, None, (),
                   True, steady=[])


def test_fusion_floor_gates_the_world_path(monkeypatch, world_calls):
    monkeypatch.setenv("REPRO_FUSED_MIN_RANKS", "6")
    _run(monkeypatch, _reduce_prog, 5, {}, None, (), False)
    assert world_calls == []
    monkeypatch.setenv("REPRO_FUSED_MIN_RANKS", "5")
    _run(monkeypatch, _reduce_prog, 5, {}, None, (), False)
    assert world_calls == _steady(ITERS)


def test_quantized_subclass_keeps_the_per_rank_path(monkeypatch,
                                                    world_calls):
    def prog(comm):
        comm.rank_batch = RankBatch(comm)
        algo = make_allreduce("oktopk_q", density=0.05, tau=TAU,
                              tau_prime=TAU_PRIME)
        rng = np.random.default_rng(comm.rank)
        for t in range(1, 4):
            algo.reduce(comm, rng.standard_normal(N).astype(np.float32), t)

    run_spmd(4, prog)
    assert world_calls == []


def test_world_update_is_shared_and_read_only(monkeypatch):
    def prog(comm):
        comm.rank_batch = RankBatch(comm)
        algo = make_allreduce("oktopk", density=0.05)
        rng = np.random.default_rng(comm.rank)
        results = [algo.reduce(comm, rng.standard_normal(N).astype(
            np.float32), t) for t in (1, 2)]
        return results[1].update

    ups = run_spmd(4, prog).results
    assert all(u is ups[0] for u in ups)
    with pytest.raises(ValueError):
        ups[0].values[0] = 1.0


# ---------------------------------------------------------------------------
# Oracle liveness: seeded mutations of the world path must be caught
# ---------------------------------------------------------------------------
def _perturb_one_reduced_value(monkeypatch):
    """One ulp on the largest reduced value of one owner, on the first
    world dispatch only."""
    orig_sums, orig_world = ok._owner_sums, ok._exec_world
    state = {"in_world": False, "done": False}

    def owner_sums(keys, vals, p, n):
        group_keys, sums, cuts = orig_sums(keys, vals, p, n)
        if state["in_world"] and not state["done"]:
            lo, hi = int(cuts[1]), int(cuts[2])         # owner 1
            i = lo + int(np.argmax(np.abs(sums[lo:hi])))
            sums[i] = np.nextafter(sums[i], np.float32(np.inf))
            state["done"] = True
        return group_keys, sums, cuts

    def world(net, sig, payloads):
        state["in_world"] = True
        try:
            return orig_world(net, sig, payloads)
        finally:
            state["in_world"] = False

    monkeypatch.setattr(ok, "_owner_sums", owner_sums)
    monkeypatch.setattr(ok, "_exec_world", world)


def _one_extra_word(monkeypatch):
    """One more word on one ingress link: the first rank's last delivery
    in the first split-and-reduce receive booking of the first world
    dispatch (at P=8 and bucket size 8 that is the only bucket)."""
    orig_rows, orig_world = NetworkModel.serialize_rows, ok._exec_world
    state = {"in_world": False, "calls": 0}

    def serialize_rows(self, free, avail, nwords):
        if state["in_world"]:
            state["calls"] += 1
            if state["calls"] == 2:          # posts first, then deliveries
                nwords = np.array(nwords, dtype=np.float64)
                nwords[0, -1] += 1.0
        return orig_rows(self, free, avail, nwords)

    def world(net, sig, payloads):
        state["in_world"] = True
        try:
            return orig_world(net, sig, payloads)
        finally:
            state["in_world"] = False

    monkeypatch.setattr(NetworkModel, "serialize_rows", serialize_rows)
    monkeypatch.setattr(ok, "_exec_world", world)


@pytest.mark.parametrize("mutate", [_perturb_one_reduced_value,
                                    _one_extra_word])
def test_identity_check_catches_world_path_mutations(monkeypatch, mutate):
    args = ({}, None, (), False)
    reference = _run(monkeypatch, _reduce_prog, 8, *args,
                     config="rank_batch_off")
    clean = _run(monkeypatch, _reduce_prog, 8, *args)
    _assert_identical(clean, reference)
    with monkeypatch.context() as m:
        mutate(m)
        mutated = _run(m, _reduce_prog, 8, *args)
    with pytest.raises(AssertionError):
        _assert_identical(mutated, reference)


# ---------------------------------------------------------------------------
# Constructor validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"selection_guard": 0.5}, {"selection_guard": 1.0},
    {"selection_guard": float("nan")},
    {"balance_trigger": float("nan")}, {"balance_trigger": float("inf")},
    {"balance_trigger": -1.0},
    {"bucket_size": 0}, {"bucket_size": -2}, {"bucket_size": 2.5},
])
def test_rejects_invalid_arguments(kwargs):
    with pytest.raises(ConfigError):
        make_allreduce("oktopk", density=0.05, **kwargs)


@pytest.mark.parametrize("kwargs", [{"tau": 0}, {"tau_prime": 0}])
def test_tau_keeps_value_error(kwargs):
    with pytest.raises(ValueError):
        make_allreduce("oktopk", density=0.05, **kwargs)
