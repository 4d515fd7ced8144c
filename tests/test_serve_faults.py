"""Fault-tolerant serving: survivable TP inference under live traffic.

The ISSUE-10 acceptance criteria, as tests:

* a P=4 serving run with a mid-run ``RankCrash`` completes — survivors
  shrink to 3, re-enqueued in-flight requests finish, goodput is positive
  on both sides of the failure — and the full report is bit-identical
  across the ``coop``/``threads`` runners and fused/unfused
  collective paths (crash recovery is a pure function of
  ``(seed, config, plan)``);
* request-level robustness: per-request deadlines, timeout reaping,
  deterministic retry with capped exponential backoff, and deadline-aware
  admission shedding are first-class terminal states with exact
  accounting in the report;
* transparency: ``faults=None`` never consults the robustness knobs and
  the report carries no degradation section;
* rollback: a crash a survivor catches one boundary later than another
  rolls every survivor back through the undo journal, with reports equal
  to those of the full per-boundary copies the journal replaced, and a
  crash in the final step still ends in one agreed shrink;
* a sweep of time-based crash placements always returns a report.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.comm.faults import (ComputeStraggler, FaultPlan, LinkSlowdown,
                               RankCrash)
from repro.serve import ServeConfig, simulate_serving
from repro.serve import loop
from repro.serve.loop import _retry_release

SMOKE = ServeConfig(p=4, rate=2000.0, n_requests=12, prompt_tokens=32,
                    output_tokens=3, max_batch_size=4, seed=0)

RUNNERS = ("coop", "threads")


def crash_at(time, rank=1, detect_timeout=1e-4):
    return FaultPlan(crashes=[RankCrash(rank=rank, time=time)],
                     detect_timeout=detect_timeout)


def signature(rep):
    """Everything semantically comparable across runners and fused paths
    ("unfused-small" is a coop+fused-only wall-clock provenance note)."""
    algos = {k: v for k, v in rep.algorithms.items()
             if not k.endswith("/unfused-small")}
    return (rep.requests, rep.summary(), rep.steps, rep.events,
            rep.makespan, rep.checksum, algos)


class TestCrashRecovery:
    def clean(self):
        return simulate_serving(SMOKE)

    def test_crash_mid_decode_recovers(self):
        clean = self.clean()
        # crash mid-decode of a request admitted after a few others have
        # fully completed, so goodput is measurable on both sides
        done = sorted(r.token_times[-1] for r in clean.requests)
        rec = next(r for r in clean.requests
                   if len(r.token_times) >= 2 and r.token_times[0] > done[2])
        t = 0.5 * (rec.token_times[0] + rec.token_times[1])
        rep = simulate_serving(SMOKE, faults=crash_at(t))

        (ev,) = rep.events
        assert ev["event"] == "shrink"
        assert ev["failed_ranks"] == [1]
        assert (ev["old_size"], ev["new_size"]) == (4, 3)
        assert ev["requeued"]  # tokens in flight died with the old world
        s = rep.summary()
        # the re-enqueued requests finish: nothing shed, nothing timed out
        assert s["availability"] == 1.0
        assert s["completed"] == SMOKE.n_requests
        assert s["total_retries"] == len(ev["requeued"])
        assert s["recovery_time"] > 0
        # goodput on both sides of the failure
        assert s["goodput_tokens_per_s_pre"] > 0
        assert s["goodput_tokens_per_s_post"] > 0
        assert rep.generated_tokens == 3 * SMOKE.n_requests

    def test_crash_mid_prefill_recovers(self):
        rec = self.clean().requests[0]
        t = 0.5 * (rec.admitted + rec.token_times[0])
        rep = simulate_serving(SMOKE, faults=crash_at(t, rank=2))

        (ev,) = rep.events
        assert ev["failed_ranks"] == [2]
        assert (ev["old_size"], ev["new_size"]) == (4, 3)
        assert rep.summary()["availability"] == 1.0
        assert rep.generated_tokens == 3 * SMOKE.n_requests

    def test_cascading_double_crash(self):
        clean = self.clean()
        t1 = clean.requests[2].token_times[0]
        t2 = clean.requests[-1].token_times[-1]
        plan = FaultPlan(crashes=[RankCrash(rank=3, time=t1),
                                  RankCrash(rank=1, time=0.5 * (t1 + t2))],
                         detect_timeout=1e-4)
        rep = simulate_serving(SMOKE, faults=plan)

        assert [ev["new_size"] for ev in rep.events] == [3, 2]
        assert rep.summary()["availability"] == 1.0
        assert rep.generated_tokens == 3 * SMOKE.n_requests

    def test_shrink_to_lone_survivor(self):
        cfg = replace(SMOKE, p=2, n_requests=8)
        t = simulate_serving(cfg).requests[3].token_times[0]
        rep = simulate_serving(cfg, faults=crash_at(t, rank=0))

        (ev,) = rep.events
        assert (ev["old_size"], ev["new_size"]) == (2, 1)
        assert rep.summary()["availability"] == 1.0

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_bit_identical_across_runners_and_fused(self, runner, fused):
        rec = next(r for r in self.clean().requests
                   if len(r.token_times) >= 2)
        plan = crash_at(0.5 * (rec.token_times[0] + rec.token_times[1]))
        base = signature(simulate_serving(SMOKE, faults=plan))
        got = signature(simulate_serving(SMOKE, faults=plan,
                                         runner=runner, fused=fused))
        assert got == base, (runner, fused)


class TestRequestRobustness:
    def test_retry_release_is_pure_and_capped(self):
        cfg = SMOKE
        a = _retry_release(cfg, rid=7, attempt=1, now=1.0)
        assert a == _retry_release(cfg, rid=7, attempt=1, now=1.0)
        assert a != _retry_release(cfg, rid=8, attempt=1, now=1.0)
        assert a != _retry_release(replace(cfg, seed=9), 7, 1, 1.0)
        for attempt in range(1, 8):
            delay = _retry_release(cfg, 7, attempt, 0.0)
            # capped exponential with jitter in [0, 1): never more than
            # twice the cap, never less than the uncapped base step
            assert delay <= 2.0 * cfg.retry_backoff_cap
            assert delay >= min(cfg.retry_backoff * 2 ** (attempt - 1),
                                cfg.retry_backoff_cap)

    def test_crash_run_repeats_identically(self):
        t = simulate_serving(SMOKE).requests[4].token_times[0]
        a = simulate_serving(SMOKE, faults=crash_at(t))
        b = simulate_serving(SMOKE, faults=crash_at(t))
        assert signature(a) == signature(b)

    def test_shed_accounting(self):
        # max_wait=0 admits at arrival; the analytic service bound alone
        # exceeds the deadline, so every request is shed at admission.
        cfg = replace(SMOKE, n_requests=8, max_wait=0.0, deadline=5e-5)
        rep = simulate_serving(cfg, faults=FaultPlan())
        s = rep.summary()
        assert s["shed"] == 8
        assert s["completed"] == 0
        assert s["availability"] == 0.0
        assert all(r.status == "shed" and not r.token_times
                   for r in rep.requests)

    def test_timeout_reaping(self):
        # with the default max_wait the batcher holds requests queued past
        # a deadline this tight; they are reaped as timeouts, not errors
        cfg = replace(SMOKE, deadline=3e-5)
        rep = simulate_serving(cfg, faults=FaultPlan())
        s = rep.summary()
        assert s["timeout"] > 0
        timed_out = [r for r in rep.requests if r.status == "timeout"]
        assert timed_out and all(not r.token_times for r in timed_out)

    def test_straggler_and_slow_link_degrade_honestly(self):
        plan = FaultPlan(stragglers=[ComputeStraggler(rank=0, factor=40.0)],
                         links=[LinkSlowdown(rank=2, factor=20.0)])
        cfg = replace(SMOKE, deadline=2e-3)
        clean = simulate_serving(SMOKE, faults=FaultPlan())
        slow = simulate_serving(cfg, faults=plan)
        s = slow.summary()
        assert slow.makespan > clean.makespan
        assert s["availability"] < 1.0
        assert s["timeout"] > 0
        assert s["slo_attainment"] <= s["availability"]

    def test_retry_budget_exhaustion_sheds(self):
        clean = simulate_serving(SMOKE)
        t1 = clean.requests[2].token_times[0]
        plan = FaultPlan(crashes=[RankCrash(rank=3, time=t1),
                                  RankCrash(rank=2, time=t1 * 1.5),
                                  RankCrash(rank=1, time=t1 * 2.25)],
                         detect_timeout=1e-4)
        rep = simulate_serving(replace(SMOKE, retry_budget=1), faults=plan)
        dropped = [rid for ev in rep.events for rid in ev["dropped"]]
        if dropped:  # budget bites only if some request is hit twice
            assert rep.summary()["shed"] >= len(set(dropped))
            assert all(rep.requests[rid].status == "shed"
                       for rid in dropped)
        assert rep.summary()["availability"] < 1.0 or not dropped


class TestTransparency:
    def test_plan_less_run_ignores_robustness_knobs(self):
        # deadline/retry knobs are only consulted by the fault-aware loop;
        # without a plan the fast path must not even read them
        base = simulate_serving(SMOKE)
        knobs = simulate_serving(replace(SMOKE, deadline=1e-9,
                                         retry_budget=0,
                                         retry_backoff=1.0))
        assert base.requests == knobs.requests
        assert base.summary() == knobs.summary()
        assert base.checksum == knobs.checksum

    def test_plan_less_report_has_no_degradation_section(self):
        rep = simulate_serving(SMOKE)
        assert rep.faulted is False
        assert rep.events == []
        s = rep.summary()
        for key in ("availability", "slo_attainment", "recovery_time",
                    "shed", "timeout"):
            assert key not in s

    def test_explicit_none_matches_default(self):
        assert signature(simulate_serving(SMOKE)) == \
            signature(simulate_serving(SMOKE, faults=None))

    def test_empty_plan_reports_healthy_degradation_section(self):
        rep = simulate_serving(SMOKE, faults=FaultPlan())
        assert rep.faulted is True
        assert rep.events == []
        s = rep.summary()
        assert s["availability"] == 1.0
        assert s["slo_attainment"] == 1.0
        assert s["recovery_time"] == 0.0
        # same admissions and stamps as the plan-less fast path
        clean = simulate_serving(SMOKE)
        assert [(r.rid, r.admitted, r.token_times) for r in rep.requests] \
            == [(r.rid, r.admitted, r.token_times) for r in clean.requests]


# A P=3 configuration whose decision times are close enough together that
# crashes just after a stamp catch survivors one boundary apart.
P3 = ServeConfig(p=3, rate=4000.0, n_requests=16, prompt_tokens=48,
                 output_tokens=4, max_batch_size=4, seed=1)


def digest(rep):
    """What a rollback decides: records, step counts and events.  Not the
    makespan, which the exit agreement's own allgather extends, nor the
    model checksum, whose last bits may depend on the numpy build."""
    blob = repr((rep.requests, rep.steps, rep.events))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: (crashed rank, crash time, rollback, digest) of P3 runs, recorded with
#: the full per-boundary copies of every request's state that the undo
#: journal replaced
ROLLBACK_DIGESTS = [
    (0, 0.0009613800149931352, 0, "f2ecf949ca1a1b16"),
    (1, 0.0009613800149931352, 1, "46d9936da742277e"),
    (2, 0.0009613800149931352, 0, "a4af4854184091bc"),
    (0, 0.0009712576757931353, 0, "22e9024c1749ea5a"),
    (1, 0.0009712576757931353, 0, "63ea900d81038348"),
    (2, 0.0009712576757931353, 0, "e7c73093f3dd849b"),
    (0, 0.002535464634376499, 0, "a45a08455990972c"),
    (1, 0.002535464634376499, 1, "506b10edfa259895"),
    (2, 0.002535464634376499, 0, "8c9e696f7c115d28"),
    (0, 0.0025478195559765003, 0, "95f95976f70f603d"),
    (1, 0.0025478195559765003, 0, "995266c46b5afd61"),
    (2, 0.0025478195559765003, 0, "a4bae94d6ee3f444"),
    (0, 0.0030398205054326176, 0, "c5bc818c9710f882"),
    (1, 0.0030398205054326176, 1, "f8f6499867ad867a"),
    (2, 0.0030398205054326176, 0, "7c293782249faca3"),
    (0, 0.0030521754270326188, 0, "1418fb7f114ac066"),
    (1, 0.0030521754270326188, 0, "9a8e02aafa21bf77"),
    (2, 0.0030521754270326188, 0, "8880ad5359754f52"),
    (0, 0.0037271517906194945, 0, "dd0ed203c1f63c00"),
    (1, 0.0037271517906194945, 1, "d6d49bcf8ed04575"),
    (2, 0.0037271517906194945, 0, "0d03e45439430c50"),
    (0, 0.003777068849819498, 0, "b7c166463bbbcac0"),
    (1, 0.003777068849819498, 0, "039964252fd0a5f2"),
    (2, 0.003777068849819498, 0, "8791a55c3350970b"),
    (0, 0.003901915438619507, 0, "998e94df7fbe6dad"),
    (1, 0.003901915438619507, 1, "1ee65d67f0aa57eb"),
    (2, 0.003901915438619507, 0, "03b941061fb85b19"),
    (0, 0.004140753048993908, 0, "998e94df7fbe6dad"),
    (1, 0.004140753048993908, 0, "6a46f41605fdf5da"),
    (2, 0.004140753048993908, 0, "699013611d7e406a"),
]


class TestRollback:
    #: one survivor's decision-clock sync completes on rank 1's eager post
    #: just before rank 1 dies and the other's does not, so the two catch
    #: the failure one boundary apart
    ONE_BEHIND = crash_at(0.0009419233530411351)
    #: rank 1 dies inside the last sync: rank 0 completes it and finds
    #: nothing left to serve, while rank 2 must roll back
    FINAL_STEP = crash_at(0.004438957964520295)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_one_boundary_rollback(self, runner, fused):
        base = simulate_serving(P3, faults=self.ONE_BEHIND)
        (ev,) = base.events
        assert (ev["new_size"], ev["rollback"]) == (2, 1)
        assert base.summary()["completed"] == P3.n_requests
        got = simulate_serving(P3, faults=self.ONE_BEHIND, runner=runner,
                               fused=fused)
        assert signature(got) == signature(base), (runner, fused)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_crash_in_final_step_joins_rollback(self, runner, fused):
        # records agree, or simulate_serving raises AssertionError
        rep = simulate_serving(P3, faults=self.FINAL_STEP, runner=runner,
                               fused=fused)
        (ev,) = rep.events
        assert (ev["old_size"], ev["new_size"]) == (3, 2)
        assert ev["rollback"] == 1 and ev["requeued"]
        assert rep.summary()["completed"] == P3.n_requests

    def test_journal_restores_what_full_copies_restored(self):
        got = []
        for rank, t, _, _ in ROLLBACK_DIGESTS:
            rep = simulate_serving(P3, faults=crash_at(t, rank=rank))
            got.append((rank, t, rep.events[0]["rollback"], digest(rep)))
        assert got == ROLLBACK_DIGESTS

    def test_checkpoints_hold_only_touched_requests(self, monkeypatch):
        journals = []

        class Recorded(loop._Journal):
            def __init__(self):
                super().__init__()
                journals.append(self)

        monkeypatch.setattr(loop, "_Journal", Recorded)
        cfg = ServeConfig(p=3, rate=20000.0, n_requests=1024,
                          prompt_tokens=4, output_tokens=2,
                          max_batch_size=4, hidden=8, layers=1, seed=3)
        # a crash a survivor catches one boundary late (rollback 1)
        rep = simulate_serving(
            cfg, faults=crash_at(0.015620176367854878, rank=1))
        assert rep.events[0]["rollback"] == 1
        assert rep.summary()["completed"] == cfg.n_requests
        assert len(journals) == cfg.p
        for j in journals:
            # request entries kept for rollback: the undo records and the
            # active sets of the retained boundaries, plus the step in
            # progress (queue snapshots are C-level copies of the
            # pending stream and are not request state)
            held = len(j._undo) + sum(len(undo) + len(state[1])
                                      for undo, state in j._window.values())
            assert len(j._window) <= loop._WINDOW
            assert held <= 12 * cfg.max_batch_size, held


def _decision_times(cfg):
    clean = simulate_serving(cfg, faults=FaultPlan())
    return sorted({ts for r in clean.requests for ts in r.token_times})


def _assert_survives(cfg, rank, t):
    rep = simulate_serving(cfg, faults=crash_at(t, rank=rank))
    assert len(rep.events) <= 1, (rank, t)
    assert all(ev["new_size"] == cfg.p - 1 for ev in rep.events), (rank, t)
    assert rep.summary()["completed"] == cfg.n_requests, (rank, t)


class TestCrashPlacementSweep:
    """Time-based crashes at step midpoints and next to the decision
    times, on every rank.  Iteration-pinned crashes fire only at the top
    of a pass, so they never land inside a sync the way these do."""

    @pytest.mark.parametrize("p", [3, 4])
    def test_every_placement_returns_a_report(self, p):
        cfg = replace(P3, p=p)
        ts = _decision_times(cfg)
        times = [0.5 * (a + b) for a, b in zip(ts[::3], ts[1::3])]
        times += [ts[0] + 1e-7, ts[len(ts) // 2] + 1e-7,
                  ts[-1] - 2e-6, ts[-1] - 1e-7, ts[-1] + 1e-7]
        for rank in range(p):
            for t in times:
                _assert_survives(cfg, rank, t)

    @pytest.mark.slow
    @pytest.mark.parametrize("p", [3, 4])
    def test_wide_grid(self, p):
        cfg = replace(P3, p=p)
        ts = _decision_times(cfg)
        times = [0.5 * (a + b) for a, b in zip(ts, ts[1:])]
        times += [s + d for s in ts for d in (-1e-7, 1e-7)]
        for rank in range(p):
            for t in times:
                _assert_survives(cfg, rank, t)
