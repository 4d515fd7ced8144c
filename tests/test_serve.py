"""Tests for the inference serving subsystem (repro.serve).

The load-bearing assertions are the ISSUE-7 acceptance criteria:

* a serving run is a pure function of ``(seed, config)`` — bit-identical
  request records, percentiles, goodput and checksum across the ``coop``
  and ``threads`` runners and the fused/unfused collective paths,
  including non-power-of-two P (where per-rank clocks legitimately
  diverge and the loop's decision-clock sync is what keeps batching
  deterministic);
* the size-adaptive allreduce selector matches or beats both fixed
  choices in a latency-bound and a bandwidth-bound regime.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.comm.fused import LATENCY_OPTIMAL
from repro.errors import ConfigError
from repro.serve import (DynamicBatcher, Request, ServeConfig, Workload,
                         percentile, simulate_serving, sweep_load)


class TestWorkload:
    def test_poisson_deterministic_per_seed(self):
        a = Workload.poisson(20, 1000.0, seed=5)
        b = Workload.poisson(20, 1000.0, seed=5)
        c = Workload.poisson(20, 1000.0, seed=6)
        assert a.requests == b.requests
        assert a.requests != c.requests

    def test_poisson_rate_scales_span(self):
        slow = Workload.poisson(200, 100.0, seed=1)
        fast = Workload.poisson(200, 1000.0, seed=1)
        assert slow.span == pytest.approx(fast.span * 10)

    def test_ranged_token_specs(self):
        wl = Workload.poisson(50, 1000.0, prompt_tokens=(8, 16),
                              output_tokens=(2, 4), seed=2)
        assert all(8 <= rq.prompt_tokens <= 16 for rq in wl.requests)
        assert all(2 <= rq.output_tokens <= 4 for rq in wl.requests)
        assert len({rq.prompt_tokens for rq in wl.requests}) > 1

    def test_json_round_trip(self):
        wl = Workload.poisson(10, 500.0, prompt_tokens=(4, 64), seed=3)
        back = Workload.from_json(wl.to_json())
        assert back.requests == wl.requests

    def test_validation(self):
        with pytest.raises(ConfigError):
            Workload.poisson(0, 100.0)
        with pytest.raises(ConfigError):
            Workload.poisson(5, -1.0)
        with pytest.raises(ConfigError):
            Workload.poisson(5, 100.0, prompt_tokens=0)
        with pytest.raises(ConfigError):
            Workload((Request(0, 1.0, 4, 1), Request(1, 0.5, 4, 1)))

    @pytest.mark.parametrize("row", [
        '"arrival": NaN',
        '"arrival": Infinity',
        '"arrival": 0.5, "deadline": NaN',
        '"arrival": 0.5, "deadline": Infinity',
    ], ids=["arrival-nan", "arrival-inf", "deadline-nan", "deadline-inf"])
    def test_non_finite_fields_rejected(self, row):
        text = ('[{"arrival": 0.0, "prompt_tokens": 4, "output_tokens": 1}, '
                '{' + row + ', "prompt_tokens": 4, "output_tokens": 1}, '
                '{"arrival": 1.0, "prompt_tokens": 4, "output_tokens": 1}]')
        with pytest.raises(ConfigError, match="finite"):
            Workload.from_json(text)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_poisson_rejects_non_finite_rate(self, rate):
        with pytest.raises(ConfigError, match="rate must be finite"):
            Workload.poisson(5, rate)

    def test_poisson_rejects_nan_deadline(self):
        with pytest.raises(ConfigError, match="deadline must be finite"):
            Workload.poisson(5, 100.0, deadline=float("nan"))

    def test_direct_construction_rejects_nan_arrival(self):
        """Without the check every later ``<`` against NaN is False, so a
        NaN arrival would switch off the ordering check for the rest of
        the stream."""
        with pytest.raises(ConfigError, match="arrival must be finite"):
            Workload((Request(0, 0.0, 4, 1), Request(1, float("nan"), 4, 1),
                      Request(2, -1.0, 4, 1)))

    def test_counters(self):
        wl = Workload.from_arrivals([0.0, 1.0, 2.0], [4, 8, 2], [1, 2, 3])
        assert wl.total_output_tokens == 6
        assert wl.max_prompt_tokens == 8
        assert wl.span == 2.0
        assert len(wl) == 3


def _wl(arrivals, prompt=4, out=2):
    n = len(arrivals)
    return Workload.from_arrivals(arrivals, [prompt] * n, [out] * n)


class TestDynamicBatcher:
    def test_fires_when_full(self):
        b = DynamicBatcher(_wl([0.0, 0.1, 0.2, 0.3]), 2, max_wait=10.0)
        assert b.admit(0.05, 2, False) == []       # one pending, no timeout
        got = b.admit(0.1, 2, False)               # second arrival fills it
        assert [rq.rid for rq in got] == [0, 1]

    def test_fires_on_timeout_with_partial_batch(self):
        b = DynamicBatcher(_wl([0.0]), 4, max_wait=0.5)
        assert b.admit(0.4, 4, False) == []
        got = b.admit(0.5, 4, False)
        assert [rq.rid for rq in got] == [0]

    def test_continuous_batching_piggybacks(self):
        b = DynamicBatcher(_wl([0.0, 0.1]), 4, max_wait=10.0)
        # Engine active: arrived requests join immediately, no trigger.
        got = b.admit(0.05, 3, True)
        assert [rq.rid for rq in got] == [0]
        assert b.admit(0.05, 3, True) == []        # nothing else arrived

    def test_free_slots_cap(self):
        b = DynamicBatcher(_wl([0.0, 0.0, 0.0]), 8, max_wait=0.0)
        got = b.admit(0.0, 2, False)
        assert len(got) == 2
        assert b.pending == 1

    def test_next_decision_closed_form(self):
        b = DynamicBatcher(_wl([1.0, 2.0, 9.0]), 2, max_wait=3.0)
        # Batch of 2 completes at t=2.0, before the t=4.0 timeout.
        assert b.next_decision(0.0) == 2.0
        b.admit(2.0, 2, False)
        # One request left: only its timeout can fire.
        assert b.next_decision(2.0) == 12.0
        b.admit(12.0, 2, False)
        assert b.next_decision(12.0) is None

    def test_admit_at_next_decision_always_fires(self):
        b = DynamicBatcher(_wl([0.5, 1.5, 4.0]), 2, max_wait=2.0)
        t = 0.0
        admitted = []
        while True:
            nxt = b.next_decision(t)
            if nxt is None:
                break
            t = nxt
            got = b.admit(t, 2, False)
            assert got, f"admission must fire at its own decision time {t}"
            admitted += [rq.rid for rq in got]
        assert admitted == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ConfigError):
            DynamicBatcher(_wl([0.0]), 0, 1.0)
        with pytest.raises(ConfigError):
            DynamicBatcher(_wl([0.0]), 1, -1.0)
        with pytest.raises(ConfigError):
            DynamicBatcher(_wl([0.0]), 1, float("nan"))


def _naive_expire(queue, now, deadline):
    """The reference rule: every queued entry whose deadline has passed,
    in queue order."""
    return [e[2] for e in queue
            if (dl := e[2].deadline_at(deadline)) is not None and now >= dl]


class TestBatcherExpiry:
    def _deadlined(self, n=8, seed=0):
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.uniform(0.0, 1.0, n))
        dls = [None if rng.random() < 0.3 else float(rng.uniform(0.5, 4.0))
               for _ in range(n)]
        return Workload(tuple(
            Request(i, float(a), 4, 2, deadline=dl)
            for i, (a, dl) in enumerate(zip(arrivals, dls))))

    def test_reaps_in_queue_order(self):
        # rid 1's deadline passes first, but rid 0 comes first in the queue
        wl = Workload((Request(0, 0.0, 4, 2, deadline=3.0),
                       Request(1, 1.0, 4, 2, deadline=1.5),
                       Request(2, 2.0, 4, 2)))
        b = DynamicBatcher(wl, 4, max_wait=10.0)
        assert b.expire(2.0) == []
        assert [rq.rid for rq in b.expire(2.5)] == [1]
        b.requeue(wl.requests[1], 0.5)  # back in at the head of the queue
        assert [rq.rid for rq in b.expire(5.0)] == [0, 1]
        assert b.pending == 1

    def test_default_deadline_applies_to_requests_without_one(self):
        wl = Workload((Request(0, 0.0, 4, 2, deadline=9.0),
                       Request(1, 1.0, 4, 2)))
        b = DynamicBatcher(wl, 4, max_wait=10.0, deadline=2.0)
        assert [rq.rid for rq in b.expire(3.0)] == [1]
        assert DynamicBatcher(wl, 4, max_wait=10.0).expire(5.0) == []

    def test_no_deadline_work_when_nothing_can_expire(self, monkeypatch):
        b = DynamicBatcher(self._deadlined(64), 4, max_wait=10.0)
        assert b.expire(0.0) == []          # builds the index once
        calls = []
        orig = Request.deadline_at
        monkeypatch.setattr(Request, "deadline_at",
                            lambda rq, d=None: calls.append(rq) or orig(rq, d))
        for _ in range(100):
            assert b.expire(0.0) == []
        assert calls == []

    def test_admitted_requests_never_expire(self):
        wl = Workload((Request(0, 0.0, 4, 2, deadline=1.0),
                       Request(1, 0.0, 4, 2, deadline=1.0)))
        b = DynamicBatcher(wl, 1, max_wait=0.0)
        b.expire(0.0)
        assert [rq.rid for rq in b.admit(0.0, 1, False)] == [0]
        assert [rq.rid for rq in b.expire(1.0)] == [1]
        assert b.expire(1.0) == [] and b.pending == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_scan_under_mixed_operations(self, seed):
        wl = self._deadlined(24, seed)
        default = 2.5 if seed % 2 else None
        b = DynamicBatcher(wl, 3, max_wait=0.5, deadline=default)
        rng = np.random.default_rng(100 + seed)
        snaps, out = [], []
        now = 0.0
        for _ in range(60):
            now += float(rng.uniform(0.0, 0.6))
            op = rng.integers(5)
            if op == 0:
                out += b.admit(now, int(rng.integers(1, 4)), bool(out))
            elif op == 1 and out:
                b.requeue(out.pop(0), now + float(rng.uniform(0.0, 1.0)))
            elif op == 2:
                snaps.append(b.snapshot())
            elif op == 3 and snaps:
                b.restore(snaps[int(rng.integers(len(snaps)))])
            want = _naive_expire(b.snapshot(), now, default)
            assert b.expire(now) == want
            assert all(e[2] not in want for e in b.snapshot())


class TestPercentile:
    def test_interpolates(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        assert percentile(xs, 50.0) == pytest.approx(1.5)
        assert percentile(xs, 0.0) == 0.0
        assert percentile(xs, 100.0) == 3.0
        assert np.isnan(percentile([], 50.0))
        assert percentile([7.0], 99.0) == 7.0


SMOKE = ServeConfig(p=4, rate=2000.0, n_requests=12, prompt_tokens=32,
                    output_tokens=3, max_batch_size=4, seed=0)


class TestServing:
    def test_all_requests_complete_with_ordered_stamps(self):
        rep = simulate_serving(SMOKE)
        assert len(rep.requests) == SMOKE.n_requests
        for rec in rep.requests:
            assert rec.admitted >= rec.arrival
            assert len(rec.token_times) == rec.output_tokens
            assert rec.first_token > rec.admitted
            assert all(b > a for a, b in
                       zip(rec.token_times, rec.token_times[1:]))
        s = rep.summary()
        assert s["ttft_p99"] >= s["ttft_p50"] > 0
        assert s["latency_p99"] >= s["latency_p50"] > 0
        assert s["goodput_tokens_per_s"] > 0
        assert rep.generated_tokens == 3 * SMOKE.n_requests
        assert rep.steps["prefill_batches"] >= 1
        assert rep.steps["decode_steps"] >= 2  # 2 post-prefill tokens each

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_bit_identical_across_runners_and_fused(self, p):
        cfg = replace(SMOKE, p=p, seed=11)
        base = None
        for runner in ("coop", "threads"):
            for fused in (True, False):
                rep = simulate_serving(cfg, runner=runner, fused=fused)
                # "unfused-small" notes a wall-clock profitability skip;
                # only coop+fused runs can record it, so it is excluded
                # from the cross-runner semantic comparison.
                algos = {k: v for k, v in rep.algorithms.items()
                         if not k.endswith("/unfused-small")}
                sig = (rep.requests, rep.summary(), rep.steps, algos)
                if base is None:
                    base = sig
                else:
                    assert sig == base, (p, runner, fused)

    def test_pure_function_of_seed(self):
        a = simulate_serving(SMOKE).summary()
        b = simulate_serving(SMOKE).summary()
        c = simulate_serving(replace(SMOKE, seed=9)).summary()
        assert a == b
        assert a != c

    def test_trace_driven_matches_generated(self):
        wl = SMOKE.workload()
        via_trace = simulate_serving(
            SMOKE, workload=Workload.from_json(wl.to_json()))
        assert via_trace.requests == simulate_serving(SMOKE).requests

    def test_adaptive_exercises_both_regimes(self):
        # Default shapes: decode messages (<= 4*256 words) sit below the
        # P=4 crossover (~15000 words), prefill batches (>= 64*256) above.
        rep = simulate_serving(replace(SMOKE, prompt_tokens=64))
        assert f"allreduce/{LATENCY_OPTIMAL}/adaptive" in rep.algorithms
        assert "allreduce/rabenseifner/adaptive" in rep.algorithms

    def test_forced_algorithm_is_used_throughout(self):
        rep = simulate_serving(replace(SMOKE, algorithm="ring"))
        assert list(rep.algorithms) == ["allreduce/ring/forced"]

    @pytest.mark.parametrize("regime, cfg", [
        ("latency_bound", replace(SMOKE, prompt_tokens=4, output_tokens=12,
                                  rate=3000.0, n_requests=16)),
        ("bandwidth_bound", replace(SMOKE, prompt_tokens=192,
                                    output_tokens=1, rate=3000.0,
                                    n_requests=16)),
        ("mixed", replace(SMOKE, prompt_tokens=96, output_tokens=8,
                          n_requests=16)),
    ])
    def test_adaptive_matches_or_beats_fixed(self, regime, cfg):
        # Governing metric per regime (mirrors the BENCH_PERF serving
        # case): p99 inter-token latency when decode-dominated — the
        # makespan of a drained open-loop run is a batching outcome
        # there — and end-to-end makespan otherwise.
        def score(alg):
            rep = simulate_serving(replace(cfg, algorithm=alg))
            if regime == "latency_bound":
                return rep.summary()["itl_p99"]
            return rep.makespan

        scores = {alg: score(alg)
                  for alg in ("latency", "bandwidth", "adaptive")}
        assert scores["adaptive"] <= scores["latency"]
        assert scores["adaptive"] <= scores["bandwidth"]
        if regime == "mixed":  # per-phase optima: strictly beats both
            assert scores["adaptive"] < scores["latency"]
            assert scores["adaptive"] < scores["bandwidth"]

    def test_sweep_load_goodput_saturates(self):
        reps = sweep_load(replace(SMOKE, n_requests=48), [200.0, 50000.0])
        lo, hi = (r.summary() for r in reps)
        assert lo["offered_req_per_s"] < hi["offered_req_per_s"]
        # Under light load goodput tracks the offered rate...
        assert lo["goodput_req_per_s"] == pytest.approx(
            lo["offered_req_per_s"], rel=0.35)
        # ... under heavy load it falls behind (the server saturates).
        assert hi["goodput_req_per_s"] < 0.8 * hi["offered_req_per_s"]
        assert hi["latency_p99"] > lo["latency_p99"]

    @pytest.mark.parametrize("field, value", [
        ("deadline", float("nan")), ("deadline", float("inf")),
        ("deadline", 0.0), ("deadline", -1.0),
        ("max_wait", float("nan")), ("max_wait", float("inf")),
        ("max_wait", -1e-3),
        ("retry_budget", -1),
        ("retry_backoff", float("nan")), ("retry_backoff", -1.0),
        ("retry_backoff_cap", float("nan")), ("retry_backoff_cap", -1.0),
    ])
    def test_config_rejects_bad_numerics(self, field, value):
        with pytest.raises(ConfigError, match=field):
            replace(SMOKE, **{field: value})

    def test_config_accepts_boundary_values(self):
        cfg = replace(SMOKE, deadline=1e-9, max_wait=0.0, retry_budget=0,
                      retry_backoff=0.0, retry_backoff_cap=0.0)
        assert cfg.deadline == 1e-9 and cfg.retry_budget == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            simulate_serving(replace(SMOKE, p=0))
        with pytest.raises(ConfigError):
            simulate_serving(replace(SMOKE, n_requests=0))
