"""Large-world (P >= 64) cross-runner identity.

An Ok-Topk ``train_scheme`` run at P=128 must complete on the
cooperative engine and be bit-identical to the threads oracle.  These worlds take seconds per iteration, so the tests
are marked ``scale`` (excluded from the fast CI job; the push-only
slow job and ``pytest -m scale`` run them).  The cooperative runs must
take the world-level Ok-Topk path on their steady-state iterations
(every iteration after the first): a silent fallback to the per-rank
path would leave the identity true but untested.
"""

import os
from dataclasses import asdict

import pytest

from repro.allreduce import oktopk
from repro.bench.harness import perf_proxy, proxy_network, train_scheme

RUNNER_ENV = "REPRO_SPMD_RUNNER"

pytestmark = pytest.mark.scale


def _train(p, iters, runner):
    # One sample per rank: ShardedLoader needs size <= global_batch <=
    # n_train, so the proxy dataset grows with the world.
    proxy = perf_proxy(n_train=p, global_batch=p)
    old = os.environ.get(RUNNER_ENV)
    os.environ[RUNNER_ENV] = runner
    try:
        return train_scheme(proxy, "oktopk", p, iters, density=0.05,
                            network=proxy_network())
    finally:
        if old is None:
            del os.environ[RUNNER_ENV]
        else:
            os.environ[RUNNER_ENV] = old


def _fingerprints(rec):
    return [asdict(r) for r in rec.records]


@pytest.fixture
def world_dispatches(monkeypatch):
    """Iterations the world-level Ok-Topk executor ran."""
    calls = []
    orig = oktopk._exec_world

    def counting(net, sig, payloads):
        calls.append(sig[1])
        return orig(net, sig, payloads)

    monkeypatch.setattr(oktopk, "_exec_world", counting)
    return calls


def test_p64_identical_across_all_runners(world_dispatches):
    base = _fingerprints(_train(64, 4, "coop"))
    assert world_dispatches == [2, 3, 4]
    assert base == _fingerprints(_train(64, 4, "threads"))


def test_p128_coop_matches_threads_oracle(world_dispatches):
    oracle = _fingerprints(_train(128, 2, "threads"))
    assert world_dispatches == []
    assert _fingerprints(_train(128, 2, "coop")) == oracle
    assert world_dispatches == [2]
