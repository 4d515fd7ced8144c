"""Unit tests for the cooperative engine and runner selection."""

import numpy as np
import pytest

from repro.comm import Network, resolve_runner, run_spmd
from repro.comm.launcher import RUNNER_ENV
from repro.errors import RankFailedError


class TestRunnerSelection:
    def test_default_is_coop(self):
        assert resolve_runner(None) == "coop"

    def test_aliases(self):
        assert resolve_runner("cooperative") == "coop"
        assert resolve_runner("threaded") == "threads"
        assert resolve_runner("THREADS") == "threads"

    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError, match="unknown SPMD runner"):
            resolve_runner("fibers")

    @pytest.mark.parametrize("name", ["gen", "generator", "GEN"])
    def test_gen_runner_rejected(self, name):
        with pytest.raises(ValueError, match="unknown SPMD runner"):
            resolve_runner(name)

    @pytest.mark.parametrize("runner", ["coop", "threads"])
    def test_generator_program_rejected(self, runner):
        def gen_prog(comm):
            yield comm.recv((comm.rank + 1) % comm.size)

        for p in (1, 2):
            with pytest.raises(TypeError, match="gen_prog"):
                run_spmd(p, gen_prog, runner=runner)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(RUNNER_ENV, "threads")
        assert resolve_runner(None) == "threads"
        # explicit argument wins over the environment
        assert resolve_runner("coop") == "coop"

    def test_env_invalid_value_raises(self, monkeypatch):
        monkeypatch.setenv(RUNNER_ENV, "bogus")
        with pytest.raises(ValueError):
            run_spmd(2, lambda comm: None)


class TestEngineExecution:
    def test_rank_order_determinism(self):
        """Execution produces rank-ordered results regardless of the
        interleaving of blocking points."""
        def prog(comm):
            out = []
            for it in range(4):
                got = comm.sendrecv(comm.rank * 100 + it,
                                    (comm.rank + 1) % comm.size,
                                    (comm.rank - 1) % comm.size, it)
                out.append(got)
            return out

        a = run_spmd(5, prog, runner="coop")
        b = run_spmd(5, prog, runner="coop")
        assert a.results == b.results
        assert a.makespan == b.makespan

    def test_network_reuse_across_sections(self):
        net = Network(3)

        def prog(comm):
            comm.send(comm.rank, (comm.rank + 1) % 3, 1)
            return comm.recv((comm.rank - 1) % 3, 1)

        first = run_spmd(3, prog, network=net, runner="coop")
        second = run_spmd(3, prog, network=net, runner="coop")
        assert first.results == second.results
        assert net._sched is None  # engine detached after each section
        assert net.stats().msgs_sent.sum() == 6

    def test_failure_unblocks_peers(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.recv(0)  # would block forever without abort propagation

        with pytest.raises(RankFailedError) as ei:
            run_spmd(3, prog, runner="coop")
        assert 0 in ei.value.failures
        assert isinstance(ei.value.failures[0], RuntimeError)

    def test_failure_after_partial_comm(self):
        def prog(comm):
            other = 1 - comm.rank
            comm.send(np.ones(4, dtype=np.float32), other, 1)
            comm.recv(other, 1)
            if comm.rank == 1:
                raise ValueError("late failure")
            comm.recv(other, 2)

        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, runner="coop")
        assert list(ei.value.failures) == [1]

    def test_single_rank_fast_path(self):
        def prog(comm):
            comm.send("self", comm.rank, 1)
            return comm.recv(comm.rank, 1)

        for runner in ("coop", "threads"):
            assert run_spmd(1, prog, runner=runner)[0] == "self"

    def test_ready_rank_runs_before_idle_wait(self):
        """A rank woken by a matching post resumes without polling: the
        result is exact and no wall-clock timeouts are involved."""
        def prog(comm):
            if comm.rank == 0:
                for d in (1, 2, 3):
                    comm.send(np.full(2, d, np.float32), d, 9)
                return None
            return float(comm.recv(0, 9)[0])

        res = run_spmd(4, prog, runner="coop")
        assert res.results[1:] == [1.0, 2.0, 3.0]
