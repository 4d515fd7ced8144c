"""Cross-runner equivalence: the cooperative and threaded runners must be
observationally identical.

Simulated time is schedule-independent by design (egress booked in sender
program order, ingress in receiver program order), so for any program both
runners must produce bit-identical results, traffic counters and simulated
makespans.  These tests drive the three main scheme families over
randomized inputs under both runners and compare everything exactly.
"""

import numpy as np
import pytest

from repro.allreduce import make_allreduce
from repro.comm import collectives as coll, run_spmd
from repro.sparse import COOVector

RUNNERS = ("coop", "threads")


def _run_both(p, prog, *args):
    return {r: run_spmd(p, prog, *args, runner=r) for r in RUNNERS}


def _assert_network_equal(results):
    a, b = (results[r] for r in RUNNERS)
    assert a.makespan == b.makespan  # exact, not approx
    sa, sb = a.stats, b.stats
    for field in ("words_sent", "words_recv", "msgs_sent", "msgs_recv"):
        np.testing.assert_array_equal(getattr(sa, field), getattr(sb, field))


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme", ["dense", "gtopk", "oktopk"])
    @pytest.mark.parametrize("p", [4, 8])
    def test_identical_updates_stats_makespan(self, scheme, p):
        n, iters = 1536, 3

        def prog(comm):
            algo = make_allreduce(
                scheme, **({} if scheme == "dense" else {"density": 0.05}))
            rng = np.random.default_rng(123 + comm.rank)
            outs = []
            for t in range(1, iters + 1):
                acc = rng.normal(size=n).astype(np.float32)
                res = algo.reduce(comm, acc, t)
                upd = res.update
                outs.append(upd.to_dense() if isinstance(upd, COOVector)
                            else np.asarray(upd))
            return np.concatenate(outs)

        results = _run_both(p, prog)
        _assert_network_equal(results)
        for ra, rb in zip(results["coop"].results, results["threads"].results):
            np.testing.assert_array_equal(ra, rb)  # bit-identical

    @pytest.mark.parametrize("p", [3, 8])
    def test_collectives_equivalence(self, p):
        def prog(comm):
            rng = np.random.default_rng(7 + comm.rank)
            x = rng.normal(size=777).astype(np.float32)
            out = [coll.allreduce(comm, x, algo=a)
                   for a in ("ring", "recursive_doubling", "rabenseifner")]
            block = rng.normal(size=5 + comm.rank).astype(np.float32)
            out.append(np.concatenate(coll.allgatherv(comm, block)))
            return np.concatenate(out)

        results = _run_both(p, prog)
        _assert_network_equal(results)
        for ra, rb in zip(results["coop"].results, results["threads"].results):
            np.testing.assert_array_equal(ra, rb)

    def test_point_to_point_clocks_identical(self):
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            clocks = []
            for it in range(6):
                data = rng.normal(size=rng.integers(1, 257)).astype(np.float32)
                dst = (comm.rank + 1 + it) % comm.size
                src = (comm.rank - 1 - it) % comm.size
                comm.sendrecv(data, dst, src, it)
                clocks.append(comm.clock)
            return clocks

        results = _run_both(6, prog)
        _assert_network_equal(results)
        assert results["coop"].results == results["threads"].results


class TestTrafficEquivalenceRandomized:
    def test_random_waitall_pattern(self):
        """Randomized isend/irecv/waitall mesh, exact equality."""
        def prog(comm):
            rng = np.random.default_rng(31 + comm.rank)
            total = np.zeros(64, dtype=np.float64)
            for it in range(5):
                reqs = []
                for s in range(1, comm.size):
                    peer_out = (comm.rank + s) % comm.size
                    peer_in = (comm.rank - s) % comm.size
                    payload = rng.normal(size=64).astype(np.float32)
                    reqs.append(comm.isend(payload, peer_out, tag=it))
                    reqs.append(comm.irecv(peer_in, tag=it))
                for got in comm.waitall(reqs):
                    if got is not None:
                        total += got
            return total

        results = _run_both(5, prog)
        _assert_network_equal(results)
        for ra, rb in zip(results["coop"].results, results["threads"].results):
            np.testing.assert_array_equal(ra, rb)

    def test_sparse_waitall_storm_clocks(self):
        """irecv/isend mesh carrying COO payloads; per-iteration clocks,
        sums and traffic counters must match exactly."""
        def prog(comm, iters):
            p, r = comm.size, comm.rank
            vec = COOVector.from_arrays(
                512, np.arange(4, dtype=np.int32),
                np.full(4, float(r + 1), dtype=np.float32))
            total = 0.0
            clocks = []
            for it in range(iters):
                reqs = []
                for s in range(1, p):
                    reqs.append(comm.irecv((r - s) % p, it))
                    reqs.append(comm.isend(vec, (r + s) % p, it))
                got = comm.waitall(reqs)
                total += sum(float(g.values.sum())
                             for g in got if g is not None)
                clocks.append(comm.clock)
            return (total, clocks)

        results = _run_both(5, prog, 4)
        _assert_network_equal(results)
        assert results["coop"].results == results["threads"].results
        assert results["coop"].results[0][0] == 4 * 4 * (2 + 3 + 4 + 5)
