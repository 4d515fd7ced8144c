"""Trainer internals: scheme construction, overlap credit, xi scheduling."""

import pytest

from repro.allreduce import DenseAllreduce, OkTopkAllreduce
from repro.comm import NetworkModel, run_spmd
from repro.data import ShardedLoader, make_an4_like
from repro.errors import ConfigError
from repro.nn.models import make_lstm_speech_model
from repro.train import Trainer, TrainerConfig, build_allreduce


class TestBuildAllreduce:
    def test_dense_ignores_density(self):
        cfg = TrainerConfig(iterations=1, scheme="dense", density=0.5)
        assert isinstance(build_allreduce(cfg), DenseAllreduce)

    def test_sparse_gets_density(self):
        cfg = TrainerConfig(iterations=1, scheme="oktopk", density=0.1)
        algo = build_allreduce(cfg)
        assert isinstance(algo, OkTopkAllreduce)
        assert algo.resolve_k(1000) == 100

    def test_explicit_k_wins_over_density(self):
        cfg = TrainerConfig(iterations=1, scheme="oktopk", density=0.1,
                            k=7)
        assert build_allreduce(cfg).resolve_k(1000) == 7

    def test_scheme_kwargs_forwarded(self):
        cfg = TrainerConfig(iterations=1, scheme="oktopk", density=0.1,
                            scheme_kwargs={"tau": 5, "rotation": False})
        algo = build_allreduce(cfg)
        assert algo.tau == 5 and not algo.rotation


NAN, INF = float("nan"), float("inf")


class TestTrainerConfigValidation:
    """Numeric fields are rejected at construction, not at the first
    reduce of one rank (density) or never (a NaN overlap fraction hid the
    backward compute behind ``max(0.0, nan)``)."""

    @staticmethod
    def _make(**kwargs):
        return TrainerConfig(iterations=1, scheme="oktopk", **kwargs)

    @pytest.mark.parametrize("value", [NAN, INF, -1.0, 5.0])
    def test_overlap_backward_fraction(self, value):
        with pytest.raises(ConfigError, match="overlap_backward_fraction"):
            self._make(density=0.1, overlap_backward_fraction=value)

    @pytest.mark.parametrize("value", [NAN, INF, 0.0, -0.5, 1.5])
    def test_density(self, value):
        with pytest.raises(ConfigError, match="density"):
            self._make(density=value)

    @pytest.mark.parametrize("value", [0, -3, 2.5, True])
    def test_k(self, value):
        with pytest.raises(ConfigError, match="k must"):
            self._make(density=None, k=value)

    @pytest.mark.parametrize("value", [NAN, INF, 0.0, -0.1])
    def test_lr(self, value):
        with pytest.raises(ConfigError, match="lr"):
            self._make(density=0.1, lr=value)

    @pytest.mark.parametrize("value", [NAN, INF, -0.9])
    def test_momentum(self, value):
        with pytest.raises(ConfigError, match="momentum"):
            self._make(density=0.1, momentum=value)

    @pytest.mark.parametrize("value", [NAN, INF, -1e-4])
    def test_weight_decay(self, value):
        with pytest.raises(ConfigError, match="weight_decay"):
            self._make(density=0.1, weight_decay=value)

    @pytest.mark.parametrize("value", [NAN, -0.1, 1.0, 1.5])
    def test_adam_beta1(self, value):
        with pytest.raises(ConfigError, match="adam_beta1"):
            self._make(density=0.1, adam_beta1=value)

    @pytest.mark.parametrize("value", [NAN, -0.1, 1.0, 1.5])
    def test_adam_beta2(self, value):
        with pytest.raises(ConfigError, match="adam_beta2"):
            self._make(density=0.1, adam_beta2=value)

    @pytest.mark.parametrize("value", [-1, 1.5])
    def test_eval_every(self, value):
        with pytest.raises(ConfigError, match="eval_every"):
            self._make(density=0.1, eval_every=value)

    @pytest.mark.parametrize("value", [-1, 2.5])
    def test_xi_every(self, value):
        with pytest.raises(ConfigError, match="xi_every"):
            self._make(density=0.1, xi_every=value)

    def test_boundary_values_accepted(self):
        self._make(density=1.0, overlap_backward_fraction=0.0, lr=1e-9,
                   momentum=0.0, weight_decay=0.0, adam_beta1=0.0,
                   adam_beta2=0.0, eval_every=0, xi_every=0)
        self._make(density=None, k=1, overlap_backward_fraction=1.0,
                   lr=lambda t: 0.1)


def _tiny_setup(comm, cfg):
    train, _ = make_an4_like(16, 4, features=6, seq_len=4, n_phones=3,
                             seed=0)
    model = make_lstm_speech_model(features=6, hidden=8, layers=1,
                                   classes=3, seq_len=4, seed=1)
    loader = ShardedLoader(train, 4, comm.rank, comm.size, seed=2)
    return Trainer(comm, model, loader, cfg)


class TestTrainerMechanics:
    def test_iteration_count(self):
        def prog(comm):
            cfg = TrainerConfig(iterations=5, scheme="dense", lr=0.01)
            return _tiny_setup(comm, cfg).run()

        rec = run_spmd(2, prog)[0]
        assert len(rec.records) == 5
        assert [r.t for r in rec.records] == [1, 2, 3, 4, 5]

    def test_overlap_credit_only_for_overlappable(self):
        """DenseOvlp iteration time discounts overlapped communication;
        Dense does not."""
        def prog(comm, scheme):
            cfg = TrainerConfig(iterations=2, scheme=scheme, lr=0.01,
                                overlap_backward_fraction=1.0)
            return _tiny_setup(comm, cfg).run()

        net = NetworkModel(alpha=1e-6, beta=1e-7, flop_time=1e-8)
        dense = run_spmd(2, prog, "dense", model=net)[0]
        ovlp = run_spmd(2, prog, "dense_ovlp", model=net)[0]
        r_d, r_o = dense.records[1], ovlp.records[1]
        # same raw comm volume/time magnitude, but DenseOvlp's visible
        # iteration time is smaller than compute+comm
        assert r_o.iteration_time < r_o.compute_time + r_o.comm_time
        assert r_d.iteration_time == pytest.approx(
            r_d.compute_time + r_d.sparsify_time + r_d.comm_time)

    def test_xi_scheduled_iterations_only(self):
        def prog(comm):
            cfg = TrainerConfig(iterations=6, scheme="oktopk", density=0.1,
                                lr=0.01, xi_every=3)
            return _tiny_setup(comm, cfg).run()

        rec = run_spmd(2, prog)[0]
        have_xi = [r.t for r in rec.records if r.xi is not None]
        assert have_xi == [3, 6]

    def test_adam_mode_uses_wrapper(self):
        def prog(comm):
            cfg = TrainerConfig(iterations=2, scheme="oktopk", density=0.1,
                                mode="adam", lr=1e-3)
            trainer = _tiny_setup(comm, cfg)
            from repro.optim import SparseOptimWrapper
            assert isinstance(trainer.driver, SparseOptimWrapper)
            return trainer.run()

        rec = run_spmd(2, prog)[0]
        assert len(rec.records) == 2

    def test_selected_recorded_for_sparse(self):
        def prog(comm):
            cfg = TrainerConfig(iterations=2, scheme="oktopk",
                                density=0.1, lr=0.01)
            return _tiny_setup(comm, cfg).run()

        rec = run_spmd(2, prog)[0]
        assert rec.records[0].selected is not None
        assert rec.records[0].selected > 0
