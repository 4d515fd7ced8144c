"""The benchmark harness itself: proxies, projections, formatting."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.allreduce import PAPER_ORDER
from repro.bench import (
    PAPER_MODEL_SIZES,
    bert_proxy,
    format_table,
    lstm_proxy,
    paper_scale_breakdown,
    train_scheme,
    vgg_proxy,
)
from repro.bench.harness import proxy_network


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 0.001]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_float_formatting(self):
        text = format_table(["v"], [[1e-9], [12345.678], [0.5], [0.0]])
        assert "1.000e-09" in text
        assert "1.235e+04" in text
        assert "0.5" in text


class TestProxies:
    @pytest.mark.parametrize("builder", [vgg_proxy, lstm_proxy, bert_proxy])
    def test_build_and_short_train(self, builder):
        proxy = builder()
        rec = train_scheme(proxy, "oktopk", 2, 2, density=0.05,
                           network=proxy_network())
        assert len(rec.records) == 2
        assert rec.records[0].compute_time > 0
        assert np.isfinite(rec.records[-1].loss)

    def test_proxies_have_eval(self):
        for builder, key in ((vgg_proxy, "acc"), (lstm_proxy, "wer"),
                             (bert_proxy, "loss")):
            proxy = builder()
            rec = train_scheme(proxy, "dense", 2, 2, eval_every=2,
                               network=proxy_network())
            assert key in rec.final_eval()


class TestPaperScaleProjection:
    def test_breakdown_for_all_schemes_and_models(self):
        for model in PAPER_MODEL_SIZES:
            for scheme in PAPER_ORDER:
                b = paper_scale_breakdown(model, scheme, 32)
                assert b["total"] > 0
                assert b["total"] == pytest.approx(
                    b["sparsification"] + b["communication"]
                    + b["computation+io"])

    def test_oktopk_wins_at_scale_for_all_models(self):
        for model in PAPER_MODEL_SIZES:
            totals = {s: paper_scale_breakdown(model, s, 256)["total"]
                      for s in PAPER_ORDER}
            assert totals["oktopk"] == min(totals.values()), (model, totals)


REPO_ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


class TestBenchPerfJson:
    """BENCH_PERF.json is strict JSON: undefined metrics are ``null``."""

    def test_committed_file_has_no_bare_nan(self):
        text = (REPO_ROOT / "BENCH_PERF.json").read_text()
        json.loads(text, parse_constant=_reject_constant)

    def test_writer_turns_undefined_metrics_into_null(self):
        spec = importlib.util.spec_from_file_location(
            "bench_perf_wallclock",
            REPO_ROOT / "benchmarks" / "bench_perf_wallclock.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        out = mod._undefined_as_null(
            {"itl_p50": float("nan"), "rows": [1.5, float("inf")],
             "n": 3, "name": "x"})
        assert out == {"itl_p50": None, "rows": [1.5, None], "n": 3,
                       "name": "x"}
        json.loads(json.dumps(out, allow_nan=False),
                   parse_constant=_reject_constant)
