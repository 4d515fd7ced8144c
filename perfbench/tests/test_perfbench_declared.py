"""BENCHMARK.json agrees with the code that produces its metrics, and the
command refuses to run without the sources."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import run, spans

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_gated_metrics_are_reported_with_the_same_unit_and_direction():
    table = {name: (unit, better) for name, unit, better in run.END_TO_END}
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert table[m["name"]] == (m["unit"], m["better"])
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in DECLARED["end_to_end"])


def test_per_layer_metrics_match_the_table():
    declared = [(m["name"], m["unit"]) for m in DECLARED["per_layer"]]
    assert declared == list(spans.PER_LAYER)
    assert len(declared) <= 128


def test_names_are_unique_and_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_workloads_are_the_benchmarks():
    from perfbench.workloads import WORKLOADS
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for w in DECLARED["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-oktopk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
