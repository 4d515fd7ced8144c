"""Fixture tests for the ``repro-lint`` static-analysis subsystem.

Every rule gets positive fixtures (the rule fires) and negative fixtures
(the sanctioned idiom passes); plus suppression syntax, the RL000
meta-rule and the JSON report schema.  Fixtures are linted via
:func:`repro.analysis.lint_source` with fake repo-relative paths, so no
temp files are needed for the rule tests.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.core import META_CODE, LintReport, lint_paths

pytestmark = pytest.mark.analysis


def codes(src: str, path: str = "src/repro/sim.py") -> list:
    findings, _ = lint_source(textwrap.dedent(src), path)
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# RL001 — nondeterminism sources
# ---------------------------------------------------------------------------
class TestRL001:
    def test_wall_clock_calls_fire(self):
        src = """
        import time
        def f():
            a = time.time()
            b = time.perf_counter()
            time.sleep(0.1)
        """
        assert codes(src) == ["RL001"] * 3

    def test_from_import_alias_fires(self):
        src = """
        from time import perf_counter as pc
        def f():
            return pc()
        """
        assert codes(src) == ["RL001"]

    def test_datetime_now_fires(self):
        src = """
        import datetime
        def f():
            return datetime.datetime.now()
        """
        assert codes(src) == ["RL001"]

    def test_global_numpy_rng_fires(self):
        src = """
        import numpy as np
        def f():
            np.random.seed(0)
            return np.random.rand(4)
        """
        assert codes(src) == ["RL001"] * 2

    def test_seeded_generator_instance_passes(self):
        src = """
        import numpy as np
        def f(seed):
            rng = np.random.default_rng(seed)
            return rng.standard_normal(4)
        """
        assert codes(src) == []

    def test_global_stdlib_random_fires(self):
        src = """
        import random
        def f():
            return random.randrange(10)
        """
        assert codes(src) == ["RL001"]

    def test_seeded_random_instance_passes(self):
        src = """
        import random
        def f(seed):
            return random.Random(seed).randrange(10)
        """
        assert codes(src) == []

    def test_os_urandom_fires(self):
        src = """
        import os
        def f():
            return os.urandom(8)
        """
        assert codes(src) == ["RL001"]

    def test_id_ordering_key_fires(self):
        src = """
        def f(xs):
            xs.sort(key=id)
            return sorted(xs, key=lambda v: id(v))
        """
        assert codes(src) == ["RL001"] * 2

    def test_id_magnitude_compare_fires(self):
        src = """
        def f(a, b):
            return id(a) < id(b)
        """
        assert codes(src) == ["RL001"]

    def test_id_lookup_passes(self):
        src = """
        def f(registry, arr):
            return registry[id(arr)]
        """
        assert codes(src) == []

    def test_set_iteration_fires(self):
        src = """
        def f(items):
            total = 0
            for x in {i[0] for i in items}:
                total += x
            for y in set(items):
                total += y
            return total
        """
        assert codes(src) == ["RL001"] * 2

    def test_sorted_set_iteration_passes(self):
        src = """
        def f(items):
            return [x for x in sorted(set(items))]
        """
        assert codes(src) == []


# ---------------------------------------------------------------------------
# RL002 — loaned-buffer mutation (allreduce/ schemes only)
# ---------------------------------------------------------------------------
AR = "src/repro/allreduce/scheme.py"


class TestRL002:
    def test_augassign_on_recv_fires(self):
        src = """
        def f(comm, x):
            got = comm.recv(0)
            got += x
        """
        assert codes(src, AR) == ["RL002"]

    def test_slice_store_fires(self):
        src = """
        def f(comm, x):
            got = comm.recv(0)
            got[0:2] = x
        """
        assert codes(src, AR) == ["RL002"]

    def test_numpy_out_kwarg_fires(self):
        src = """
        import numpy as np
        def f(comm, a, b):
            got = comm.sendrecv(a, 1, 1)
            np.add(a, b, out=got)
        """
        assert codes(src, AR) == ["RL002"]

    def test_waitall_loop_var_mutation_fires(self):
        src = """
        def f(comm, reqs):
            for m in comm.waitall(reqs):
                m.sort()
        """
        assert codes(src, AR) == ["RL002"]

    def test_indexing_taints_fires(self):
        src = """
        def f(comm, reqs):
            msgs = comm.waitall(reqs)
            first = msgs[0]
            first.fill(0)
        """
        assert codes(src, AR) == ["RL002"]

    def test_owned_copy_passes(self):
        src = """
        def f(comm, x):
            got = comm.recv(0)
            own = got.copy()
            own += x
            own[0:2] = x
            return own
        """
        assert codes(src, AR) == []

    def test_rebinding_clears_taint(self):
        src = """
        import numpy as np
        def f(comm, n):
            got = comm.recv(0)
            got = np.zeros(n)
            got += 1
            return got
        """
        assert codes(src, AR) == []

    def test_reading_tainted_passes(self):
        src = """
        def f(comm, acc):
            got = comm.recv(0)
            acc += got
            return acc.sum() + got.sum()
        """
        assert codes(src, AR) == []

    def test_outside_allreduce_not_checked(self):
        src = """
        def f(comm, x):
            got = comm.recv(0)
            got += x
        """
        assert codes(src, "src/repro/serve/engine.py") == []


# ---------------------------------------------------------------------------
# RL003 — fault-guard dominance (comm/network.py, comm/communicator.py,
# serve/loop.py)
# ---------------------------------------------------------------------------
NET = "src/repro/comm/network.py"


class TestRL003:
    def test_unguarded_deref_fires(self):
        src = """
        class Network:
            def f(self, rank):
                return self.faults.crash_time[rank]
        """
        assert codes(src, NET) == ["RL003"]

    def test_direct_guard_passes(self):
        src = """
        class Network:
            def f(self, rank):
                if self.faults is not None:
                    return self.faults.crash_time[rank]
                return 0.0
        """
        assert codes(src, NET) == []

    def test_alias_guard_passes(self):
        src = """
        def f(net, rank):
            f = net.faults
            if f is not None:
                return f.crash_time[rank]
            return 0.0
        """
        assert codes(src, NET) == []

    def test_early_return_guard_passes(self):
        src = """
        def f(net, it):
            f = net.faults
            if f is None or it is None:
                return
            f.straggle(it)
        """
        assert codes(src, NET) == []

    def test_boolop_shortcircuit_passes(self):
        src = """
        class Network:
            def f(self, dst):
                if self.faults is not None and self.faults.link_faulty[dst]:
                    return 1.0
                return 0.0
        """
        assert codes(src, NET) == []

    def test_ifexp_guard_passes(self):
        src = """
        class Network:
            def f(self):
                return self.faults.detect_timeout \\
                    if self.faults is not None else 0.0
        """
        assert codes(src, NET) == []

    def test_guard_does_not_leak_across_functions(self):
        src = """
        class Network:
            def ok(self):
                if self.faults is not None:
                    return self.faults.detect_timeout
                return 0.0
            def bad(self):
                return self.faults.detect_timeout
        """
        assert codes(src, NET) == ["RL003"]

    def test_outside_hot_paths_not_checked(self):
        src = """
        def f(net, rank):
            return net.faults.crash_time[rank]
        """
        assert codes(src, "src/repro/comm/faults.py") == []

    def test_serve_loop_unguarded_deref_fires(self):
        # the serving loop is a hot path too: its fault-free dispatch
        # must stay a single `faults is not None` test
        src = """
        def _rank_serve(comm, cfg, workload):
            faults = comm.net.faults
            timeout = faults.detect_timeout
            return timeout
        """
        assert codes(src, "src/repro/serve/loop.py") == ["RL003"]

    def test_serve_loop_assert_guard_passes(self):
        src = """
        def _rank_serve_faulted(comm, cfg, workload, faults):
            assert faults is not None
            timeout = faults.detect_timeout
            return timeout
        """
        assert codes(src, "src/repro/serve/loop.py") == []

    def test_serve_loop_dispatch_guard_passes(self):
        src = """
        def _rank_serve(comm, cfg, workload):
            faults = comm.net.faults
            if faults is not None:
                return faults.detect_timeout
            return 0.0
        """
        assert codes(src, "src/repro/serve/loop.py") == []

    def test_other_serve_files_not_checked(self):
        src = """
        def f(comm):
            return comm.net.faults.detect_timeout
        """
        assert codes(src, "src/repro/serve/batcher.py") == []


# ---------------------------------------------------------------------------
# Suppressions and the RL000 meta-rule
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_line_suppression_with_reason(self):
        src = """
        import time
        def f():
            return time.time()  # repro-lint: ignore[RL001] -- perf harness
        """
        findings, suppressed = lint_source(textwrap.dedent(src), "src/x.py")
        assert findings == []
        assert suppressed == 1

    def test_standalone_pragma_covers_next_code_line(self):
        src = """
        import time
        def f():
            # repro-lint: ignore[RL001] -- wall-clock needed here,
            # explained over two comment lines
            return time.time()
        """
        findings, suppressed = lint_source(textwrap.dedent(src), "src/x.py")
        assert findings == []
        assert suppressed == 1

    def test_file_suppression(self):
        src = """
        # repro-lint: ignore-file[RL001] -- benchmark measures wall time
        import time
        def f():
            return time.time() + time.perf_counter()
        """
        findings, suppressed = lint_source(textwrap.dedent(src), "src/x.py")
        assert findings == []
        assert suppressed == 2

    def test_suppression_is_code_specific(self):
        src = """
        import time
        def f():
            return time.time()  # repro-lint: ignore[RL002] -- wrong code
        """
        assert codes(src, "src/x.py") == ["RL001"]

    def test_reasonless_pragma_reports_rl000(self):
        # Assemble the reasonless pragma at runtime so this literal does
        # not appear in the test file itself (which is also linted).
        pragma = "# repro-lint: ignore" + "[RL001]"
        src = f"""
        import time
        def f():
            return time.time()  {pragma}
        """
        got = codes(src, "src/x.py")
        # the pragma is invalid, so RL001 still fires AND RL000 reports it
        assert sorted(got) == [META_CODE, "RL001"]


# ---------------------------------------------------------------------------
# Report plumbing: JSON schema, exit codes, file walking
# ---------------------------------------------------------------------------
class TestReport:
    def test_json_schema(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text(
            "import time\n\n\ndef f():\n    return time.time()\n")
        report = lint_paths([str(tmp_path)])
        obj = report.to_json_obj()
        assert json.loads(json.dumps(obj)) == obj  # JSON-serializable
        assert obj["version"] == 1
        assert obj["files_checked"] == 2
        assert obj["counts"] == {"RL001": 1}
        assert obj["errors"] == []
        (finding,) = obj["findings"]
        assert set(finding) == {"path", "line", "col", "code", "message"}
        assert finding["code"] == "RL001"
        assert finding["line"] == 5

    def test_exit_codes(self, tmp_path):
        assert LintReport([], 1, 0, []).exit_code == 0
        (tmp_path / "bad.py").write_text(
            "import time\nt = time.time()\n")
        assert lint_paths([str(tmp_path)]).exit_code == 1
        (tmp_path / "bad.py").write_text("def broken(:\n")
        report = lint_paths([str(tmp_path)])
        assert report.exit_code == 2
        assert report.errors

    def test_pycache_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 1
        assert report.findings == []

    def test_cli_json_and_select(self, tmp_path, capsys):
        from repro.analysis.cli import main
        (tmp_path / "bad.py").write_text(
            "import time\nt = time.time()\n")
        rc = main([str(tmp_path), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["counts"] == {"RL001": 1}
        # selecting a rule that cannot fire here exits clean
        assert main([str(tmp_path), "--select", "RL003"]) == 0
        assert main([str(tmp_path), "--select", "RL999"]) == 2

    def test_repo_is_clean(self):
        # The shipped tree must lint clean (the CI gate); every
        # suppression in it carries a reason, else RL000 would fire.
        report = lint_paths(["src", "benchmarks", "tests"])
        assert report.errors == []
        assert [f.format() for f in report.findings] == []
