"""Runtime sanitizer mode (``REPRO_SANITIZE=1`` / ``run_spmd(sanitize=True)``).

Covers the three detectors (loan-window writes, mailbox leaks, the
schedule-perturbation race detector), the transparency contract (the
sanitizer observes, it never changes results), and the env/argument
switch resolution.  All simulated time — everything here runs in
milliseconds of wall clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import SANITIZE_ENV, collectives, run_spmd, sanitize_enabled
from repro.errors import (
    LoanViolationError,
    MailboxLeakError,
    SanitizerError,
    ScheduleRaceError,
)

pytestmark = pytest.mark.analysis

P = 4


# ---------------------------------------------------------------------------
# rank programs
# ---------------------------------------------------------------------------
def _allreduce_prog(comm):
    rng = np.random.default_rng(77 + comm.rank)
    x = rng.standard_normal(256).astype(np.float32)
    return collectives.allreduce(comm, x).copy()


def _loan_violator(comm):
    buf = np.full(64, float(comm.rank), dtype=np.float32)
    if comm.rank == 0:
        req = comm.isend(buf, 1)
        buf.setflags(write=True)  # bypass the isend write-lock
        buf[0] = 999.0
        req.wait()
    elif comm.rank == 1:
        comm.recv(0)


def _leaky_prog(comm):
    # send() is eager: the message is posted to rank 1's mailbox, but
    # rank 1 never receives it.
    if comm.rank == 0:
        comm.send(np.arange(8, dtype=np.float32), 1, tag=7)


def _make_racy_prog():
    order: list = []

    def racy(comm):
        # Communicates through shared Python state: the returned value
        # depends on which rank the engine schedules first.
        order.append(comm.rank)
        comm.send(np.arange(4, dtype=np.float32), (comm.rank + 1) % comm.size)
        comm.recv((comm.rank - 1) % comm.size)
        return list(order)

    return racy


def _writer_recv_prog(comm):
    if comm.rank == 0:
        comm.send(np.arange(16, dtype=np.float32), 1)
        return None
    got = comm.recv(0)
    got[0] = -1.0  # received buffers are owned by the runtime
    return got[0]


# ---------------------------------------------------------------------------
# switch resolution
# ---------------------------------------------------------------------------
class TestSwitch:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert sanitize_enabled() is False

    @pytest.mark.parametrize("val", ["1", "true", "YES", "On"])
    def test_env_truthy(self, monkeypatch, val):
        monkeypatch.setenv(SANITIZE_ENV, val)
        assert sanitize_enabled() is True

    @pytest.mark.parametrize("val", ["0", "", "no", "off", "false"])
    def test_env_falsy(self, monkeypatch, val):
        monkeypatch.setenv(SANITIZE_ENV, val)
        assert sanitize_enabled() is False

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert sanitize_enabled(False) is False
        monkeypatch.delenv(SANITIZE_ENV)
        assert sanitize_enabled(True) is True

    def test_env_enables_run_spmd(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        with pytest.raises(LoanViolationError):
            run_spmd(2, _loan_violator)


# ---------------------------------------------------------------------------
# loan-window write detection
# ---------------------------------------------------------------------------
class TestLoanSanitizer:
    def test_setflags_bypass_flagged(self):
        with pytest.raises(LoanViolationError) as exc_info:
            run_spmd(2, _loan_violator, sanitize=True)
        err = exc_info.value
        assert isinstance(err, SanitizerError)
        assert err.violations
        assert "writable during its loan window" in err.violations[0]
        assert "0->1" in err.violations[0]

    def test_bypass_undetected_without_sanitizer(self):
        # The write-lock restore in release_loans hides the bypass when
        # the sanitizer is off — exactly why the sanitizer exists.
        run_spmd(2, _loan_violator)


# ---------------------------------------------------------------------------
# mailbox-leak audit
# ---------------------------------------------------------------------------
class TestMailboxAudit:
    def test_unreceived_send_flagged(self):
        with pytest.raises(MailboxLeakError) as exc_info:
            run_spmd(2, _leaky_prog, sanitize=True)
        (leak,) = exc_info.value.leaks
        assert (leak["src"], leak["dst"], leak["tag"]) == (0, 1, 7)

    def test_unreceived_send_tolerated_without_sanitizer(self):
        run_spmd(2, _leaky_prog)

    def test_clean_program_no_leak(self):
        run_spmd(P, _allreduce_prog, sanitize=True)


# ---------------------------------------------------------------------------
# schedule-perturbation race detector
# ---------------------------------------------------------------------------
class TestRaceDetector:
    @pytest.mark.parametrize("runner", ["coop"])
    def test_order_sensitive_program_flagged(self, runner):
        with pytest.raises(ScheduleRaceError) as exc_info:
            run_spmd(P, _make_racy_prog(), runner=runner, sanitize=True)
        assert exc_info.value.differences

    @pytest.mark.parametrize("runner", ["coop"])
    def test_order_sensitive_program_passes_without_sanitizer(self, runner):
        # Deterministic schedule means the race never shows up unperturbed.
        run_spmd(P, _make_racy_prog(), runner=runner)

    @pytest.mark.parametrize("runner", ["coop"])
    def test_allreduce_clean_under_perturbation(self, runner):
        res = run_spmd(P, _allreduce_prog, runner=runner, sanitize=True)
        ref = run_spmd(P, _allreduce_prog, runner=runner)
        for r in range(P):
            assert res[r].tobytes() == ref[r].tobytes()


# ---------------------------------------------------------------------------
# transparency: the sanitizer must not change outcomes
# ---------------------------------------------------------------------------
class TestTransparency:
    @pytest.mark.parametrize("runner", ["coop", "threads"])
    def test_results_and_makespan_identical(self, runner):
        base = run_spmd(P, _allreduce_prog, runner=runner)
        sane = run_spmd(P, _allreduce_prog, runner=runner, sanitize=True)
        assert sane.makespan == base.makespan
        for r in range(P):
            assert sane[r].dtype == base[r].dtype
            assert sane[r].tobytes() == base[r].tobytes()


# ---------------------------------------------------------------------------
# threads runner: received payloads become read-only under the sanitizer
# ---------------------------------------------------------------------------
class TestThreadsReadonly:
    def test_recv_buffer_write_raises(self):
        # Legacy threads runner hands each receiver a private writable
        # copy, so writes are tolerated (though still bad style) ...
        run_spmd(2, _writer_recv_prog, runner="threads")
        # ... but the sanitizer freezes the copy to enforce the same
        # received-arrays-are-read-only contract the coop runner has.
        with pytest.raises(Exception) as exc_info:
            run_spmd(2, _writer_recv_prog, runner="threads", sanitize=True)
        assert "read-only" in str(exc_info.value)
