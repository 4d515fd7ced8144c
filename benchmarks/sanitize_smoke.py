#!/usr/bin/env python
"""Sanitizer + race-detector smoke (run_all.py --quick).

Three checks on the runtime sanitizer mode (``REPRO_SANITIZE=1`` /
``run_spmd(sanitize=True)``, see :mod:`repro.comm.launcher`):

* **transparency** — P=4 training (Ok-Topk) and tensor-parallel serving
  runs under the sanitizer are bit-identical to unsanitized runs (the
  sanitizer observes, it must not perturb).  The training runs long
  enough for Ok-Topk's world-level steady state, so the race detector
  and the loan sanitizer cover world dispatches, and the smoke fails if
  those dispatches silently stop happening;
* **schemes are race-free** — every shipped allreduce scheme passes the
  schedule-perturbation race detector: the section is replayed under a
  seeded ready-queue rotation and results/clocks/counters must not move;
* **detection** — the race detector flags a deliberately order-sensitive
  rank program, and the loan sanitizer flags a ``setflags(write=True)``
  bypass of the isend write-lock.

Everything is simulated time; the whole smoke takes a few seconds.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.allreduce import PAPER_ORDER, make_allreduce  # noqa: E402
from repro.allreduce import oktopk  # noqa: E402
from repro.bench import perf_proxy, train_scheme  # noqa: E402
from repro.comm import SANITIZE_ENV, run_spmd  # noqa: E402
from repro.errors import LoanViolationError, ScheduleRaceError  # noqa: E402
from repro.serve import ServeConfig, simulate_serving  # noqa: E402

P = 4
N = 1024
#: iteration 1 evaluates thresholds and boundaries; 2..4 are steady state
TRAIN_ITERATIONS = 4
SERVE_CFG = ServeConfig(p=P, rate=2000.0, n_requests=16, prompt_tokens=64,
                        output_tokens=6, max_batch_size=8, seed=0)


def _train_and_serve() -> tuple:
    rec = train_scheme(perf_proxy(), "oktopk", P, TRAIN_ITERATIONS,
                       density=0.02, seed=0)
    rep = simulate_serving(SERVE_CFG)
    return rec.records, rep.requests, rep.summary()


def _count_world_dispatches() -> list:
    """Record the iteration of every world-level Ok-Topk dispatch."""
    calls: list = []
    orig = oktopk._exec_world

    def counting(net, sig, payloads):
        calls.append(sig[1])
        return orig(net, sig, payloads)

    oktopk._exec_world = counting
    return calls


def _scheme_prog(comm, scheme: str):
    kwargs = {} if scheme.startswith("dense") else {"density": 0.05}
    algo = make_allreduce(scheme, **kwargs)
    rng = np.random.default_rng(1234 + comm.rank)
    outs = []
    for t in (1, 2):
        acc = rng.standard_normal(N).astype(np.float32)
        res = algo.reduce(comm, acc, t)
        outs.append(res.update_dense(N).copy())
    return outs


def _racy_prog_maker():
    order: list = []

    def racy(comm):
        # Communicates through shared Python state: the returned order
        # depends on which rank is scheduled first.
        order.append(comm.rank)
        comm.send(np.arange(4, dtype=np.float32),
                  (comm.rank + 1) % comm.size)
        comm.recv((comm.rank - 1) % comm.size)
        return list(order)

    return racy


def _loan_violator(comm):
    buf = np.full(64, float(comm.rank), dtype=np.float32)
    if comm.rank == 0:
        req = comm.isend(buf, 1)
        buf.setflags(write=True)  # bypass the loan write-lock
        buf[0] = 999.0
        req.wait()
    elif comm.rank == 1:
        comm.recv(0)


def main() -> int:
    # 1. sanitizer transparency on train + serve
    base = _train_and_serve()
    world = _count_world_dispatches()
    os.environ[SANITIZE_ENV] = "1"
    try:
        sane = _train_and_serve()
    finally:
        os.environ.pop(SANITIZE_ENV, None)
    if sane != base:
        print("FAIL: REPRO_SANITIZE=1 changed the train/serve outcome")
        return 1
    # the sanitized run and its perturbed-schedule replay
    steady = list(range(2, TRAIN_ITERATIONS + 1))
    if world != steady * 2:
        print(f"FAIL: world-level Ok-Topk dispatches {world}, expected "
              f"iterations {steady} in the run and in its replay")
        return 1
    print(f"transparency: P={P} train + serve bit-identical under "
          f"REPRO_SANITIZE=1 ({len(world)} world-level Ok-Topk "
          f"dispatches checked)")

    # 2. every shipped scheme passes the race detector
    for scheme in PAPER_ORDER:
        try:
            run_spmd(P, _scheme_prog, scheme, sanitize=True)
        except ScheduleRaceError as exc:
            print(f"FAIL: scheme {scheme!r} flagged by the race "
                  f"detector: {exc}")
            return 1
        print(f"race detector: {scheme} clean under perturbed schedule")

    # 3. the detectors actually detect
    try:
        run_spmd(P, _racy_prog_maker(), sanitize=True)
        print("FAIL: order-sensitive program not flagged")
        return 1
    except ScheduleRaceError:
        print("race detector: order-sensitive program flagged")
    try:
        run_spmd(2, _loan_violator, sanitize=True)
        print("FAIL: loan-window write not flagged")
        return 1
    except LoanViolationError:
        print("loan sanitizer: setflags bypass flagged")

    print("sanitize smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
