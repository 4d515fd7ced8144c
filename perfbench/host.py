"""CPU pinning and the host record printed with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional


def pin_to_one_cpu() -> Dict[str, Any]:
    """Pin the process to the highest-numbered CPU it may run on.

    Call before numpy or ``repro`` is imported: threads and child
    processes started afterwards inherit the mask.  The cooperative
    engine runs one rank at a time, so the simulator is logically
    single-threaded; unpinned, its rank threads hop between cores and the
    wall clock measures the scheduler.  ``comparable`` is False when the
    mask could not be set, and such a run must not be compared with
    pinned ones.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return {"pinned_cpu": None, "allowed_cpus": None,
                "comparable": False}
    cpu = allowed[-1]
    try:
        os.sched_setaffinity(0, {cpu})
        pinned = os.sched_getaffinity(0) == {cpu}
    except OSError:
        pinned = False
    return {"pinned_cpu": cpu if pinned else None, "allowed_cpus": allowed,
            "comparable": pinned}


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the repository at ``root``; None outside a git checkout
    (git is not allowed to search the directories above ``root``)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest(root: Path) -> str:
    """Digest of every Python source under ``src/``: identifies the code
    measured when the checkout carries no commit."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _version(module: str) -> Optional[str]:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def host_record(root: Path, pin: Dict[str, Any]) -> Dict[str, Any]:
    return {
        **pin,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": git_commit(root),
        "src_digest": src_digest(root),
    }
