"""Outside-in layer tracer for the benchmark's traced pass.

The traced pass wraps the functions through which one layer of ``repro``
calls into the next, from the benchmark's own files: no file under
``src/`` changes and the wrappers come off again when the pass ends.
Each wrapper records, per span label:

* ``calls`` — entries into the span from a *different* span (a recursive
  or same-label nested call is not a new entry into the layer);
* ``self_cpu`` — thread CPU time (``time.thread_time``) spent in the span
  minus the thread CPU time of its child spans.  Thread CPU time, not
  wall time: under the cooperative engine a rank parked at a rendezvous
  holds its span open while the other ranks run, so its wall time would
  charge it for their work;
* ``cpu`` / ``wall`` — inclusive thread CPU and wall time.  For the
  blocking spans (rendezvous, blocking receive) ``wall - cpu`` is the
  time the rank waited;
* ``counts`` — work counted at the boundary (messages, words, ...).

Every rank runs on its own OS thread, so each thread keeps its own span
stack and statistics; :meth:`Tracer.stats` merges them after the pass.

Module functions that other modules import by name (``from .topk import
batched_threshold_select``) are not seen by patching the defining module
alone, so :meth:`Patcher.function` rebinds every module-level name in
``repro`` and in the benchmark that refers to the same function object.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: longest-prefix map from a Python module to the layer it belongs to
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.comm.engine", "engine"),
    ("repro.comm.network", "network"),
    ("repro.comm.communicator", "p2p"),
    ("repro.comm.fused", "fused"),
    ("repro.comm.collectives", "collectives"),
    ("repro.comm.launcher", "launcher"),
    ("repro.comm.faults", "faults"),
    ("repro.comm", "comm"),
    ("repro.allreduce", "allreduce"),
    ("repro.sparse", "sparse"),
    ("repro.train.rankbatch", "rankbatch"),
    ("repro.train", "trainer"),
    ("repro.nn", "nn"),
    ("repro.optim", "optim"),
    ("repro.data", "data"),
    ("repro.serve.batcher", "batcher"),
    ("repro.serve.model", "servemodel"),
    ("repro.serve", "serveloop"),
    ("perfbench", "bench"),
)

#: every layer the rollup reports, in table order
LAYERS: Tuple[str, ...] = (
    "launcher", "engine", "p2p", "network", "fused", "collectives", "allreduce",
    "sparse", "rankbatch", "nn", "optim", "trainer", "data", "batcher",
    "servemodel", "serveloop", "bench")

#: modules whose globals :meth:`Patcher.function` rebinds
_REBIND_PREFIXES = ("repro.", "perfbench.")


def layer_of_module(module: str) -> str:
    best, layer = -1, "other"
    for prefix, name in MODULE_LAYERS:
        if ((module == prefix or module.startswith(prefix + "."))
                and len(prefix) > best):
            best, layer = len(prefix), name
    return layer


class SpanStat:
    """Accumulated statistics of one span label."""

    __slots__ = ("calls", "self_cpu", "cpu", "wall", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_cpu = 0.0
        self.cpu = 0.0
        self.wall = 0.0
        self.counts: Dict[str, float] = {}

    def merge(self, other: "SpanStat") -> None:
        self.calls += other.calls
        self.self_cpu += other.self_cpu
        self.cpu += other.cpu
        self.wall += other.wall
        for key, val in other.counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + val

    @property
    def waited(self) -> float:
        """Inclusive wall time not spent on this thread's CPU."""
        return max(0.0, self.wall - self.cpu)


#: ``count(args, kwargs, result)`` -> ``(name, increment)`` pairs
CountFn = Callable[[tuple, dict, Any], Iterable[Tuple[str, float]]]


class Tracer:
    """Per-thread span stacks and statistics.

    The clocks are parameters so the tests can drive self-time
    subtraction with hand-made readings.
    """

    def __init__(self, cpu_clock: Callable[[], float] = time.thread_time,
                 wall_clock: Callable[[], float] = time.perf_counter):
        self._cpu = cpu_clock
        self._wall = wall_clock
        self._local = threading.local()
        self._threads: List[Dict[str, SpanStat]] = []
        self._register = threading.Lock()
        #: span label -> layer
        self.layer_of: Dict[str, str] = {}

    def _state(self) -> Tuple[list, Dict[str, SpanStat]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._register:
                self._threads.append(state[1])
        return state

    def traced(self, label: str, fn: Callable, layer: str,
               count: Optional[CountFn] = None) -> Callable:
        """``fn`` wrapped in a span named ``label``."""
        self.layer_of.setdefault(label, layer)
        cpu, wall, state = self._cpu, self._wall, self._state

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frames, stats = state()
            parent = frames[-1] if frames else None
            frame = [label, 0.0]        # [label, child CPU seconds]
            frames.append(frame)
            w0 = wall()
            c0 = cpu()
            counted: Iterable[Tuple[str, float]] = ()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counted = count(args, kwargs, result)
                return result
            finally:
                c1 = cpu()
                w1 = wall()
                frames.pop()
                dc = c1 - c0
                if parent is not None:
                    parent[1] += dc
                st = stats.get(label)
                if st is None:
                    st = stats[label] = SpanStat()
                if parent is None or parent[0] != label:
                    st.calls += 1
                st.self_cpu += dc - frame[1]
                st.cpu += dc
                st.wall += w1 - w0
                for key, val in counted:
                    st.counts[key] = st.counts.get(key, 0.0) + val

        return span

    def stats(self) -> Dict[str, SpanStat]:
        """Statistics merged over every thread that entered a span."""
        out: Dict[str, SpanStat] = {}
        with self._register:
            per_thread = list(self._threads)
        for stats in per_thread:
            for label, st in stats.items():
                out.setdefault(label, SpanStat()).merge(st)
        return out

    def layer_self(self, stats: Optional[Dict[str, SpanStat]] = None
                   ) -> Dict[str, float]:
        """Self CPU seconds summed per layer."""
        stats = self.stats() if stats is None else stats
        out: Dict[str, float] = {}
        for label, st in stats.items():
            layer = self.layer_of.get(label, "other")
            out[layer] = out.get(layer, 0.0) + st.self_cpu
        return out


_MISSING = object()


class Patcher:
    """Replaces attributes and restores every original on :meth:`close`."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        old = vars(owner).get(name, _MISSING)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, label: str,
               count: Optional[CountFn] = None) -> None:
        """Wrap the function ``cls.name`` defined on ``cls`` itself."""
        fn = vars(cls)[name]
        if not callable(fn):
            raise TypeError(f"{cls.__name__}.{name} is not a plain function")
        self.set(cls, name, self.tracer.traced(
            label, fn, layer_of_module(cls.__module__), count))

    def function(self, module: Any, name: str, label: str,
                 count: Optional[CountFn] = None) -> None:
        """Wrap a module function everywhere a module binds it by name."""
        orig = getattr(module, name)
        wrapped = self.tracer.traced(label, orig, layer_of_module(
            orig.__module__), count)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", None)
            if not (isinstance(modname, str)
                    and modname.startswith(_REBIND_PREFIXES)):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, attr, wrapped)

    def close(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
