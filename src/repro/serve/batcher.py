"""Dynamic batching admission for the serving loop.

The batcher implements the standard two-knob admission policy:

* **max_batch_size** — a batch fires as soon as that many requests are
  pending (and slots are free),
* **max_wait** — a partial batch fires once the *oldest* pending request
  has waited that long (the tail-latency guard).

Continuous batching: while the engine is already decoding, newly arrived
requests piggyback onto the running batch at the next step boundary
(up to the free slots) without waiting for either trigger.

Fault-tolerant serving adds two queue operations (both no-ops on the
clean path): :meth:`requeue` re-inserts a request whose generated tokens
died with a rank crash, releasing it at ``ready_at`` (its retry-backoff
release time) instead of its original arrival; :meth:`expire` reaps
queued requests whose completion deadline has already passed — timeout
detection on the simulated clock, evaluated at decision points.  Expiry
is indexed: a min-heap of queued deadlines (built on the first call, so
the plan-less loop never pays for it) answers "nothing can expire" in
O(1), and reaping costs O(log n) per reaped or already-admitted entry
instead of a walk over the whole pending stream.
:meth:`snapshot` / :meth:`restore` give the serving loop the queue
state of each retained step boundary, which it rolls back to when
survivors resume after a ``comm.shrink()``.

Determinism contract: every rank of the tensor-parallel group runs one
batcher instance over the *same* workload and feeds it the *same*
decision times (the serving loop synchronizes its decision clock as data
through an allgather), so all instances make bit-identical decisions —
admission never consults a rank-local clock.  Because the stream is open
loop, the next admission time is a closed-form function of the pending
arrivals (:meth:`next_decision`), which is what lets an idle server jump
the simulated clock forward deterministically instead of polling.
Requeued entries keep that closed form: the queue is ordered by
``(ready_at, rid)``, a pure function of (seed, config, plan).
"""

from __future__ import annotations

import bisect
import heapq
from typing import List, Optional, Tuple

from ..errors import ConfigError
from .workload import Request, Workload

#: queue entry: ``(ready_at, rid, request)`` — ``ready_at`` is the
#: arrival for fresh requests, the backoff release time for retries; the
#: unique ``rid`` tiebreak keeps ordering total without comparing
#: ``Request`` objects.
_Entry = Tuple[float, int, Request]

#: expiry-heap entry: ``(deadline, ready_at, rid)`` of a queued entry;
#: stale (lazily dropped) once that entry has left the queue
_Expiry = Tuple[float, float, int]


class DynamicBatcher:
    """Max-batch-size + max-wait-time admission over an open-loop stream."""

    def __init__(self, workload: Workload, max_batch_size: int,
                 max_wait: float, deadline: Optional[float] = None):
        if max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if not max_wait >= 0:
            raise ConfigError(f"max_wait must be >= 0, got {max_wait}")
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        #: completion SLO relative to arrival for requests that carry
        #: none of their own (see :meth:`Request.deadline_at`)
        self.deadline = deadline
        # Arrivals are non-decreasing and rids increasing, so the initial
        # queue is already in (ready_at, rid) order.
        self._queue: List[_Entry] = [
            (rq.arrival, rq.rid, rq) for rq in workload.requests]
        #: min-heap of queued deadlines; ``None`` until :meth:`expire`
        #: first needs it (and again after :meth:`restore`)
        self._expiry: Optional[List[_Expiry]] = None

    @property
    def pending(self) -> int:
        """Requests not yet admitted (arrived or future)."""
        return len(self._queue)

    def _arrived(self, now: float) -> int:
        n = 0
        for ready_at, _, _ in self._queue:
            if ready_at > now:
                break
            n += 1
        return n

    def admit(self, now: float, free_slots: int,
              engine_active: bool) -> List[Request]:
        """Admit requests at decision time ``now``; returns the admitted
        batch (possibly empty).

        While the engine is active, arrived requests fill free slots
        immediately (continuous batching).  While it is idle, a batch
        fires only when full (``max_batch_size`` arrivals pending) or when
        the oldest pending request has waited ``max_wait``.
        """
        arrived = self._arrived(now)
        if arrived == 0 or free_slots <= 0:
            return []
        if not engine_active:
            full = arrived >= self.max_batch_size
            timed_out = now >= self._queue[0][0] + self.max_wait
            if not (full or timed_out):
                return []
        take = min(arrived, free_slots, self.max_batch_size)
        out = [entry[2] for entry in self._queue[:take]]
        del self._queue[:take]
        return out

    def next_decision(self, now: float) -> Optional[float]:
        """Earliest simulated time at which an *idle* server's admission
        could fire: the arrival that completes a full batch, or the oldest
        pending request's max-wait deadline.  ``None`` once the stream is
        drained.  Pure function of the pending arrivals (and retry
        release times), so every rank computes the same jump target."""
        if not self._queue:
            return None
        head = self._queue[0][0]
        t_fire = head + self.max_wait
        if len(self._queue) >= self.max_batch_size:
            t_full = self._queue[self.max_batch_size - 1][0]
            if t_full < t_fire:
                t_fire = t_full
        # Never before anything is pending (and never behind the clock).
        return max(t_fire, head, now)

    # ------------------------------------------------------------------
    # Fault-tolerant serving (no-ops on the clean path)
    # ------------------------------------------------------------------
    def requeue(self, rq: Request, ready_at: float) -> None:
        """Re-insert a request whose in-flight tokens died with a crash;
        it becomes admissible at ``ready_at`` (the retry-backoff release
        time), keeping the queue (ready_at, rid)-ordered."""
        bisect.insort(self._queue, (ready_at, rq.rid, rq))
        dl = rq.deadline_at(self.deadline)
        if self._expiry is not None and dl is not None:
            heapq.heappush(self._expiry, (dl, ready_at, rq.rid))

    def expire(self, now: float) -> List[Request]:
        """Reap queued requests whose absolute completion deadline has
        passed by ``now``; returns them in queue order.  The serving loop
        marks them as first-class ``timeout`` terminals — expiry is
        detected at decision points, never from a rank-local clock.

        O(1) when the earliest queued deadline lies after ``now``.  Heap
        entries of admitted requests are dropped lazily as their deadline
        passes; each reaped entry is located by bisection on its
        ``(ready_at, rid)`` queue key."""
        heap = self._expiry
        if heap is None:
            heap = self._expiry = [
                (dl, ready_at, rid) for ready_at, rid, rq in self._queue
                if (dl := rq.deadline_at(self.deadline)) is not None]
            heapq.heapify(heap)
        if not heap or heap[0][0] > now:
            return []
        queue = self._queue
        due: List[Tuple[float, int]] = []
        while heap and heap[0][0] <= now:
            _, ready_at, rid = heapq.heappop(heap)
            due.append((ready_at, rid))
        expired: List[Request] = []
        for key in sorted(due):
            i = bisect.bisect_left(queue, key)
            if i < len(queue) and queue[i][:2] == key:
                expired.append(queue.pop(i)[2])
        return expired

    def snapshot(self) -> List[_Entry]:
        """Copy of the queue for one of the serving loop's retained step
        boundaries: a C-level copy of the entry references (entries are
        immutable tuples), a few microseconds at a thousand entries."""
        return list(self._queue)

    def restore(self, snap: List[_Entry]) -> None:
        """Roll the queue back to a :meth:`snapshot`; the expiry heap is
        rebuilt on the next :meth:`expire`."""
        self._queue = list(snap)
        self._expiry = None
