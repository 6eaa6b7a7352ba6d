"""The original heap-of-entries event core, kept as a test oracle.

A binary heap of ``_Entry`` dataclasses ordered by ``(time, seq)`` with
lazy-deletion compaction — small and obviously FIFO on ties, which is what
makes it an oracle for :class:`repro.sim.engine.Simulator` (a heap of
plain tuples, handle-owned cancellable timers, one dispatch loop).  ``tests/test_engine_stress.py``
replays randomized schedule/cancel workloads on both and requires the exact
same events in the exact same order.  Like ``LinearMatchQueue`` it is never
imported by the runtime.

Known (historical) wart, preserved on purpose: ``Handle.cancel`` on an
already-fired entry still counts toward ``_cancelled_count`` even though the
entry is no longer in the heap — the bookkeeping bug the engine's
handles, which know whether they fired, do not have.  The stress tests steer around it by only
comparing firing order, which the bug never affected.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class ReferenceSimulationError(RuntimeError):
    """Raised for misuse of the reference engine."""


@dataclass(order=True)
class _Entry:
    """Heap entry; ordering is (time, seq) so ties fire FIFO."""

    time: float
    seq: int
    fn: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)


class ReferenceHandle:
    """Cancellation handle returned by :meth:`ReferenceSimulator.schedule`."""

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: _Entry, sim: "ReferenceSimulator") -> None:
        self._entry = entry
        self._sim = sim

    def cancel(self) -> None:
        if not self._entry.cancelled:
            self._entry.cancelled = True
            self._sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    @property
    def time(self) -> float:
        return self._entry.time


class ReferenceSimulator:
    """The old binary-heap discrete-event simulator (see module docstring)."""

    #: cancelled entries tolerated in the heap before a compaction pass
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._heap: list[_Entry] = []
        self._running = False
        self._event_count = 0
        self._cancelled_count = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def event_count(self) -> int:
        return self._event_count

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ReferenceHandle:
        if delay < 0:
            raise ReferenceSimulationError(
                f"cannot schedule into the past (delay={delay})"
            )
        entry = _Entry(self._now + delay, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return ReferenceHandle(entry, self)

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """The engine's handle-free form: here, a schedule nobody cancels."""
        self.schedule(delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> ReferenceHandle:
        return self.schedule(when - self._now, fn, *args)

    def _note_cancelled(self) -> None:
        self._cancelled_count += 1
        heap = self._heap
        if (
            self._cancelled_count >= self._COMPACT_MIN
            and self._cancelled_count * 2 > len(heap)
        ):
            self._heap = [e for e in heap if not e.cancelled]
            heapq.heapify(self._heap)
            self._cancelled_count = 0

    def peek(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            if self._cancelled_count > 0:
                self._cancelled_count -= 1
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.cancelled:
                if self._cancelled_count > 0:
                    self._cancelled_count -= 1
                continue
            self._now = entry.time
            self._event_count += 1
            entry.fn(*entry.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> None:
        if self._running:
            raise ReferenceSimulationError("run is not reentrant")
        self._running = True
        executed = 0
        try:
            while True:
                nxt = self.peek()
                if nxt is None:
                    return
                if until is not None and nxt > until:
                    self._now = until
                    return
                self.step()
                executed += 1
                if max_events is not None and executed > max_events:
                    raise ReferenceSimulationError(
                        f"exceeded max_events={max_events}"
                    )
        finally:
            self._running = False
