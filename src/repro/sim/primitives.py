"""Synchronization primitives: what a process *waits on*.

SimPy's vocabulary, the lingua franca of Python discrete-event simulation:
a :class:`SimEvent` is a one-shot occurrence carrying a value or a failure;
:class:`Timeout` is one that the engine timer succeeds after a fixed delay;
:class:`AllOf` combines events; :class:`SimQueue` is an unbounded
producer/consumer queue (PE message queues).  Code that only chains a next
step does not need these: it hands the step to ``Simulator.call_later`` or
to an operation's ``then`` (see ``sim/engine.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, List, Optional

from repro.sim.engine import Simulator


class EventAlreadyTriggered(RuntimeError):
    """A one-shot event was succeeded/failed twice."""


class SimEvent:
    """A one-shot occurrence carrying a value or an exception.

    Callbacks added before triggering run when the event triggers; callbacks
    added after it has triggered run immediately (same simulated instant).
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_exc", "name")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[[SimEvent], None]] = []
        self._triggered = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    def result(self) -> Any:
        """Value of a succeeded event; re-raises the exception of a failed one."""
        if not self._triggered:
            raise RuntimeError(f"event {self.name!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        if self._triggered:
            raise EventAlreadyTriggered(self.name)
        self._triggered = True
        self._value = value
        # once triggered, add_callback runs callbacks at once: the list is
        # never appended to again, so it is dropped, not replaced
        callbacks, self._callbacks = self._callbacks, ()
        for cb in callbacks:
            cb(self)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        if self._triggered:
            raise EventAlreadyTriggered(self.name)
        self._triggered = True
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, ()
        for cb in callbacks:
            cb(self)
        return self

    def add_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        if self._triggered:
            cb(self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(SimEvent):
    """An event the engine timer succeeds ``delay`` seconds after
    construction, resuming whoever sleeps on it from the timer itself.

    For the caller that keeps the event: returns it, combines it
    (``AllOf``), or wants ``value`` sent back.  A process that
    merely sleeps yields the delay as a bare ``float`` instead (see
    ``sim/process.py``) and no event is built."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        super().__init__(sim, name="timeout")
        self.delay = delay
        sim.call_later(delay, self.succeed, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<Timeout {self.delay} {state}>"


class AllOf(SimEvent):
    """Succeeds when every constituent event has succeeded.

    The value is the list of constituent values, in input order.  Fails fast
    with the first constituent failure.
    """

    def __init__(self, sim: Simulator, events: Iterable[SimEvent]) -> None:
        super().__init__(sim, name="all_of")
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: SimEvent) -> None:
        if self._triggered:
            return
        if not ev.ok:
            try:
                ev.result()
            except BaseException as exc:  # noqa: BLE001 - propagate verbatim
                self.fail(exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.result() for e in self._events])


class SimQueue:
    """Unbounded FIFO queue with event-based consumption.

    ``put`` never blocks.  ``get`` returns a :class:`SimEvent` that succeeds
    with the next item — immediately if one is buffered, otherwise when a
    producer puts one.  Waiters are served FIFO.
    """

    def __init__(self, sim: Simulator, name: str = "queue") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._waiters: deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._waiters:
            self._waiters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> SimEvent:
        ev = SimEvent(self.sim, name="queue.get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._waiters.append(ev)
        return ev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimQueue {self.name!r} items={len(self._items)} "
                f"waiters={len(self._waiters)}>")
