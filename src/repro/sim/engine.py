"""Core event loop: a monotonic simulated clock over a heap of plain tuples.

Determinism contract
--------------------
Events scheduled for the same simulated time fire in the order they were
scheduled (FIFO tie-break via a monotonically increasing sequence number).
Nothing in the engine consults wall-clock time or unseeded randomness, so a
simulation run is a pure function of its inputs.  Every figure in the paper
reproduction is therefore exactly repeatable.

Tie-break rule for schedule sites
---------------------------------
The FIFO tie-break applies only to events whose float times are *bit-equal*.
Float addition is not associative — ``now + a + b`` and ``now + (a + b)``
can differ in the last ulp — so two call sites that re-derive the "same"
composite delay with different grouping turn semantically-simultaneous
events into (arbitrarily) ordered ones.  The rule for layers above the
engine: a composite per-operation cost must be summed **once** (e.g. the
precomputed ``_send_post_cost``/``_rts_post_cost`` constants on
:class:`repro.ucx.worker.UcpWorker`) and every site that schedules with it
must reuse that shared sum, never re-add the parts.

``call_later``, ``schedule`` and continuations
----------------------------------------------
"Run this function after this modelled delay" is the one primitive:
:meth:`Simulator.call_later` pushes one agenda entry and returns nothing, so
a timer nobody cancels costs a 4-tuple and no object; every layer above the
engine uses it.  :meth:`Simulator.schedule` is the same push plus a
:class:`Handle`, for the caller that may cancel the timer or ask when it is
due (``tests/test_hot_path_budget.py`` rejects a discarded handle).

Operations that *complete later* (``links.path_transfer``,
``Resource.occupy``, ``Stream.drained``) take their continuation — ``then,
then_args`` — and the timer that ends the operation calls it directly.  A
``SimEvent`` is the right tool only where something *waits*: a process
yields on it, several parties subscribe, or it can fail.  Called without
``then`` those operations build that event themselves, with its ``succeed``
as the continuation: one implementation, two spellings.

The agenda
----------
* One binary heap of ``(time, seq, fn, args)`` tuples.  ``seq`` is unique,
  so a comparison never reaches ``fn``; tuple order on ``(time, seq)`` *is*
  the determinism contract above, with nothing to encode or decode.
* A cancellable timer is the entry ``(time, seq, None, handle)``: the
  :class:`Handle` owns the callback, its arguments and the fired/cancelled
  state, so ``cancel`` is an O(1) tombstone that lets go of the callback at
  once.  The dead entry is discarded when it surfaces at the head, without
  advancing the clock and without counting as an event; ``_tombstones``
  counts the ones still buried so ``pending_events`` stays exact.
* ``Simulator.now`` is a plain attribute, written only by the dispatch loop.

The one dispatch loop and the cyclic collector
----------------------------------------------
``step``, ``run`` and ``run_until_complete`` are three stop conditions over
one loop (:meth:`Simulator._dispatch`).  That loop suspends CPython's cyclic
garbage collector while it runs and restores the collector's previous state
when it exits, however it exits.  This is safe because the simulator's own
layers create **no cyclic garbage per message** — every request, event,
transfer and envelope is freed by reference counting the moment its last
holder lets go (``tests/test_gc_quiet.py`` enforces it for every model and
protocol) — so a collection inside the loop could only ever walk the live
session and free nothing; at 384 GPUs that walk was a third of the host
time.  A user program that does build reference cycles still has them
collected: the collection is merely deferred to the first allocation after
the loop exits.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling into the past)."""


class Handle:
    """Cancellation handle returned by :meth:`Simulator.schedule`.

    The handle *is* the cancellable timer's state: the agenda entry only
    points at it, and it owns the callback and its arguments until the timer
    fires or is cancelled.  ``cancel`` after the event has fired is a no-op
    — the event ran, and ``cancelled`` stays ``False`` rather than
    misreporting it as suppressed.
    """

    __slots__ = ("_sim", "_time", "_fn", "_args", "_cancelled")

    def __init__(self, sim: "Simulator", time: float,
                 fn: Callable[..., Any], args: tuple) -> None:
        self._sim = sim
        self._time = time
        self._fn: Optional[Callable[..., Any]] = fn  # None once fired or cancelled
        self._args: Optional[tuple] = args
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call multiple times,
        and a no-op once the event has already fired.  The callback and its
        arguments are let go at once, not when the dead entry surfaces."""
        if self._fn is None:
            return  # already fired, or already cancelled
        self._cancelled = True
        self._fn = None
        self._args = None
        self._sim._tombstones += 1

    @property
    def cancelled(self) -> bool:
        """True iff :meth:`cancel` suppressed the event before it fired."""
        return self._cancelled

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled (not fired, not cancelled)."""
        return self._fn is not None

    @property
    def time(self) -> float:
        """Simulated time at which the callback is (or was) due."""
        return self._time


class Simulator:
    """A discrete-event simulator with a float-valued clock (seconds).

    The simulator only executes callbacks; higher-level behaviour (processes,
    resources, queues) is layered on top in sibling modules.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.call_later(1.5, fired.append, "a")
    >>> sim.call_later(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        #: Current simulated time in seconds.  Read freely; only the dispatch
        #: loop writes it.
        self.now: float = 0.0
        self._seq: int = 0
        self._event_count = 0
        self._running = False
        # observation hooks (repro.obs): fault injector and telemetry attach
        # themselves here; both are read-only with respect to the agenda
        self.telemetry = None
        self.fault_injector = None
        self._probe: Optional[Callable[[], None]] = None
        # the agenda: a heap of (time, seq, fn, args), or (time, seq, None,
        # handle) for a cancellable timer
        self._cur: List[tuple] = []
        self._tombstones = 0  # cancelled entries not yet reaped

    @property
    def event_count(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events currently scheduled."""
        return len(self._cur) - self._tombstones

    def set_probe(self, fn: Optional[Callable[[], None]]) -> None:
        """Install an observation probe called every 256 executed events.
        The probe must only *read* simulator state — it runs after the
        event's callback and must never schedule."""
        self._probe = fn

    # -- scheduling ----------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now.  The hot-path form:
        nothing is returned, so nothing is allocated beyond the agenda entry.
        ``delay`` must be non-negative (NaN rejected); a zero delay fires
        after all events already scheduled for the current instant (FIFO).
        """
        if not (delay >= 0.0):
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._cur, (self.now + delay, seq, fn, args))

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """:meth:`call_later` plus a :class:`Handle` on the timer, for the
        caller that may cancel it."""
        if not (delay >= 0.0):
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        t = self.now + delay
        handle = Handle(self, t, fn, args)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._cur, (t, seq, None, handle))
        return handle

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """:meth:`schedule` at absolute simulated time ``when``."""
        return self.schedule(when - self.now, fn, *args)

    # -- execution -----------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the agenda is empty.
        Cancelled timers at the head of the agenda are reaped on the way."""
        cur = self._cur
        while cur:
            t, _, fn, handle = cur[0]
            if fn is not None or handle._fn is not None:
                return t
            heappop(cur)
            self._tombstones -= 1
        return None

    def _dispatch(self, until: Optional[float], stop: Any,
                  budget: Optional[int]) -> int:
        """The one dispatch loop: fire events in ``(time, seq)`` order until
        the agenda drains, the next event lies beyond ``until`` (the clock
        then moves to ``until``), ``stop`` (a ``SimEvent``) has triggered, or
        ``budget`` events have fired.  Returns the number fired.

        Runs with the cyclic garbage collector suspended (see the module
        docstring); the collector's previous state is restored on exit.
        """
        cur = self._cur
        pop = heappop
        fired = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while cur and not (stop is not None and stop._triggered):
                t, _, fn, args = cur[0]
                if fn is None and args._fn is None:
                    self.peek()  # cancelled timers at the head: reap them;
                    continue     # the clock does not move
                if until is not None and t > until:
                    self.now = until
                    break
                pop(cur)
                if fn is None:  # a cancellable timer: ``args`` is its Handle
                    handle = args
                    fn = handle._fn
                    args = handle._args
                    handle._fn = handle._args = None  # fired
                if t < self.now:  # pragma: no cover - defensive
                    raise SimulationError(
                        "event agenda corrupted: time went backwards"
                    )
                self.now = t
                self._event_count += 1
                fn(*args)
                probe = self._probe
                if probe is not None and not (self._event_count & 255):
                    probe()
                fired += 1
                if budget is not None and fired >= budget:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
        return fired

    def step(self) -> bool:
        """Execute the next event. Returns ``False`` if the agenda was empty."""
        return self._dispatch(None, None, 1) == 1

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the agenda drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulated time; events scheduled exactly at
        ``until`` *do* execute.  ``max_events`` bounds total executed events
        and raises :class:`SimulationError` when exceeded — it exists to turn
        accidental infinite event loops into loud failures in tests.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            self._bounded(until, None, max_events)
        finally:
            self._running = False

    def run_until_complete(self, event: "Any", *, max_events: Optional[int] = None) -> Any:
        """Run until ``event`` (a :class:`~repro.sim.primitives.SimEvent`)
        is triggered; returns its value or raises its failure exception."""
        self._bounded(None, event, max_events)
        if not event.triggered:
            raise SimulationError("agenda drained before event triggered (deadlock?)")
        return event.result()

    def _bounded(self, until: Optional[float], stop: Any,
                 max_events: Optional[int]) -> None:
        """Dispatch, raising once more than ``max_events`` events fired."""
        if max_events is None:
            self._dispatch(until, stop, None)
        elif self._dispatch(until, stop, max_events + 1) > max_events:
            raise SimulationError(
                f"exceeded max_events={max_events}; likely an event loop"
            )
