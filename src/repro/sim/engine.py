"""Core event loop: a monotonic simulated clock over a slot-based agenda.

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
:meth:`Simulator.call_later` inserts the timer and returns nothing, so a
timer nobody cancels costs an agenda slot and no object; every layer above
the engine uses it.  :meth:`Simulator.schedule` is ``call_later`` plus a
:class:`Handle`, for the caller that may cancel the timer or ask when it is
due (``tests/test_hot_path_budget.py`` rejects a discarded handle).

Operations that *complete later* (``links.path_transfer``,
``Resource.occupy``, ``Stream.drained``) take their continuation — ``then,
then_args`` — and the timer that ends the operation calls it directly.  A
``SimEvent`` is the right tool only where something *waits*: a process
yields on it, several parties subscribe, or it can fail.  Called without
``then`` those operations build that event themselves, with its ``succeed``
as the continuation: one implementation, two spellings.

Event core layout
-----------------
* Each timer occupies a *slot* in parallel arrays (``_fn``, ``_args``,
  ``_time``, ``_gen``) recycled through a freelist — no per-event objects.
* The agenda is one binary heap of Python ints, ``(time_bits << 96) | (seq
  << 32) | slot``, where ``time_bits`` is the big-endian IEEE-754 pattern of
  the event time: for non-negative times it is order-isomorphic to numeric
  order, so one integer comparison replaces a ``(time, seq)`` tuple's.
  (``seq`` is assumed to stay below 2**64.)
* ``Handle.cancel`` tombstones the slot in O(1) (``_fn[slot] = None``); the
  dead key is discarded lazily when it surfaces, and the slot's generation
  counter keeps a recycled slot from rebinding old handles.

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
import heapq
from struct import Struct
from typing import Any, Callable, List, Optional

_TIME_BITS = Struct(">d").pack
_FROM_BYTES = int.from_bytes
_SLOT_MASK = 0xFFFFFFFF


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling into the past)."""


class Handle:
    """Cancellation handle returned by :meth:`Simulator.schedule`.

    Identity-stable: the handle snapshots its event's time and tracks its
    slot *generation*, so it keeps reporting correctly after the engine
    recycles the slot (post-fire or post-cancel).  ``cancel`` after the
    event has fired is a no-op — the event ran, and ``cancelled`` stays
    ``False`` rather than misreporting it as suppressed.
    """

    __slots__ = ("_sim", "_slot", "_gen", "_time", "_cancelled")

    def __init__(self, sim: "Simulator", slot: int, gen: int, time: float) -> None:
        self._sim = sim
        self._slot = slot
        self._gen = gen
        self._time = time
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call multiple times,
        and a no-op once the event has already fired."""
        if self._cancelled:
            return
        sim = self._sim
        slot = self._slot
        if sim._gen[slot] != self._gen:
            return  # the event already fired; nothing to suppress
        self._cancelled = True
        sim._fn[slot] = None
        sim._args[slot] = None
        sim._tombstones += 1

    @property
    def cancelled(self) -> bool:
        """True iff :meth:`cancel` suppressed the event before it fired."""
        return self._cancelled

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled (not fired, not cancelled)."""
        return not self._cancelled and self._sim._gen[self._slot] == self._gen

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
        self._now: float = 0.0
        self._seq: int = 0
        self._event_count = 0
        self._running = False
        # observation hooks (repro.obs): fault injector and telemetry attach
        # themselves here; both are read-only with respect to the agenda
        self.telemetry = None
        self.fault_injector = None
        self._probe: Optional[Callable[[], None]] = None
        self._probe_mask = 255
        # slot store (parallel arrays + freelist)
        self._fn: List[Optional[Callable[..., Any]]] = []
        self._args: List[Any] = []
        self._time: List[float] = []
        self._gen: List[int] = []
        self._free: List[int] = []
        self._tombstones = 0  # cancelled keys not yet reaped
        # the agenda: a heap of packed keys (live and tombstoned)
        self._cur: List[int] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events currently scheduled."""
        return len(self._cur) - self._tombstones

    def set_probe(self, fn: Optional[Callable[[], None]],
                  every: int = 256) -> None:
        """Install an observation probe called every ``every`` executed
        events (power of two).  The probe must only *read* simulator state —
        it runs after the event's callback and must never schedule."""
        if fn is not None and (every < 1 or every & (every - 1)):
            raise ValueError("probe interval must be a power of two")
        self._probe = fn
        self._probe_mask = every - 1

    # -- scheduling ----------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now.  The hot-path form:
        nothing is returned, so nothing is allocated beyond the agenda slot.
        ``delay`` must be non-negative (NaN rejected); a zero delay fires
        after all events already scheduled for the current instant (FIFO).
        """
        if not (delay >= 0.0):
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        t = self._now + delay
        free = self._free
        if free:
            slot = free.pop()
            self._fn[slot] = fn
            self._args[slot] = args
            self._time[slot] = t
        else:
            slot = self._new_slot(t, fn, args)
        seq = self._seq
        self._seq = seq + 1
        key = (_FROM_BYTES(_TIME_BITS(t), "big") << 96) | (seq << 32) | slot
        heapq.heappush(self._cur, key)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """:meth:`call_later` plus a :class:`Handle` on the timer, for the
        caller that may cancel it.  (The insert is repeated, not forwarded:
        re-spreading ``*args`` through a second call costs a quarter more.)"""
        if not (delay >= 0.0):
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        t = self._now + delay
        free = self._free
        if free:
            slot = free.pop()
            self._fn[slot] = fn
            self._args[slot] = args
            self._time[slot] = t
        else:
            slot = self._new_slot(t, fn, args)
        seq = self._seq
        self._seq = seq + 1
        key = (_FROM_BYTES(_TIME_BITS(t), "big") << 96) | (seq << 32) | slot
        heapq.heappush(self._cur, key)
        return Handle(self, slot, self._gen[slot], t)

    def _new_slot(self, t: float, fn: Callable[..., Any], args: tuple) -> int:
        """Grow the slot store by one (the freelist was empty)."""
        slot = len(self._fn)
        if slot > _SLOT_MASK:  # pragma: no cover - 2**32 concurrent events
            raise SimulationError("agenda exceeded 2**32 concurrent events")
        self._fn.append(fn)
        self._args.append(args)
        self._time.append(t)
        self._gen.append(0)
        return slot

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """:meth:`schedule` at absolute simulated time ``when``."""
        return self.schedule(when - self._now, fn, *args)

    # -- slot bookkeeping ----------------------------------------------------
    def _free_slot(self, slot: int) -> None:
        self._gen[slot] += 1
        self._fn[slot] = None
        self._args[slot] = None
        self._free.append(slot)

    def _next_live(self) -> Optional[int]:
        """Bring a live key to the head of the agenda, reaping tombstoned
        keys (and reclaiming their slots) on the way."""
        cur = self._cur
        fns = self._fn
        while cur:
            key = cur[0]
            slot = key & _SLOT_MASK
            if fns[slot] is not None:
                return key
            heapq.heappop(cur)
            self._free_slot(slot)
            self._tombstones -= 1
        return None

    # -- execution -----------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the agenda is empty."""
        key = self._next_live()
        return None if key is None else self._time[key & _SLOT_MASK]

    def _dispatch(self, until: Optional[float], stop: Any,
                  budget: Optional[int]) -> int:
        """The one dispatch loop: fire events in key order until the agenda
        drains, the next event lies beyond ``until`` (the clock then moves
        to ``until``), ``stop`` (a ``SimEvent``) has triggered, or ``budget``
        events have fired.  Returns the number fired.

        Runs with the cyclic garbage collector suspended (see the module
        docstring); the collector's previous state is restored on exit.
        """
        cur = self._cur
        fns = self._fn
        argl = self._args
        times = self._time
        gens = self._gen
        free = self._free
        pop = heapq.heappop
        fired = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while cur and not (stop is not None and stop._triggered):
                slot = cur[0] & _SLOT_MASK
                fn = fns[slot]
                if fn is None:  # tombstones at the head: reap them
                    self._next_live()
                    continue
                t = times[slot]
                if until is not None and t > until:
                    self._now = until
                    break
                pop(cur)
                args = argl[slot]
                # _free_slot, inlined: once per fired event
                gens[slot] += 1
                fns[slot] = None
                argl[slot] = None
                free.append(slot)
                if t < self._now:  # pragma: no cover - defensive
                    raise SimulationError(
                        "event agenda corrupted: time went backwards"
                    )
                self._now = t
                self._event_count += 1
                fn(*args)
                probe = self._probe
                if probe is not None and not (
                    self._event_count & self._probe_mask
                ):
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
