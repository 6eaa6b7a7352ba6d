"""Generator-based cooperative processes driven by the event engine.

A process is a Python generator that ``yield``\\ s awaitables:

* a :class:`~repro.sim.primitives.SimEvent` (including :class:`Timeout`,
  :class:`AllOf`, or another :class:`Process`) — the process resumes when
  the event triggers and receives its value via ``send``;
* a bare ``float`` — the process sleeps that many seconds on the engine
  timer itself: one ``call_later``, no event object.  Yield the delay when
  nobody else needs the wake-up; build a ``Timeout`` when the event is kept,
  combined (``AllOf``) or carries a value;
* ``None`` — the process yields control and resumes at the same instant
  (after already-queued events for that instant).

This is the execution vehicle for *blocking* programming-model semantics in
the reproduction: AMPI ranks block in ``MPI_Recv`` and Charm4py coroutines
suspend on channel receives/futures, both of which map to yielding an event.
Charm++ entry methods, by contrast, are run-to-completion callables and never
become processes.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent


class Process(SimEvent):
    """Wraps a generator; is itself an event that triggers on completion.

    The completion value is the generator's ``return`` value.  An uncaught
    exception inside the generator fails the process event with that
    exception (so joiners observe it) — except that it is also re-raised if
    nobody is joining, to keep silent failures out of tests.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: Simulator, gen: Generator, name: str = "process") -> None:
        super().__init__(sim, name=name)
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        self._gen = gen
        # Start on the next tick of the current instant so the creator
        # finishes its own step first (mirrors SimPy semantics).
        sim.call_later(0.0, self._resume, None, None)

    # -- engine plumbing ----------------------------------------------------
    def _resume(self, send_value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - fail the join event
            had_joiners = self._callbacks is not None
            self.fail(err)
            if not had_joiners:
                raise  # nobody observing: surface loudly instead of silently
            return
        # what the generator waits on next
        if target is None:
            self.sim.call_later(0.0, self._resume, None, None)
            return
        if isinstance(target, float):
            self.sim.call_later(target, self._resume, None, None)
            return
        if isinstance(target, SimEvent):
            target.add_callback(self._on_event)
            return
        raise TypeError(
            f"process {self.name!r} yielded {type(target).__name__}; "
            "expected SimEvent, float or None"
        )

    def _on_event(self, ev: SimEvent) -> None:
        self._resume(ev._value, ev._exc)
