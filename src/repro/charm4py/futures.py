"""Futures: the asynchrony primitive of Charm4py (paper §II-E, [17]).

A future is created by a coroutine, passed (inside messages) to whoever
will produce the value, and ``get`` suspends the coroutine until ``send``
fulfils it.  Channel receives are implemented on futures (§III-D2): the
machine-layer completion callback fulfils the future, which resumes the
suspended coroutine.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.sim.primitives import SimEvent

_future_ids = itertools.count(1)


class Future:
    """One-shot value container with coroutine suspension semantics."""

    __slots__ = ("runtime", "fid", "_event", "span")

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.fid = next(_future_ids)
        self._event = SimEvent(runtime.sim, name="future")
        # the span of the device receive that fulfils it (channel recv)
        self.span = None

    @property
    def fulfilled(self) -> bool:
        return self._event.triggered

    def get(self) -> SimEvent:
        """Yield this from a coroutine to suspend until the value arrives."""
        return self._event

    def send(self, value: Any = None) -> None:
        """Fulfil the future; the waiting coroutine resumes after the
        Python-side fulfilment cost."""
        cost = self.runtime.cython.future_cost()
        self.runtime.sim.call_later(cost, self._event.succeed, value)

    def landed(self, _op) -> None:
        """The device receive posted for this future completed: the future
        owns the receive's op, so the in-flight receive holds no closure."""
        self.runtime.charm.machine.tracer.end(self.span)
        self.send(None)

    def failed(self, op, status) -> None:
        op.layer._route_error("recv", op.tag, status)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Future {self.fid} {'fulfilled' if self.fulfilled else 'pending'}>"
