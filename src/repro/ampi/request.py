"""MPI request objects (Isend/Irecv handles)."""

from __future__ import annotations

from repro.sim.primitives import AllOf, SimEvent


class MpiRequest:
    """Handle for a non-blocking operation; ``.event`` is yieldable.

    ``MPI_Wait`` is ``yield req.event``; ``MPI_Test`` is
    ``req.event.triggered``.
    The event's value is the :class:`MpiStatus` for receives, ``None`` for
    sends.
    """

    __slots__ = ("event", "kind")

    def __init__(self, event: SimEvent, kind: str) -> None:
        self.event = event
        self.kind = kind


def waitall(sim, requests) -> SimEvent:
    """``MPI_Waitall``: yieldable event carrying the list of statuses."""
    return AllOf(sim, [r.event for r in requests])
