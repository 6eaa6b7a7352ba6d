"""Non-blocking operation handles (the ``ucs_status_ptr_t`` of the model)."""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent
from repro.ucx.status import UcsStatus


class RequestKind(enum.Enum):
    SEND = "send"
    RECV = "recv"


class UcxRequest:
    """Handle for one in-flight ``tag_send_nb`` / ``tag_recv_nb``.

    ``cb`` (the UCP completion callback) is invoked as ``cb(request)`` from
    "progress context" — i.e. at the simulated instant of completion.  The
    runtimes pass the message's own record, which is callable, so a
    request holds no bound method (DESIGN §4.5).  ``info`` carries the
    matched tag and received length for receives, mirroring
    ``ucp_tag_recv_info_t``; it is stored at completion.

    ``event`` is a :class:`SimEvent` that processes may yield on.  It is
    created on first access (already succeeded if the request has completed):
    the runtimes complete requests through ``cb`` and never touch it, and an
    event whose value is its own request is a reference cycle — one per
    message would break the engine's no-cyclic-garbage contract
    (``sim/engine.py``).

    What only some requests carry is a class default here, stored only by
    the subclass that needs it: :class:`RndvSendRequest` (a rendezvous
    send's ``rndv_*`` state) and :class:`AmSendRequest` (``op``).
    """

    __slots__ = ("sim", "kind", "tag", "size", "cb", "_event",
                 "status", "info", "span")

    #: which API created the request: "tag" (cancellable) or "am"
    op = "tag"
    #: rendezvous sends: the id the FIN will carry (0 = not one), the worker
    #: the RTS went to, whether that receiver committed to the data fetch
    rndv_id = 0
    rndv_remote = -1
    rndv_committed = False

    def __init__(
        self,
        sim: Simulator,
        kind: RequestKind,
        tag: int,
        size: int,
        cb: Optional[Callable[["UcxRequest"], None]] = None,
    ) -> None:
        self.sim = sim
        self.kind = kind
        self.tag = tag
        self.size = size
        self.cb = cb
        self._event: Optional[SimEvent] = None
        self.status = UcsStatus.INPROGRESS
        # observability: the span covering this request, if traced; a handle
        # (Tracer.handle) that completion ends
        self.span: Any = None

    @property
    def completed(self) -> bool:
        return self.status is not UcsStatus.INPROGRESS

    @property
    def event(self) -> SimEvent:
        ev = self._event
        if ev is None:
            ev = self._event = SimEvent(self.sim, name="ucx.request")
            if self.status is not UcsStatus.INPROGRESS:
                ev.succeed(self)
        return ev

    def complete(self, status: UcsStatus = UcsStatus.OK, info: Any = None) -> None:
        if self.status is not UcsStatus.INPROGRESS:
            raise RuntimeError("request completed twice")
        self.status = status
        self.info = info
        if self.span is not None:
            self.span.end()
        if self.cb is not None:
            self.cb(self)
        if self._event is not None:
            self._event.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<UcxRequest {self.kind.value} tag=0x{self.tag:x} size={self.size} "
            f"{self.status.name}>"
        )


class RndvSendRequest(UcxRequest):
    """A ``tag_send_nb`` that goes by rendezvous: it stores the ``rndv_*``
    state (set by ``protocols.rndv``) that cancellation reads."""

    __slots__ = ("rndv_id", "rndv_remote", "rndv_committed")


class AmSendRequest(UcxRequest):
    """An AM host-message send: not cancellable (no UCP handle)."""

    __slots__ = ()
    op = "am"
