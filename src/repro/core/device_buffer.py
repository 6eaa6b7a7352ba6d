"""Metadata objects for GPU communication (paper Figs. 5 and the
``LrtsRecvDevice`` signature of §III-A).

``CmiDeviceBuffer`` is the Converse-layer view of one GPU buffer being sent:
source buffer, size, and the UCP tag assigned by the machine layer.
``CkDeviceBuffer`` adds the Charm++-core fields (a completion callback).
``DeviceRdmaOp`` is what a *receiver* hands to ``LrtsRecvDevice``: the
destination buffer plus the sender's tag, along with the posting model's
completion handler and its ``DeviceRecvType``.

Both are also the machine layer's in-flight record of their transfer: it
writes its span and itself into them and hands the record itself to UCP as
the request's completion callback (``__call__``), so an in-flight device
transfer holds neither a closure nor a bound method (DESIGN §4.5).
Neither holds its ``UcxRequest``, so that callback makes no reference
cycle.
Each tells its ``owner``, the model's record of the message, the outcome:
``notify_sender()`` / ``send_failed(status)`` for a send, ``landed(op)`` /
``failed(op, status)`` for a receive; without one a failure goes to the
layer's error handler.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.hardware.memory import Buffer
from repro.ucx.status import UcsStatus


class DeviceRecvType(enum.IntEnum):
    """Which model posted the receive (recorded on the receive's span)."""

    CHARM = 1
    AMPI = 2
    CHARM4PY = 3


@dataclass(slots=True)
class CmiDeviceBuffer:
    """Converse-layer metadata for one source GPU buffer (paper Fig. 5).

    ``tag`` is 0 until the UCX machine layer assigns one in
    ``LrtsSendDevice``; afterwards the struct rides inside the host-side
    message so the receiver can post the matching tagged receive.
    """

    ptr: Buffer  # source GPU buffer
    size: int
    tag: int = 0
    src_pe: int = -1
    # written by ``LrtsSendDevice``: the layer sending it, its span and the
    # owner told how the send ended
    layer: Any = field(default=None, repr=False, compare=False)
    span: Any = field(default=None, repr=False, compare=False)
    owner: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("device buffer size must be positive")
        if self.size > self.ptr.size:
            raise ValueError(
                f"send size {self.size} exceeds buffer size {self.ptr.size}"
            )
        if not self.ptr.on_device:
            raise ValueError("CmiDeviceBuffer wraps device memory only")

    def __call__(self, req) -> None:
        """UCP completion callback of the send: the request calls its
        record."""
        layer = self.layer
        layer.machine.tracer.end(self.span)
        owner = self.owner
        if req.status is not UcsStatus.OK:
            if owner is not None:
                owner.send_failed(req.status)
            else:
                layer._route_error("send", self.tag, req.status)
            return
        if owner is not None:
            owner.notify_sender()


@dataclass(slots=True)
class CkDeviceBuffer(CmiDeviceBuffer):
    """Charm++-core metadata: adds the completion callback (CkCallback);
    a buffer with one owns its own send."""

    cb: Optional[Callable[[], None]] = None

    def notify_sender(self) -> None:
        self.cb()

    def send_failed(self, status) -> None:
        self.layer._route_error("send", self.tag, status)

    @classmethod
    def wrap(cls, buf: Buffer, size: Optional[int] = None,
             cb: Optional[Callable[[], None]] = None) -> "CkDeviceBuffer":
        """Convenience used at entry-method invocation sites:
        ``peer.recv(CkDeviceBuffer.wrap(gpu_data), ...)``."""
        return cls(ptr=buf, size=size if size is not None else buf.size, cb=cb)


@dataclass(slots=True)
class DeviceRdmaOp:
    """Receive descriptor passed to ``LrtsRecvDevice`` (paper §III-A).

    Carries everything needed to post ``ucp_tag_recv_nb``: destination GPU
    buffer, expected size, and the tag set by the sender; plus its
    ``owner``, the posting model's record of the receive.
    """

    dest: Buffer
    size: int
    tag: int
    recv_type: DeviceRecvType
    owner: Any = None
    # written by ``LrtsRecvDevice``: the layer receiving it and its span
    layer: Any = field(default=None, repr=False, compare=False)
    span: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.dest.on_device:
            raise ValueError("DeviceRdmaOp destination must be device memory")
        if self.size > self.dest.size:
            raise ValueError(
                f"recv size {self.size} exceeds destination size {self.dest.size}"
            )

    def __call__(self, req) -> None:
        """UCP completion callback of the receive: the request calls its
        record.  The span closes on every outcome (an error must not leak
        it)."""
        layer = self.layer
        layer.machine.tracer.end(self.span)
        owner = self.owner
        if req.status is not UcsStatus.OK:
            if owner is not None:
                owner.failed(self, req.status)
            else:
                layer._route_error("recv", self.tag, req.status)
            return
        if owner is not None:
            owner.landed(self)
