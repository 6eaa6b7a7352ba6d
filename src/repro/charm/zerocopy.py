"""Zero Copy API machinery: post entry methods and pending invocations.

When an entry-method message announcing GPU buffers arrives, the runtime
first runs the chare's *post entry method*, handing it one
:class:`DevicePost` per announced buffer.  The user assigns each post's
``buffer`` (the destination GPU allocation); the runtime then posts the
tagged receives and delays the regular entry method until all GPU data has
landed — the receive-side flow of the paper's §III-B2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.converse.message import CmiMessage
from repro.core.device_buffer import CkDeviceBuffer, CmiDeviceBuffer
from repro.hardware.memory import Buffer


class PostError(RuntimeError):
    """The post entry method did not name a destination for every buffer."""


@dataclass(slots=True)
class DevicePost:
    """Receiver-side slot for one incoming GPU buffer.

    ``size`` and ``tag`` come from the sender's metadata; the post entry
    method must set ``buffer`` to a device allocation of at least ``size``
    bytes (the paper's ``data = recv_gpu_data`` line)."""

    size: int
    tag: int
    src_pe: int
    buffer: Optional[Buffer] = None

    def validate(self) -> None:
        if self.buffer is None:
            raise PostError("post entry method left a device buffer unset")
        if not self.buffer.on_device:
            raise PostError("post destination must be device memory")
        if self.buffer.size < self.size:
            raise PostError(
                f"post destination of {self.buffer.size} B cannot hold {self.size} B"
            )


@dataclass(slots=True)
class PendingInvocation:
    """An entry invocation waiting for its GPU buffers to arrive: the owner
    of their receives (see :mod:`repro.core.device_buffer`)."""

    chare_id: int
    method: str
    args: Tuple[Any, ...]
    posts: List[DevicePost]
    remaining: int
    charm: Any

    def landed(self, _op) -> None:
        """Completion of one GPU buffer.  When the last one lands, the
        regular entry method is enqueued on the owning PE."""
        self.remaining -= 1
        if self.remaining > 0:
            return
        it = iter(self.posts)
        args = tuple(next(it).buffer if isinstance(a, CkDeviceBuffer) else a
                     for a in self.args)
        dst_pe = self.charm.chare_pe[self.chare_id]
        self.charm.converse.pes[dst_pe].enqueue(CmiMessage(
            "charm_entry_ready", (self.chare_id, self.method, args), 0, dst_pe, dst_pe))

    def failed(self, op, status) -> None:
        op.layer._route_error("recv", op.tag, status)

    @staticmethod
    def make_posts(dev_bufs: List[CmiDeviceBuffer]) -> List[DevicePost]:
        return [DevicePost(size=b.size, tag=b.tag, src_pe=b.src_pe)
                for b in dev_bufs]
