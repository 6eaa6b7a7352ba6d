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

from repro.core.device_buffer import CmiDeviceBuffer
from repro.hardware.memory import Buffer


class PostError(RuntimeError):
    """The post entry method did not name a destination for every buffer."""


@dataclass
class DevicePost:
    """Receiver-side slot for one incoming GPU buffer.

    ``size`` and ``tag`` come from the sender's metadata; the post entry
    method must set ``buffer`` to a device allocation of at least ``size``
    bytes (the paper's ``data = recv_gpu_data`` line).  ``announced_at``
    is the simulated time the metadata message was handled — the earliest
    instant the receiver *could* have posted (introspection only)."""

    size: int
    tag: int
    src_pe: int
    buffer: Optional[Buffer] = None
    announced_at: float = 0.0

    def validate(self) -> None:
        if self.buffer is None:
            raise PostError("post entry method left a device buffer unset")
        if not self.buffer.on_device:
            raise PostError("post destination must be device memory")
        if self.buffer.size < self.size:
            raise PostError(
                f"post destination of {self.buffer.size} B cannot hold {self.size} B"
            )


@dataclass
class PendingInvocation:
    """An entry invocation waiting for its GPU buffers to arrive."""

    chare_id: int
    method: str
    args: Tuple[Any, ...]
    posts: List[DevicePost]
    remaining: int

    @staticmethod
    def make_posts(dev_bufs: List[CmiDeviceBuffer],
                   announced_at: float = 0.0) -> List[DevicePost]:
        return [
            DevicePost(size=b.size, tag=b.tag, src_pe=b.src_pe,
                       announced_at=announced_at)
            for b in dev_bufs
        ]
