"""The CmiMessage envelope.

A Converse message carries a registered handler name, an opaque payload (the
layers above put entry-method invocations, AMPI envelopes, or Charm4py
channel packets here), the host-side byte size it occupies on the wire, and
— for GPU-aware sends — the list of :class:`CmiDeviceBuffer` metadata
objects whose tags were assigned by ``LrtsSendDevice`` (the paper's "pack
with host-side data and send" step).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List

from repro.core.device_buffer import CmiDeviceBuffer

_msg_ids = itertools.count(1)


@dataclass(slots=True)
class CmiMessage:
    """One host-side message between PEs."""

    handler: str  # registered Converse handler name
    payload: Any  # opaque to Converse
    host_bytes: int  # user payload bytes on the host side (0 if none)
    src_pe: int
    dst_pe: int
    device_bufs: List[CmiDeviceBuffer] = field(default_factory=list)
    msg_id: int = field(default_factory=_msg_ids.__next__)

    def wire_size(self, header_bytes: int, device_metadata_bytes: int) -> int:
        """Total host-side bytes: payload + Converse/Charm headers + the
        serialized CkDeviceBuffer metadata riding along."""
        return (
            self.host_bytes
            + header_bytes
            + device_metadata_bytes * len(self.device_bufs)
        )
