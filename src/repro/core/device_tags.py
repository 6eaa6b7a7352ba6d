"""Tag generation for GPU communication (paper Fig. 3).

A 64-bit UCP tag is split into three fields::

    | MSG_BITS (4) | PE_BITS (default 32) | CNT_BITS (default 28) |

``MSG_BITS`` differentiates message *types* — the paper adds the
``UCX_MSG_TAG_DEVICE`` type for inter-GPU transfers so the device-data path
never collides with host-side messaging.  The remainder is the source PE
index plus a per-PE monotonically increasing counter (wrapping at
``2**CNT_BITS``), making every in-flight device transfer uniquely
addressable.  The split is user-configurable (:class:`repro.config.TagConfig`)
"to accommodate different scaling configurations".
"""

from __future__ import annotations

import enum
from typing import Tuple

from repro.config import TagConfig


class MsgType(enum.IntEnum):
    """Values of the MSG_BITS field.

    The pre-existing machine layer used tag types for host messaging; this
    work adds :attr:`DEVICE` (paper: ``UCX_MSG_TAG_DEVICE``).
    """

    HOST = 0x1  # ordinary Converse/Charm++ host-side messages
    AM = 0x2  # active-message style short control traffic
    DEVICE = 0x3  # GPU-GPU transfers introduced by this work
    PROBE = 0x4  # reserved for diagnostics


def make_tag(msg_type: MsgType, pe: int, count: int, cfg: TagConfig = TagConfig()) -> int:
    """Compose a 64-bit tag from its three fields.

    Raises :class:`ValueError` if ``pe`` does not fit in ``PE_BITS``;
    ``count`` is wrapped modulo ``2**CNT_BITS`` (counters are long-running).
    """
    if pe < 0 or pe >= (1 << cfg.pe_bits):
        raise ValueError(f"PE {pe} does not fit in {cfg.pe_bits} bits")
    if count < 0:
        raise ValueError("count must be non-negative")
    count %= 1 << cfg.cnt_bits
    if int(msg_type) >= (1 << cfg.msg_bits):
        raise ValueError(f"msg type {msg_type} does not fit in {cfg.msg_bits} bits")
    return (
        (int(msg_type) << (cfg.pe_bits + cfg.cnt_bits))
        | (pe << cfg.cnt_bits)
        | count
    )


def decode_tag(tag: int, cfg: TagConfig = TagConfig()) -> Tuple[MsgType, int, int]:
    """Split a tag back into ``(msg_type, pe, count)``."""
    if tag < 0 or tag >= (1 << 64):
        raise ValueError("tag must be an unsigned 64-bit value")
    cnt_mask = (1 << cfg.cnt_bits) - 1
    pe_mask = (1 << cfg.pe_bits) - 1
    count = tag & cnt_mask
    pe = (tag >> cfg.cnt_bits) & pe_mask
    msg = tag >> (cfg.pe_bits + cfg.cnt_bits)
    return MsgType(msg), pe, count


#: Full-precision tag mask: receives posted by the device path match exactly.
TAG_MASK_FULL = (1 << 64) - 1


class TagGenerator:
    """Per-PE device-tag source: increments the PE's counter per transfer.

    ``LrtsSendDevice`` calls :meth:`next_device_tag`; uniqueness holds until
    ``2**CNT_BITS`` transfers are simultaneously in flight from one PE,
    which the default 28 bits makes unreachable in practice.
    """

    def __init__(self, pe: int, cfg: TagConfig = TagConfig()) -> None:
        self.pe = pe
        self.cfg = cfg
        self._counter = 0

    def next_device_tag(self) -> int:
        tag = make_tag(MsgType.DEVICE, self.pe, self._counter, self.cfg)
        self._counter = (self._counter + 1) % (1 << self.cfg.cnt_bits)
        return tag
