"""Wire message descriptors exchanged between workers."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.hardware.memory import Buffer


class WireKind(enum.Enum):
    EAGER = "eager"  # payload travels with the message (in a bounce buffer)
    RTS = "rts"  # rendezvous ready-to-send (descriptor of the source)
    FIN = "fin"  # rendezvous completion notification back to the sender
    ERR = "err"  # endpoint-error notification (a frame's sender gave up)


_rndv_ids = itertools.count(1)


def next_rndv_id() -> int:
    return next(_rndv_ids)


@dataclass(slots=True)
class WireMessage:
    """One message as seen by the destination worker.

    ``size`` is the payload size (not counting protocol headers).  For EAGER
    the payload sits in ``bounce`` (a host buffer at the *receiver* by the
    time the message is delivered — the model moves it with the message).
    For RTS, ``src_buf`` references the registered source region the
    receiver will fetch from.
    """

    kind: WireKind
    tag: int
    size: int
    src_worker: int
    bounce: Optional[Buffer] = None
    src_buf: Optional[Buffer] = None
    rndv_id: int = 0
    src_was_device: bool = False
    #: per-(sender, receiver) wire sequence for matchable messages (EAGER,
    #: RTS).  Transports deliver both on one ordered QP, so matching order
    #: must follow send order even though small control frames physically
    #: overtake bulk data in the link model.  None = unsequenced (FIN).
    wire_seq: Optional[int] = None
    #: for ERR notifications: which frame kind timed out.  An ERR for a
    #: sequenced frame inherits its wire_seq (the receiver must consume the
    #: slot or the ordered stream stalls forever); an ERR for a FIN carries
    #: the rndv_id so the original sender's pending request can fail.
    failed_kind: Optional[WireKind] = None
    #: for RTS: the sender's request.  The receiver marks it committed when
    #: it starts the data fetch and drops the RTS if it was cancelled — the
    #: sender-side rendezvous state a real receiver reaches through the RTS.
    send_req: Any = None
