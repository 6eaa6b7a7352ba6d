"""AMPI message matching: the two scenarios of the paper's §III-C2.

If the host-side envelope arrives before the receive is posted, it waits in
the **unexpected queue**; if the receive comes first, it waits in the
**request queue**.  Matching is MPI-semantics FIFO on ``(comm, source,
tag)`` with ``ANY_SOURCE``/``ANY_TAG`` wildcards.

Both queues are indexed by the full ``(comm, src, tag)`` triple
(:class:`~repro.core.matchq.IndexedMatchQueue`): wildcard-free receives and
all envelopes are exact-bucket entries, receives using ``ANY_SOURCE`` or
``ANY_TAG`` fall back to the FIFO wildcard list.  Matched entries are
removed by queue *slot* (identity), never by value equality — ``list.remove``
on dataclass entries compares every field and can both delete the wrong
(equal-but-distinct) entry and crash outright when a field (e.g. a NumPy
``value`` payload) has a non-boolean ``__eq__``.  The reported ``scanned``
count remains the virtual linear-scan length, so the modeled
``ampi_match_cost`` charge is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.device_buffer import CkDeviceBuffer
from repro.core.matchq import IndexedMatchQueue
from repro.hardware.memory import Buffer
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.sim.primitives import SimEvent


@dataclass(slots=True)
class AmpiEnvelope:
    """Host-side metadata of one AMPI message (rides in a Converse message)."""

    src: int
    dst: int
    tag: int
    comm: int
    size: int  # payload bytes
    payload: Optional[Buffer] = None  # inline (eager) host payload copy
    src_host_buf: Optional[Buffer] = None  # zero-copy rendezvous host source
    dev_meta: Optional[CkDeviceBuffer] = None  # GPU transfer metadata
    host_send_id: int = 0  # routes the rendezvous FIN back to the sender
    seq: int = 0  # per (src,dst,comm) sequence, diagnostics only
    value: object = None  # value-based payload (collectives internals)


@dataclass(slots=True)
class PostedMpiRecv:
    """One entry of the request queue."""

    src: int  # ANY_SOURCE allowed
    tag: int  # ANY_TAG allowed
    comm: int
    buf: Buffer
    capacity: int  # bytes the caller allows
    event: SimEvent
    # observability: the tracing span covering this receive, if any
    span: Optional[object] = None

    def matches(self, env: AmpiEnvelope) -> bool:
        return (
            env.comm == self.comm
            and (self.src == ANY_SOURCE or self.src == env.src)
            and (self.tag == ANY_TAG or self.tag == env.tag)
        )


def _recv_key(req: PostedMpiRecv):
    """Bucket key of a posted receive; ``None`` routes wildcard receives to
    the FIFO fallback list."""
    if req.src == ANY_SOURCE or req.tag == ANY_TAG:
        return None
    return (req.comm, req.src, req.tag)


class MatchEngine:
    """Per-rank unexpected + posted queues (see module docstring)."""

    def __init__(self, unexpected: Optional[IndexedMatchQueue] = None,
                 posted: Optional[IndexedMatchQueue] = None) -> None:
        self.unexpected = IndexedMatchQueue() if unexpected is None else unexpected
        self.posted = IndexedMatchQueue() if posted is None else posted

    def match_envelope(self, env: AmpiEnvelope) -> tuple[Optional[PostedMpiRecv], int]:
        """Envelope arrived: return (matching posted recv or None, #scanned)."""
        req, scanned = self.posted.match(
            (env.comm, env.src, env.tag), lambda r: r.matches(env)
        )
        if req is None:
            self.unexpected.append(env, key=(env.comm, env.src, env.tag))
        return req, scanned

    def match_recv(self, req: PostedMpiRecv) -> tuple[Optional[AmpiEnvelope], int]:
        """Receive posted: return (matching unexpected envelope or None, #scanned)."""
        env, scanned = self.unexpected.match(_recv_key(req), req.matches)
        if env is None:
            self.posted.append(req, key=_recv_key(req))
        return env, scanned
