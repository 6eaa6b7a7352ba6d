"""Message-lifecycle flight records for device transfers.

Every device transfer in the paper's machine layer walks the same chain:
``LrtsSendDevice`` enqueue -> tag assignment -> host metadata send ->
metadata arrival -> ``LrtsRecvDevice`` posted -> UCP protocol selected
(eager / rendezvous) -> tag match -> transfer complete.  A flight
record captures that chain per message as a typed
:class:`FlightRecord` with simulated timestamps, so analyses can answer
"where did the latency of this transfer go?" message by message.

The headline derived quantity is the **delayed-posting cost**: the time
from data-ready-at-sender (the ``LrtsSendDevice`` call) until the
receiver posts its ``LrtsRecvDevice``.  For rendezvous transfers this
interval is exposed latency — the RTS sits in the unexpected queue and
no data moves until the receive is posted — and it is exactly the tax
the paper attributes to metadata-gated posting (host metadata must
arrive and be scheduled before the post can happen).  For eager
transfers the payload travels regardless of the post, so the cost is
defined as zero.

Nothing records flight state while the simulation runs.  With flight
recording on, ``Tracer.stage`` appends one plain tuple ``(time, op, tag,
dst, *attrs)`` to ``tracer.log`` for each stage whose table row
(:mod:`repro.obs.stages`) has a ``flight`` op; :func:`flight_records` folds
that log into records when asked, and :func:`aggregate` summarises them.
Simulated results are therefore bit-identical with recording on or off
(``tests/test_obs_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = ["FlightRecord", "aggregate", "flight_records", "posting_inversions"]


@dataclass
class FlightRecord:
    """Lifecycle of one tagged device transfer (times in simulated seconds;
    ``None`` marks a stage the message never reached)."""

    tag: int
    src_pe: int
    dst_pe: int
    size: int
    seq: int  # begin order in the stage log (deterministic)
    enqueued_at: float  # LrtsSendDevice call == data ready at sender
    metadata_sent_at: Optional[float] = None  # host metadata message enqueued
    metadata_arrived_at: Optional[float] = None  # metadata handler ran at receiver
    recv_posted_at: Optional[float] = None  # LrtsRecvDevice call
    ucx_send_at: Optional[float] = None  # ucp_tag_send_nb entered
    ucx_recv_posted_at: Optional[float] = None  # ucp_tag_recv_nb entered
    matched_at: Optional[float] = None
    matched_unexpected: Optional[bool] = None  # send beat the receive post
    send_completed_at: Optional[float] = None
    completed_at: Optional[float] = None  # data landed in the dest buffer
    protocol: Optional[str] = None  # "eager" | "rndv"
    lane: Optional[str] = None  # rendezvous transport lane
    # fault stage: retransmissions suffered, receive-side cancellations of
    # earlier posts, and the terminal error ("endpoint_timeout",
    # "truncated", "cancelled") when the transfer never completed
    retransmits: int = 0
    recv_cancels: int = 0
    error: Optional[str] = None
    failed_at: Optional[float] = None

    # -- derived -----------------------------------------------------------------
    @property
    def posted_at(self) -> Optional[float]:
        """When the receive was posted: the machine-layer post when the
        transfer went through ``LrtsRecvDevice``, else the raw UCP post
        (direct-UCX models like OpenMPI)."""
        if self.recv_posted_at is not None:
            return self.recv_posted_at
        return self.ucx_recv_posted_at

    @property
    def posting_delay(self) -> Optional[float]:
        """Signed data-ready-to-posted interval (negative when the receive
        was pre-posted, as OpenMPI's direct tag path allows)."""
        posted = self.posted_at
        if posted is None:
            return None
        return posted - self.enqueued_at

    @property
    def delayed_posting_cost(self) -> float:
        """Exposed latency attributable to late posting.  Zero for eager
        transfers (payload moves without a posted receive) and for
        pre-posted rendezvous; otherwise the data-ready-to-posted gap."""
        if self.protocol != "rndv":
            return 0.0
        delay = self.posting_delay
        if delay is None or delay <= 0.0:
            return 0.0
        return delay

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def to_dict(self) -> Dict:
        """JSON-ready dict (timestamps in seconds, derived fields included)."""
        return {
            "tag": self.tag,
            "src_pe": self.src_pe,
            "dst_pe": self.dst_pe,
            "size": self.size,
            "seq": self.seq,
            "protocol": self.protocol,
            "lane": self.lane,
            "enqueued_at": self.enqueued_at,
            "metadata_sent_at": self.metadata_sent_at,
            "metadata_arrived_at": self.metadata_arrived_at,
            "recv_posted_at": self.recv_posted_at,
            "ucx_send_at": self.ucx_send_at,
            "ucx_recv_posted_at": self.ucx_recv_posted_at,
            "matched_at": self.matched_at,
            "matched_unexpected": self.matched_unexpected,
            "send_completed_at": self.send_completed_at,
            "completed_at": self.completed_at,
            "posting_delay": self.posting_delay,
            "delayed_posting_cost": self.delayed_posting_cost,
            "complete": self.complete,
            "retransmits": self.retransmits,
            "recv_cancels": self.recv_cancels,
            "error": self.error,
            "failed_at": self.failed_at,
        }


def flight_records(log: Iterable[tuple]) -> List[FlightRecord]:
    """Fold a stage log (``tracer.log``) into records, in begin order.

    Tags are unique per in-flight device message on the machine-layer path
    (per-PE counters), but direct-UCX models reuse application tags across
    iterations and may keep several same-tag sends in flight — to one peer
    or, in an all-to-all, to every peer at once.  An open record is
    therefore identified by ``(tag, destination worker)``: the fold keeps a
    FIFO list of open records per tag and applies each stage to the oldest
    record for that destination still missing it — valid because UCP tag
    matching itself is FIFO per tag and pair.  A stage logged without
    ``dst`` (the machine layer's unique tags) falls back to FIFO per tag, as
    does ``recv_posted_at``, whose ``dst`` is the receiving PE.

    An entry is ``(time, op, tag, dst, *attrs)`` with ``attrs`` in the
    order the stage's site passes them.  ``op`` is the record field the
    stage stamps with its time, or one of ``begin`` (opens a record),
    ``ucx_send`` (opens one too when no open record awaits it: the send
    bypassed the machine layer), ``matched``, ``lane``, ``retransmit``,
    ``recv_cancel`` (rolls the posting stages back so a repost fills them
    afresh) and ``fail:<error>``.  ``completed_at`` and ``fail:*`` close the
    record so it cannot absorb the stages of the next same-tag transfer.
    """
    records: List[FlightRecord] = []
    open_by_tag: Dict[int, List[FlightRecord]] = {}

    def begin(now, tag, src_pe, dst_pe, size) -> FlightRecord:
        rec = FlightRecord(tag=tag, src_pe=src_pe, dst_pe=dst_pe, size=size,
                           seq=len(records), enqueued_at=now)
        records.append(rec)
        open_by_tag.setdefault(tag, []).append(rec)
        return rec

    def first_missing(tag, field, dst) -> Optional[FlightRecord]:
        for rec in open_by_tag.get(tag, ()):
            if getattr(rec, field) is None and (dst is None or rec.dst_pe == dst):
                return rec
        return None

    def close(rec: FlightRecord) -> None:
        open_recs = open_by_tag[rec.tag]
        open_recs.remove(rec)
        if not open_recs:
            del open_by_tag[rec.tag]

    for now, op, tag, dst, *attrs in log:
        if op == "begin":  # LrtsSendDevice: (src_pe, dst_pe, size, tag)
            src_pe, _dst_pe, size, _tag = attrs
            begin(now, tag, src_pe, dst, size)
        elif op == "ucx_send":  # (tag, size, protocol, src worker)
            _tag, size, protocol, src = attrs
            rec = first_missing(tag, "ucx_send_at", dst)
            if rec is None and src is not None:
                rec = begin(now, tag, src, dst, size)
            if rec is not None:
                rec.ucx_send_at = now
                rec.protocol = protocol
        elif op == "matched":  # (tag, scanned, unexpected, recv posted_at)
            _tag, _scanned, unexpected, posted_at = attrs
            rec = first_missing(tag, "matched_at", dst)
            if rec is not None:
                rec.matched_at = now
                rec.matched_unexpected = unexpected
                rec.ucx_recv_posted_at = posted_at
        elif op == "lane":  # rendezvous fetch: (size, tag, lane)
            rec = first_missing(tag, "lane", dst)
            if rec is not None:
                rec.lane = attrs[2]
        elif op == "retransmit":
            rec = first_missing(tag, "completed_at", dst)
            if rec is not None:
                rec.retransmits += 1
        elif op == "recv_cancel":
            for rec in open_by_tag.get(tag, ()):
                if rec.matched_at is None and (dst is None or rec.dst_pe == dst) and (
                    rec.recv_posted_at is not None or rec.ucx_recv_posted_at is not None
                ):
                    rec.recv_posted_at = None
                    rec.ucx_recv_posted_at = None
                    rec.recv_cancels += 1
                    break
        elif op.startswith("fail:"):
            rec = first_missing(tag, "failed_at", dst)
            if rec is not None:
                rec.error = op[5:]
                rec.failed_at = now
                close(rec)
        else:
            rec = first_missing(tag, op, None if op == "recv_posted_at" else dst)
            if rec is not None:
                setattr(rec, op, now)
                if op == "completed_at":
                    close(rec)
    return records


def aggregate(records: List[FlightRecord]) -> Dict:
    """JSON-ready summary: per-protocol counts/bytes/delayed-posting
    totals plus posting-order inversions (receives posted out of the
    senders' enqueue order for the same (src, dst) pair — each one is
    a message some later message's receive overtook)."""
    by_proto = {
        p: {
            "n": 0,
            "bytes": 0,
            "delayed_posting_seconds": 0.0,
            "max_delayed_posting_seconds": 0.0,
            "unexpected": 0,
        }
        for p in ("eager", "rndv")
    }
    other = 0
    total_cost = 0.0
    for rec in records:
        bucket = by_proto.get(rec.protocol)
        if bucket is None:
            other += 1
            continue
        cost = rec.delayed_posting_cost
        bucket["n"] += 1
        bucket["bytes"] += rec.size
        bucket["delayed_posting_seconds"] += cost
        if cost > bucket["max_delayed_posting_seconds"]:
            bucket["max_delayed_posting_seconds"] = cost
        if rec.matched_unexpected:
            bucket["unexpected"] += 1
        total_cost += cost
    return {
        "n_records": len(records),
        "n_complete": sum(1 for r in records if r.complete),
        "n_unclassified": other,
        "by_protocol": by_proto,
        "delayed_posting_seconds": total_cost,
        "posting_inversions": posting_inversions(records),
    }


def posting_inversions(records: List[FlightRecord]) -> int:
    """Count receives posted out of send order: within each
    (src, dst) pair, messages ordered by enqueue time whose receive was
    posted earlier than a predecessor's."""
    groups: Dict[tuple, List[FlightRecord]] = {}
    for rec in records:
        if rec.posted_at is None:
            continue
        groups.setdefault((rec.src_pe, rec.dst_pe), []).append(rec)
    inversions = 0
    for group in groups.values():
        group.sort(key=lambda r: (r.enqueued_at, r.seq))
        high = None
        for rec in group:
            posted = rec.posted_at
            if high is not None and posted < high:
                inversions += 1
            if high is None or posted > high:
                high = posted
    return inversions
