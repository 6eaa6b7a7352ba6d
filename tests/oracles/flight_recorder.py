"""The live flight recorder, kept as a test oracle.

Before flight records became a fold over the tracer's stage log
(``repro/obs/flight.py``), ``Tracer.stage`` drove this recorder while the
simulation ran: each flight row of the stage table named one of its methods
(or a lambda adapting the site's ``attrs`` to one), called as
``handler(recorder, tag, dst, *attrs)``.  :class:`FlightRecorder` is moved
here verbatim and :data:`HANDLERS` holds those table entries by stage name,
so ``tests/test_flight_fold.py`` can feed one stage sequence to both and
require the same records.  Like ``reference_engine`` it is never imported by
the runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.flight import FlightRecord


class FlightRecorder:
    """Collects :class:`FlightRecord` s for one simulated machine.

    Tags are unique per in-flight device message on the machine-layer path
    (per-PE counters), but direct-UCX models reuse application tags across
    iterations and may keep several same-tag sends in flight — to one peer
    or, in an all-to-all, to every peer at once.  An open record is
    therefore identified by ``(tag, destination worker)``: the recorder
    keeps a FIFO list of open records per tag and applies each stage update
    to the oldest record for that destination still missing the stage —
    valid because UCP tag matching itself is FIFO per tag and pair.  A stage
    reported without ``dst`` (the machine layer's unique tags; a recorder
    driven directly) falls back to FIFO per tag.
    """

    def __init__(self, sim, enabled: bool = False) -> None:
        self.sim = sim
        self.enabled = enabled
        self._open: Dict[int, List[FlightRecord]] = {}
        self._done: List[FlightRecord] = []
        self._next_seq = 0

    # -- record creation ----------------------------------------------------------
    def begin(self, tag: int, src_pe: int, dst_pe: int,
              size: int) -> Optional[FlightRecord]:
        """Open a record at ``sim.now`` (the ``LrtsSendDevice`` call)."""
        if not self.enabled:
            return None
        rec = FlightRecord(
            tag=tag, src_pe=src_pe, dst_pe=dst_pe, size=size,
            seq=self._next_seq, enqueued_at=self.sim.now,
        )
        self._next_seq += 1
        self._open.setdefault(tag, []).append(rec)
        return rec

    # -- stage updates ------------------------------------------------------------
    def _first_missing(self, tag: int, attr: str,
                       dst: Optional[int] = None) -> Optional[FlightRecord]:
        for rec in self._open.get(tag, ()):
            if getattr(rec, attr) is None and (dst is None or rec.dst_pe == dst):
                return rec
        return None

    def metadata_sent(self, tag: int, dst: Optional[int] = None) -> None:
        rec = self._first_missing(tag, "metadata_sent_at", dst)
        if rec is not None:
            rec.metadata_sent_at = self.sim.now

    def metadata_arrived(self, tag: int, dst: Optional[int] = None) -> None:
        rec = self._first_missing(tag, "metadata_arrived_at", dst)
        if rec is not None:
            rec.metadata_arrived_at = self.sim.now

    def recv_posted(self, tag: int) -> None:
        rec = self._first_missing(tag, "recv_posted_at")
        if rec is not None:
            rec.recv_posted_at = self.sim.now

    def ucx_send(self, tag: int, protocol: str, dst: Optional[int] = None,
                 src: Optional[int] = None, size: int = 0) -> None:
        """``ucp_tag_send_nb`` entered.  A send with no open record still
        waiting for this stage bypassed the machine layer (OpenMPI calls UCP
        directly): given its ``src``, its record is opened here."""
        rec = self._first_missing(tag, "ucx_send_at", dst)
        if rec is None and src is not None:
            rec = self.begin(tag, src, dst, size)
        if rec is not None:
            rec.ucx_send_at = self.sim.now
            rec.protocol = protocol

    def matched(self, tag: int, posted_at: float, unexpected: bool,
                dst: Optional[int] = None) -> None:
        """Record the tag match; ``posted_at`` is the original
        ``ucp_tag_recv_nb`` time of the matching request (which, for
        pre-posted receives, predates the match)."""
        rec = self._first_missing(tag, "matched_at", dst)
        if rec is not None:
            rec.matched_at = self.sim.now
            rec.matched_unexpected = unexpected
            rec.ucx_recv_posted_at = posted_at

    def lane(self, tag: int, lane: str, dst: Optional[int] = None) -> None:
        rec = self._first_missing(tag, "lane", dst)
        if rec is not None:
            rec.lane = lane

    def send_completed(self, tag: int, dst: Optional[int] = None) -> None:
        rec = self._first_missing(tag, "send_completed_at", dst)
        if rec is not None:
            rec.send_completed_at = self.sim.now

    def completed(self, tag: int, dst: Optional[int] = None) -> None:
        """Data landed in the destination buffer; finalize the record."""
        rec = self._first_missing(tag, "completed_at", dst)
        if rec is None:
            return
        rec.completed_at = self.sim.now
        self._close(rec)

    def _close(self, rec: FlightRecord) -> None:
        lst = self._open[rec.tag]
        lst.remove(rec)
        if not lst:
            del self._open[rec.tag]
        self._done.append(rec)

    # -- fault stage --------------------------------------------------------------
    def retransmitted(self, tag: int, dst: Optional[int] = None) -> None:
        """One frame of this transfer was faulted and rescheduled."""
        rec = self._first_missing(tag, "completed_at", dst)
        if rec is not None:
            rec.retransmits += 1

    def failed(self, tag: int, error: str, dst: Optional[int] = None) -> None:
        """The transfer terminally failed (timeout, truncation, or send
        cancellation): record why and close the record so it cannot absorb
        the stages of the next same-tag transfer."""
        rec = self._first_missing(tag, "failed_at", dst)
        if rec is None:
            return
        rec.error = error
        rec.failed_at = self.sim.now
        self._close(rec)

    def cancelled(self, tag: int, dst: Optional[int] = None) -> None:
        """The sender cancelled the transfer before the payload shipped."""
        self.failed(tag, "cancelled", dst)

    def recv_cancelled(self, tag: int, dst: Optional[int] = None) -> None:
        """A posted receive for ``tag`` was cancelled before matching: roll
        the record's posting stages back so a repost fills them afresh (the
        transfer itself is still in flight from the sender's side)."""
        for rec in self._open.get(tag, ()):
            if rec.matched_at is None and (dst is None or rec.dst_pe == dst) and (
                rec.recv_posted_at is not None or rec.ucx_recv_posted_at is not None
            ):
                rec.recv_posted_at = None
                rec.ucx_recv_posted_at = None
                rec.recv_cancels += 1
                return

    # -- queries ------------------------------------------------------------------
    def records(self) -> List[FlightRecord]:
        """All records (completed and still-open), in begin order."""
        out = list(self._done)
        for lst in self._open.values():
            out.extend(lst)
        out.sort(key=lambda r: r.seq)
        return out

    def aggregate(self) -> Dict:
        """JSON-ready summary: per-protocol counts/bytes/delayed-posting
        totals plus posting-order inversions (receives posted out of the
        senders' enqueue order for the same (src, dst) pair — each one is
        a message some later message's receive overtook)."""
        recs = self.records()
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
        for rec in recs:
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
            "n_records": len(recs),
            "n_complete": sum(1 for r in recs if r.complete),
            "n_unclassified": other,
            "by_protocol": by_proto,
            "delayed_posting_seconds": total_cost,
            "posting_inversions": self.posting_inversions(recs),
        }

    @staticmethod
    def posting_inversions(recs: List[FlightRecord]) -> int:
        """Count receives posted out of send order: within each
        (src, dst) pair, messages ordered by enqueue time whose receive was
        posted earlier than a predecessor's."""
        groups: Dict[tuple, List[FlightRecord]] = {}
        for rec in recs:
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

    def reset(self) -> None:
        self._open.clear()
        self._done.clear()
        self._next_seq = 0


#: The ``flight`` entries of the stage table, by stage name: what
#: ``Tracer.stage`` called as ``handler(recorder, tag, dst, *attrs)`` while
#: flight recording was on.  ``TAG_SEND`` sites passed the send's buffer as
#: the last value.
HANDLERS = {
    "METADATA_SENT": FlightRecorder.metadata_sent,
    "METADATA_ARRIVED": FlightRecorder.metadata_arrived,
    "LRTS_SEND_DEVICE": lambda fr, tag, dst, src_pe, _dst_pe, size, _tag:
        fr.begin(tag, src_pe, dst, size),
    "LRTS_RECV_DEVICE": lambda fr, tag, dst, *_: fr.recv_posted(tag),
    "TAG_SEND": lambda fr, tag, dst, _tag, size, proto, src, buf:
        buf.on_device and fr.ucx_send(tag, proto, dst, src, size),
    "MATCH_EXPECTED": lambda fr, tag, dst, _tag, _scanned, unexpected, posted_at:
        fr.matched(tag, posted_at, unexpected, dst),
    "MATCH_UNEXPECTED": lambda fr, tag, dst, _tag, _scanned, unexpected, posted_at:
        fr.matched(tag, posted_at, unexpected, dst),
    "CANCEL_SEND": FlightRecorder.cancelled,
    "CANCEL_RECV": FlightRecorder.recv_cancelled,
    "RNDV_FETCH": lambda fr, tag, dst, _size, _tag, lane: fr.lane(tag, lane, dst),
    "SEND_COMPLETED": FlightRecorder.send_completed,
    "DATA_LANDED": FlightRecorder.completed,
    "RETRANSMIT": FlightRecorder.retransmitted,
    "TRUNCATED": lambda fr, tag, dst: fr.failed(tag, "truncated", dst),
    "TIMED_OUT": lambda fr, tag, dst: fr.failed(tag, "endpoint_timeout", dst),
}
