"""UCP workers: tag matching and message dispatch.

One worker per process/PE (the paper's non-SMP configuration).  The worker
owns the two matching queues of the UCP tagged API:

* **posted receives** — entries from ``tag_recv_nb`` not yet matched;
* **unexpected messages** — arrived eager payloads and rendezvous RTS
  descriptors with no matching posted receive yet.

Matching is FIFO with wildcard masks: an incoming tag ``t`` matches a posted
entry ``(tag, mask)`` iff ``t & mask == tag & mask``.  This ordering
guarantee is what the Charm++ machine layer's per-(PE, counter) device tags
rely on for correctness.

Both queues are :class:`~repro.core.matchq.IndexedMatchQueue` instances
(hash buckets on the full tag, wildcard-mask fallback list), so the
host-side lookup is O(1) amortised for full-mask traffic while the *modeled*
``tag_match_cost * scanned`` delay still charges the virtual linear-scan
length.

Frames
------

Two message streams run over :mod:`repro.ucx.transport`, which sequences,
faults, retransmits and de-duplicates their frames identically: the tagged
stream (this module with ``protocols/eager.py`` and ``rndv.py``) and the AM
host-message stream (``protocols/am.py``).  What stays here is what arriving
tagged frames *mean* (``_on_wire``) and what giving up on one does
(``_give_up``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

from repro.hardware.memory import Buffer
from repro.obs.stages import (
    AM_SEND,
    ARRIVE,
    CANCEL_RECV,
    CANCEL_SEND,
    MATCH_EXPECTED,
    MATCH_UNEXPECTED,
    TAG_RECV,
    TAG_SEND,
    TAG_WIRE,
    TIMED_OUT,
)
from repro.ucx import transport
from repro.ucx.constants import TAG_MASK_FULL, WIRE_HEADER_BYTES
from repro.ucx.endpoint import UcpEndpoint
from repro.ucx.protocols import am as am_proto
from repro.ucx.protocols import eager as eager_proto
from repro.ucx.protocols import rndv as rndv_proto
from repro.ucx.protocols.select import Protocol, choose_send_protocol
from repro.ucx.request import (
    AmSendRequest, RequestKind, RndvSendRequest, UcxRequest,
)
from repro.ucx.status import UcsStatus, UcxError
from repro.ucx.wire import WireKind, WireMessage


@dataclass(slots=True)
class PostedRecv:
    """One entry of the posted-receive (expected) queue."""

    tag: int
    mask: int
    buf: Buffer
    size: int
    req: UcxRequest
    posted_at: float  # when ``ucp_tag_recv_nb`` posted it

    def matches(self, incoming_tag: int) -> bool:
        return (incoming_tag & self.mask) == (self.tag & self.mask)


class UcpWorker:
    """One communication endpoint owner; see module docstring."""

    def __init__(self, ctx, worker_id: int, node: int, socket: int = 0) -> None:
        self.ctx = ctx
        self.sim = ctx.sim
        self.worker_id = worker_id
        self.node = node
        self.socket = socket
        machine = ctx.machine
        tracer = machine.tracer
        self.posted = tracer.match_queue("matchq.ucx.posted")
        self.unexpected = tracer.match_queue("matchq.ucx.unexpected")
        self._endpoints: Dict[int, UcpEndpoint] = {}
        # the two frame streams, sequenced independently, and where each
        # enters the fabric (repro.ucx.transport says why these differ)
        self.tag_loc = machine.host_location(node)
        self.am_loc = machine.host_location(node, socket)
        self.tag_stream = transport.SequencedStream(tracer, self._process_in_order)
        self.am_stream = transport.SequencedStream(
            tracer, partial(am_proto.release, self))
        self._am_handler = None
        self._am_error_handler = None
        # per-source time of the latest scheduled AM handler invocation
        self._am_last_deliver: Dict[int, float] = {}
        # Rendezvous sends awaiting their FIN (per-rendezvous state is on
        # the request: UcxRequest.rndv_*), and the highest id issued here:
        # ids only grow, so a FIN for a non-pending id up to it is a late or
        # duplicate one (the rendezvous ended: FIN seen, gave up, cancelled).
        self.pending_rndv_sends: Dict[int, UcxRequest] = {}
        self._rndv_high = 0
        # Composite per-operation cost constants, each summed exactly once
        # here.  Float addition is not associative, so semantically-equal
        # delays derived at different call sites must come from these shared
        # sums rather than re-adding the config fields locally (the engine's
        # tie-break rule; see the repro.sim.engine docstring) — and the hot
        # path saves the re-derivation.
        cfg = ctx.cfg
        self._send_post_cost = cfg.send_overhead + cfg.request_alloc_cost
        self._recv_post_cost = cfg.recv_overhead + cfg.request_alloc_cost
        self._rts_post_cost = (
            cfg.send_overhead + cfg.request_alloc_cost + cfg.rndv_rts_cost
        )
        # total virtual scan length over all matches (what a linear scan
        # would have inspected); the modeled matching delay is proportional
        self.tag_scans = 0

    # -- endpoints ------------------------------------------------------------
    def ep(self, remote_id: int) -> UcpEndpoint:
        """Get (and cache) the endpoint to ``remote_id``.

        With a connection limit configured (``UcxConfig.max_endpoints``) the
        cache is LRU: opening an endpoint past the limit closes the
        least-recently-used one first — dropping the peer mappings
        established through it, so reconnecting later pays setup and
        mapping again (production connection-count pressure)."""
        ep = self._endpoints.get(remote_id)
        if ep is not None:
            if self.ctx.ep_limit is not None:
                # dict preserves insertion order: re-insert to mark recency
                del self._endpoints[remote_id]
                self._endpoints[remote_id] = ep
            return ep
        limit = self.ctx.ep_limit
        if limit is not None and len(self._endpoints) >= limit:
            self._evict_lru_endpoint()
        ep = UcpEndpoint(self, self.ctx.worker(remote_id))
        self._endpoints[remote_id] = ep
        self._ep_table_resized(+1)
        return ep

    def _ep_table_resized(self, delta: int) -> None:
        self.ctx.ep_total += delta
        self.ctx.machine.tracer.gauge("ucx.ep_table", self.ctx.ep_total, "endpoints")

    def _evict_lru_endpoint(self) -> None:
        victim_id = next(iter(self._endpoints))
        del self._endpoints[victim_id]
        self.ctx.machine.tracer.count("ucx", "ep_evicted")
        self._ep_table_resized(-1)
        if self.ctx.mapping_enabled:
            self.ctx.drop_pair_mappings(self.worker_id, victim_id)

    # -- public API -------------------------------------------------------------
    def tag_send_nb(
        self,
        ep: UcpEndpoint,
        buf: Buffer,
        size: int,
        tag: int,
        cb=None,
    ) -> UcxRequest:
        """``ucp_tag_send_nb``: non-blocking tagged send."""
        if ep.local is not self:
            raise UcxError("endpoint does not belong to this worker")
        if size > buf.size:
            raise UcxError(f"send size {size} exceeds buffer size {buf.size}")
        proto = choose_send_protocol(self.ctx.cfg, buf, size)
        req = (UcxRequest if proto is Protocol.EAGER else RndvSendRequest)(
            self.sim, RequestKind.SEND, tag, size, cb)
        tracer = self.ctx.machine.tracer
        # only a device send has a flight record: a host send passes no tag;
        # an enum's ``_value_`` is its plain field (``.value`` is a call)
        sp = tracer.stage(
            TAG_SEND, tag if buf.on_device else None, ep.remote.worker_id,
            self._send_post_cost, (tag, size, proto._value_, self.worker_id),
        )
        if sp:
            req.span = tracer.handle(sp)
        # lazy wireup: the endpoint's first message pays connection setup
        # (0.0 when the lifecycle model is off — adding it then is exact)
        pre = ep.mark_established() if self.ctx.ep_lifecycle_enabled else 0.0
        # matching order follows the tag_send_nb call order, whatever the
        # protocols' differing pre-send delays do to physical arrival order
        seq = self.tag_stream.next_seq(ep.remote.worker_id)
        start_send = (eager_proto if proto is Protocol.EAGER else rndv_proto).start_send
        with tracer.under(sp):
            start_send(self, ep.remote, buf, size, tag, req, seq, pre)
        return req

    def tag_recv_nb(
        self,
        buf: Buffer,
        size: int,
        tag: int,
        mask: int = TAG_MASK_FULL,
        cb=None,
    ) -> UcxRequest:
        """``ucp_tag_recv_nb``: post a tagged receive.

        Scans the unexpected queue first (FIFO); on a hit the protocol
        completion runs with the accumulated matching cost as its delay.
        """
        if size > buf.size:
            raise UcxError(f"recv size {size} exceeds buffer size {buf.size}")
        req = UcxRequest(self.sim, RequestKind.RECV, tag, size, cb)
        posted = PostedRecv(tag, mask, buf, size, req, self.sim.now)
        tracer = self.ctx.machine.tracer
        sp = tracer.stage(TAG_RECV, cost=self._recv_post_cost, attrs=(tag, size))
        if sp:
            req.span = tracer.handle(sp)

        # unexpected messages carry concrete tags (their queue key); a
        # full-mask receive is an exact lookup (and is itself bucketed under
        # its tag when posted), a masked one falls back to the FIFO scan.
        lookup = (tag & TAG_MASK_FULL) if mask == TAG_MASK_FULL else None
        msg, scanned = self.unexpected.match(
            lookup, lambda m: (m.tag & mask) == (tag & mask)
        )
        if msg is not None:
            self._matched(msg, posted, self._recv_post_cost, scanned, True)
            return req

        self.posted.append(posted, key=lookup)
        return req

    def cancel(self, req: UcxRequest) -> bool:
        """``ucp_request_cancel``.

        * A posted **receive** is cancellable until it matches.
        * An **eager send** is cancellable until its payload has been staged
          onto the wire (the copy-in window).
        * A **rendezvous send** is cancellable until the receiver commits to
          the data fetch: while the RTS is in flight or sitting unmatched in
          the peer's unexpected queue, cancellation retracts it.

        A successful cancel completes the request with ``ERR_CANCELED``
        (which closes its tracing span) and cleans up the flight record so a
        reposted same-tag operation does not inherit the cancelled one's
        stages.  Returns ``True`` iff the request was cancelled.
        """
        if req.completed:
            return False
        recv = req.kind is RequestKind.RECV
        if recv:
            if self.posted.remove_first(lambda p: p.req is req) is None:
                return False
        elif req.op == "am":
            return False  # AM sends are not cancellable (no UCP handle)
        elif req.rndv_id:
            if req.rndv_committed:
                return False  # receiver is already fetching the data
            del self.pending_rndv_sends[req.rndv_id]
            # retract the RTS if it sits unmatched at the peer; one still in
            # flight consumes its wire_seq slot at the receiver, which drops
            # it on seeing the cancelled request (see _process_in_order), so
            # the ordered stream keeps flowing
            self.ctx.worker(req.rndv_remote).unexpected.remove_first(
                lambda m: m.send_req is req
            )
        # else: an eager send still staging its payload; its copy-in step
        # sees the completed request and emits a slot-consuming ERR frame
        # instead of the payload
        # the transfer's destination, where known (not for an eager send)
        dst = self.worker_id if recv else req.rndv_remote if req.rndv_id else None
        self.ctx.machine.tracer.stage(
            CANCEL_RECV if recv else CANCEL_SEND, req.tag, dst)
        req.complete(UcsStatus.ERR_CANCELED)
        return True

    # -- active-message host path (cost model: protocols/am.py) ------------------
    def set_am_handler(self, handler) -> None:
        """Install the callable invoked as ``handler(payload, size, src_id)``
        when an AM host message is delivered to this worker."""
        self._am_handler = handler

    def set_am_error_handler(self, handler) -> None:
        """Install the callable invoked as ``handler(size, src_id)`` when an
        AM host message from ``src_id`` is detected as lost (its sender
        exhausted the retransmit budget).  Without one, a loss raises."""
        self._am_error_handler = handler

    def am_send(self, ep: UcpEndpoint, size: int, payload=None) -> UcxRequest:
        """Send a host message of ``size`` bytes carrying ``payload`` (any
        Python object; not copied) to ``ep.remote``'s AM handler."""
        if ep.local is not self:
            raise UcxError("endpoint does not belong to this worker")
        req = AmSendRequest(self.sim, RequestKind.SEND, 0, size, None)
        tracer = self.ctx.machine.tracer
        sp = tracer.stage(
            AM_SEND, cost=self._send_post_cost,
            attrs=(size, size >= self.ctx.cfg.host_rndv_threshold),
        )
        if sp:
            req.span = tracer.handle(sp)
        seq = self.am_stream.next_seq(ep.remote.worker_id)
        # first traffic through the endpoint pays lazy connection setup
        pre = ep.mark_established() if self.ctx.ep_lifecycle_enabled else 0.0
        am_proto.start_send(self, ep.remote, size, payload, req, seq, pre)
        return req

    # -- the tagged stream ----------------------------------------------------------
    def transmit(
        self,
        remote: "UcpWorker",
        msg: WireMessage,
        wire_bytes: Optional[int] = None,
    ) -> None:
        """Push ``msg`` onto the tagged stream towards ``remote``.

        Control and eager messages travel host-to-host (device payloads were
        staged by the eager protocol before transmit).  ERR notifications
        are exempt from fault injection: they model the symmetric timeout,
        not a frame.  Only EAGER/RTS frames belong to a flight record.
        """
        nbytes = (wire_bytes if wire_bytes is not None else msg.size) + WIRE_HEADER_BYTES
        kind = msg.kind
        spans = None
        if self.ctx.machine.tracer.enabled:
            # two attribute dicts per frame: only worth building when traced
            retry_attrs = {"kind": kind.name, "tag": msg.tag}
            spans = (TAG_WIRE, dict(retry_attrs, bytes=nbytes), retry_attrs)
        transport.send(self, remote, (  # _value_: the enum's plain field
            nbytes, None if kind is WireKind.ERR else kind._value_,
            self.tag_loc, remote.tag_loc, spans,
            msg.tag if kind is WireKind.EAGER or kind is WireKind.RTS else None,
            UcpWorker._on_wire, (remote, msg), self._give_up,
        ))

    def _give_up(self, remote: "UcpWorker", msg: WireMessage) -> None:
        """A tagged-stream frame exhausted its retransmit budget: fail the
        pending request (if any) and notify the peer with an ERR frame.

        The ERR models the peer's own timeout firing for the same frame —
        the failure detector is symmetric — so it travels out-of-band (zero
        delay, never itself faulted).  It inherits the lost frame's
        ``wire_seq``: the ordered stream *must* consume every slot or it
        stalls behind the loss forever."""
        if msg.kind is not WireKind.FIN:
            # (a lost FIN's destination is the original rendezvous sender:
            # the ERR below lets it fail its still-pending send)
            self.ctx.machine.tracer.note(TIMED_OUT, msg.tag, remote.worker_id)
            if msg.kind is WireKind.RTS:
                self._fail_rndv_send(msg.rndv_id)
        err = WireMessage(
            kind=WireKind.ERR, tag=msg.tag, size=msg.size,
            src_worker=self.worker_id, rndv_id=msg.rndv_id,
            wire_seq=msg.wire_seq, failed_kind=msg.kind,
        )
        self.sim.call_later(0.0, remote._on_wire, err)

    def _fail_rndv_send(self, rndv_id: int) -> None:
        """The rendezvous will never complete (its RTS or FIN was lost)."""
        req = self.pending_rndv_sends.pop(rndv_id, None)
        if req is not None and not req.completed:
            req.complete(UcsStatus.ERR_ENDPOINT_TIMEOUT)

    def _on_wire(self, msg: WireMessage) -> None:
        """A tagged frame arrived (called at its simulated arrival instant)."""
        self.ctx.machine.tracer.stage(ARRIVE, cost=self.ctx.cfg.progress_overhead)
        kind = msg.kind
        if kind is WireKind.FIN:
            rndv_proto.finish_send(self, msg)
        elif kind is WireKind.ERR and msg.failed_kind is WireKind.FIN:
            # a FIN addressed to us was lost: our rendezvous send will never
            # see its completion notification
            self._fail_rndv_send(msg.rndv_id)
        else:
            # matchable frames (and the ERR frames standing in for them)
            # are processed in per-pair send order
            self.tag_stream.offer(msg.src_worker, msg.wire_seq, msg)

    def _process_in_order(self, src: int, msg: WireMessage) -> None:
        kind = msg.kind
        if kind is WireKind.ERR and msg.failed_kind is None:
            # slot consumer for a cancelled eager send: the sequence
            # advances but there is nothing to match
            self.ctx.machine.tracer.count("ucx", "cancelled_frame_slot")
            return
        if kind is WireKind.RTS and msg.send_req.status is UcsStatus.ERR_CANCELED:
            # the sender cancelled while the RTS was in flight: consume the
            # sequence slot but never match the descriptor.  (Only a cancel
            # does this.  A send that gave up may still have a stalled RTS
            # copy released here, when that copy was held before the give-up
            # ERR came for the same slot; it is matched and the data fetched,
            # and the sender ignores the FIN as late.)
            self.ctx.machine.tracer.count("ucx", "cancelled_rts_dropped")
            return
        # posted receives with a full mask are bucketed under their tag;
        # masked receives live in the wildcard fallback and are checked via
        # the predicate — FIFO order across both is preserved by slot order.
        posted, scanned = self.posted.match(
            msg.tag & TAG_MASK_FULL, lambda p: p.matches(msg.tag)
        )
        if posted is not None:
            self._matched(msg, posted, self.ctx.cfg.progress_overhead, scanned, False)
        else:
            self.unexpected.append(msg, key=msg.tag & TAG_MASK_FULL)

    def _matched(
        self, msg: WireMessage, posted: PostedRecv, base: float, scanned: int,
        unexpected: bool,
    ) -> None:
        """Account one tag match (``scanned`` is the virtual linear-scan
        length it is charged for) and hand the pair to its protocol."""
        cost = self.ctx.cfg.tag_match_cost * scanned
        self.tag_scans += scanned
        tracer = self.ctx.machine.tracer
        sp = tracer.stage(
            MATCH_UNEXPECTED if unexpected else MATCH_EXPECTED,
            msg.tag, self.worker_id, cost,
            (msg.tag, scanned, unexpected, posted.posted_at),
        )
        if sp:
            tracer.end(sp, self.sim.now + cost)
        delay = base + cost
        kind = msg.kind
        if kind is WireKind.EAGER:
            eager_proto.finish_recv(self, msg, posted, delay)
        elif kind is WireKind.RTS:
            rndv_proto.start_transfer(self, msg, posted, delay)
        elif kind is WireKind.ERR:
            # the peer exhausted its retransmit budget for the frame this
            # receive would have consumed
            self.sim.call_later(
                delay, posted.req.complete,
                UcsStatus.ERR_ENDPOINT_TIMEOUT, (msg.tag, msg.size),
            )
        else:  # pragma: no cover - defensive
            raise UcxError(f"unmatchable wire kind {msg.kind}")
