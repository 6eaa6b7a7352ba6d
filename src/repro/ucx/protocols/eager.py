"""Eager protocol: payload travels with the message through bounce buffers.

Sender side: copy the payload into a host bounce buffer (memcpy for host
memory, GDRCopy for device memory), push it onto the wire, and complete the
send request immediately after the copy-in (the source buffer is reusable).

Receiver side: on match, copy out of the bounce into the destination buffer
(again memcpy or GDRCopy by memory type) and complete the receive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.memory import Buffer
from repro.obs.stages import DATA_LANDED, EAGER_RECV, EAGER_SEND, SEND_COMPLETED
from repro.ucx.constants import CTRL_MSG_BYTES
from repro.ucx.protocols.common import fail_truncated, staging_copy_time
from repro.ucx.request import UcxRequest
from repro.ucx.status import UcsStatus
from repro.ucx.wire import WireKind, WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.ucx.worker import PostedRecv, UcpWorker


def start_send(
    worker: "UcpWorker",
    remote: "UcpWorker",
    buf: Buffer,
    size: int,
    tag: int,
    req: UcxRequest,
    wire_seq: int,
    pre_cost: float = 0.0,
) -> None:
    """Begin an eager send from ``worker`` to ``remote``.

    ``pre_cost`` carries one-time endpoint-setup work (0.0 when the
    lifecycle model is off; adding an exact zero leaves delays bit-equal).
    """
    ctx = worker.ctx
    copy_in = staging_copy_time(ctx, buf, size)
    # The bounce travels with the message; by delivery time it logically
    # lives in the receiver's host memory.
    bounce = ctx.machine.alloc_host(remote.node, max(size, 1))
    if ctx.mapping_enabled and buf.on_device:
        # device eager stages through the GDRCopy BAR1 window: the window
        # registration is per (buffer base, peer) and cached like any
        # other mapping — first touch pays, reuse (pooled blocks) is free
        pre_cost += ctx.first_touch(buf, bounce, worker.worker_id, remote.worker_id)
    delay = worker._send_post_cost + copy_in + pre_cost
    tracer = ctx.machine.tracer
    sp = tracer.note(EAGER_SEND, attrs=(size, tag, buf.on_device))

    bounce.copy_from(buf, size)
    msg = WireMessage(
        kind=WireKind.EAGER,
        tag=tag,
        size=size,
        src_worker=worker.worker_id,
        bounce=bounce,
        src_was_device=buf.on_device,
        wire_seq=wire_seq,
    )

    worker.sim.call_later(delay, _copied, worker, remote, msg, req, sp)


def _copied(worker: "UcpWorker", remote: "UcpWorker", msg: WireMessage,
            req: UcxRequest, sp) -> None:
    """The payload is staged: complete the send and put it on the wire."""
    tracer = worker.ctx.machine.tracer
    tracer.end(sp)
    if req.status is not UcsStatus.INPROGRESS:
        # cancelled while staging: the payload never ships, but the
        # assigned wire_seq slot must still be consumed at the receiver
        # or the pair's ordered stream stalls behind it forever
        slot = WireMessage(
            kind=WireKind.ERR, tag=msg.tag, size=0,
            src_worker=worker.worker_id, wire_seq=msg.wire_seq, failed_kind=None,
        )
        worker.transmit(remote, slot, CTRL_MSG_BYTES)
        return
    tracer.note(SEND_COMPLETED, msg.tag, remote.worker_id)
    req.complete(UcsStatus.OK)
    worker.transmit(remote, msg)


def finish_recv(
    worker: "UcpWorker",
    msg: WireMessage,
    posted: "PostedRecv",
    pre_delay: float,
) -> None:
    """Complete a matched eager receive: copy out of the bounce, finish."""
    ctx = worker.ctx
    if msg.size > posted.size:
        worker.sim.call_later(pre_delay, fail_truncated, worker, msg, posted)
        return
    copy_out = staging_copy_time(ctx, posted.buf, msg.size)
    tracer = ctx.machine.tracer
    sp = tracer.note(
        EAGER_RECV, attrs=(msg.size, msg.tag, posted.buf.on_device),
        parent=posted.req.span,
    )

    worker.sim.call_later(pre_delay + copy_out, _done, worker, msg, posted, sp)


def _done(worker: "UcpWorker", msg: WireMessage, posted: "PostedRecv", sp) -> None:
    posted.buf.copy_from(msg.bounce, msg.size)
    tracer = worker.ctx.machine.tracer
    tracer.end(sp)
    tracer.note(DATA_LANDED, msg.tag, worker.worker_id)
    posted.req.complete(UcsStatus.OK, (msg.tag, msg.size))
