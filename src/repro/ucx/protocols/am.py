"""Active-message host path: the cost model of ``UcpWorker.am_send``.

The Charm++ UCX machine layer moves ordinary host messages over UCP with
preposted wildcard buffers.  Rather than fabricate those buffers, the model
provides an AM-style path with the *same cost structure* as the tagged
protocols (eager copy-in/wire/copy-out below the host rendezvous threshold;
RTS + single-copy fetch at or above it) that delivers to a worker-level
handler installed by the machine layer.

Both protocols share the worker's AM stream, so delivery follows send order
even across the eager/rendezvous boundary (a small message sent after a
large one must not overtake its fetch).  A stream slot holds
``("msg", nbytes, payload, extra_rx)`` (ready to deliver),
``transport.PENDING`` (rendezvous fetch in progress) or ``("lost", nbytes)``
(the sender gave up on the message).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.links import path_transfer
from repro.obs.stages import AM_FETCH, AM_WIRE
from repro.ucx import transport
from repro.ucx.constants import CTRL_MSG_BYTES, WIRE_HEADER_BYTES
from repro.ucx.protocols.common import host_copy_time
from repro.ucx.request import UcxRequest
from repro.ucx.status import UcsStatus, UcxError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ucx.worker import UcpWorker


def start_send(
    worker: "UcpWorker",
    remote: "UcpWorker",
    size: int,
    payload,
    req: UcxRequest,
    seq: int,
    pre_cost: float = 0.0,
) -> None:
    """Begin an AM send of ``size`` bytes from ``worker`` to ``remote``.

    ``pre_cost`` carries one-time endpoint-setup work (0.0 when the
    lifecycle model is off; adding an exact zero leaves delays bit-equal).
    """
    if size < worker.ctx.cfg.host_rndv_threshold:
        # eager: copy-in, wire, copy-out; the request completes at copy-in
        copy = host_copy_time(worker.ctx, size)
        worker.sim.call_later(worker._send_post_cost + copy + pre_cost, _send_eager,
                              worker, remote, size, payload, req, copy, seq)
    else:
        # rendezvous: RTS, then a single-copy fetch of the data; the request
        # completes when the fetch does
        worker.sim.call_later(
            worker._rts_post_cost + pre_cost, _wire,
            worker, remote, CTRL_MSG_BYTES, None, 0.0, (size, payload, req), seq,
        )


def _send_eager(worker, remote, size: int, payload, req: UcxRequest,
                copy: float, seq: int) -> None:
    """An eager AM send's copy-in is done: complete it, put it on the wire."""
    req.complete()
    _wire(worker, remote, size, payload, copy, None, seq)


def _wire(worker, remote, nbytes: int, payload, extra_rx: float, rndv, seq: int) -> None:
    """Put one AM frame (an eager message, or an RTS when ``rndv`` is set)
    on the worker's AM stream."""
    spans = None
    if worker.ctx.machine.tracer.enabled:
        # two attribute dicts per frame: only worth building when traced
        spans = (AM_WIRE, {"bytes": nbytes}, {"kind": "am"})
    transport.send(worker, remote, (
        nbytes + WIRE_HEADER_BYTES, "am", worker.am_loc, remote.am_loc, spans,
        None,  # host messages have no flight record
        _arrive, (worker, remote, nbytes, payload, extra_rx, rndv, seq), _give_up,
    ))


def _arrive(worker, remote, nbytes: int, payload, extra_rx: float, rndv, seq: int) -> None:
    src = worker.worker_id
    if rndv is None:
        remote.am_stream.offer(src, seq, ("msg", nbytes, payload, extra_rx))
        return
    if not remote.am_stream.offer(src, seq, transport.PENDING):
        return  # duplicate RTS from a stall-retransmit race: one fetch only
    route = worker.ctx.machine.route(worker.am_loc, remote.am_loc)
    worker.sim.call_later(fetch_delay(worker, remote),
                          _start_fetch, worker, remote, route, rndv, seq)


def fetch_delay(worker, remote) -> float:
    """From an AM RTS's arrival at ``remote`` to the start of its single-copy
    fetch (an RDMA get across nodes pins the pages first, off the wire)."""
    cfg = worker.ctx.cfg
    reg = cfg.host_rndv_reg_overhead if remote.node != worker.node else 0.0
    return cfg.progress_overhead + cfg.rndv_rts_cost + reg


def _start_fetch(worker, remote, route, rndv, seq: int) -> None:
    tracer = worker.ctx.machine.tracer
    path_transfer(worker.sim, route, rndv[0], then=_fetched,
                  then_args=(tracer.note(AM_FETCH, attrs=(rndv[0],)),
                             worker, remote, rndv, seq))


def _fetched(sp, worker, remote, rndv, seq: int) -> None:
    worker.ctx.machine.tracer.end(sp)
    size, payload, send_req = rndv
    if not send_req.completed:
        send_req.complete()
    remote.am_stream.offer(
        worker.worker_id, seq, ("msg", size, payload, 0.0), reserved=True
    )


def _give_up(worker, remote, nbytes: int, payload, extra_rx: float, rndv, seq: int) -> None:
    """The retransmit budget for an AM frame is exhausted: a rendezvous
    send fails, and the receiver learns of the loss in delivery order."""
    lost = nbytes
    if rndv is not None:
        lost, _payload, send_req = rndv
        if not send_req.completed:
            send_req.complete(UcsStatus.ERR_ENDPOINT_TIMEOUT)
    # the receiver must consume the sequence slot or its ordered AM stream
    # stalls behind the lost message forever
    worker.sim.call_later(
        0.0, remote.am_stream.offer, worker.worker_id, seq, ("lost", lost)
    )


def release(worker: "UcpWorker", src: int, entry) -> None:
    """``worker``'s AM stream released ``entry`` from ``src``: hand it to the
    installed handler (or, for a lost message, the error handler)."""
    if entry[0] == "lost":
        worker.ctx.machine.tracer.count("fault", "am_message_lost")
        if worker._am_error_handler is None:
            raise UcxError(
                f"worker {worker.worker_id}: AM message from {src} lost "
                f"({entry[1]} bytes) and no AM error handler installed"
            )
        worker._am_error_handler(entry[1], src)
        return
    if worker._am_handler is None:
        raise UcxError(f"worker {worker.worker_id} has no AM handler installed")
    _kind, size, payload, extra_rx = entry
    sim = worker.sim
    # keep handler invocation order consistent with delivery order: a
    # released held message must not fire before its predecessor just
    # because its copy-out is cheaper
    at = max(
        sim.now + (worker.ctx.cfg.progress_overhead + extra_rx),
        worker._am_last_deliver.get(src, 0.0),
    )
    worker._am_last_deliver[src] = at
    sim.call_later(at - sim.now, worker._am_handler, payload, size, src)
