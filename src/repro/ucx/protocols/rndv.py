"""Rendezvous protocol: RTS control message, receiver-driven fetch, FIN.

The *lane* for the bulk data is chosen at match time, when both buffer
locations are known (mirroring UCX's receiver-side rendezvous decision).
:func:`rndv_lane` is that one decision; everything a lane changes follows
from its value:

==============================  ==========  =================================
endpoints                       lane        bulk data
==============================  ==========  =================================
host <-> host, same node        cma         CMA/xpmem single copy through
                                            host memory
device <-> host, same node      cma         DMA over the GPU's NVLink
device <-> device, same node    cuda_ipc    CUDA IPC direct copy over
                                            NVLink/X-Bus (handle opened once
                                            per GPU and base allocation)
any device, across nodes        pipeline    chunk-pipelined host staging
                                            (the default, Summit)
any device, across nodes,       gdr         GPUDirect RDMA; reported as
``gpudirect_rdma``                          ``rdma_get``
host <-> host, across nodes     rdma_get    RDMA get over the NICs (pages
                                            pinned once per buffer)
==============================  ==========  =================================

A failed IPC open (fault injection) turns ``cuda_ipc`` into ``pipeline``
staged through the node's host memory.  With ``UcxConfig.mapping_cost`` on,
every lane but ``cma`` pays the first-touch mapping of its device ends
(:meth:`repro.ucx.context.UcpContext.first_touch`).

The full data route is occupied for the bottleneck serialisation time, so
concurrent rendezvous transfers contend realistically (six GPUs pushing
halos through one NIC serialize there).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import UcxConfig
from repro.hardware.links import Route, path_transfer
from repro.hardware.memory import Buffer
from repro.obs.stages import (
    DATA_LANDED,
    RNDV_DATA,
    RNDV_FETCH,
    RNDV_RTS,
    SEND_COMPLETED,
)
from repro.ucx.constants import CTRL_MSG_BYTES
from repro.ucx.protocols.common import fail_truncated
from repro.ucx.protocols.multirail import plan_striping, striped_transfer
from repro.ucx.protocols.pipeline import pipeline_chunks, pipeline_extra_time
from repro.ucx.request import UcxRequest
from repro.ucx.status import UcsStatus
from repro.ucx.transport import end_then
from repro.ucx.wire import WireKind, WireMessage, next_rndv_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.ucx.worker import PostedRecv, UcpWorker

CMA = "cma"
CUDA_IPC = "cuda_ipc"
PIPELINE = "pipeline"
GDR = "gdr"
RDMA_GET = "rdma_get"


def rndv_lane(cfg: UcxConfig, src: Buffer, dst: Buffer) -> str:
    """The lane a rendezvous from ``src`` into ``dst`` takes (module table)."""
    if src.node == dst.node:
        return CUDA_IPC if src.on_device and dst.on_device else CMA
    if src.on_device or dst.on_device:
        return GDR if cfg.gpudirect_rdma else PIPELINE
    return RDMA_GET


def data_route(machine, lane: str, src: Buffer, dst: Buffer):
    """``(src_loc, dst_loc, route)`` the bulk of a ``lane`` rendezvous from
    ``src`` into ``dst`` occupies (the locations are ``None`` for the
    one-route IPC fallback, which is never striped)."""
    if lane is PIPELINE and src.node == dst.node:
        # the IPC fallback, a degraded mode kept on one route: source GPU
        # link down to host memory, then up the destination GPU's link
        node = machine.nodes[src.node]
        return None, None, Route((
            node.nvlink_tx[machine.gpu_local[src.device]],
            node.host_mem,
            node.nvlink_rx[machine.gpu_local[dst.device]],
        ))
    if lane is PIPELINE:
        # chunked host staging overlaps the NVLink hops with the NIC (their
        # cost is pipeline_extra_time's fill/drain): the bulk holds only the
        # NIC segment, through the device ends' socket rails
        src_loc, dst_loc = machine.staging_location(src), machine.staging_location(dst)
    else:
        src_loc, dst_loc = machine.location_of(src), machine.location_of(dst)
    return src_loc, dst_loc, machine.route(src_loc, dst_loc)


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
    """Send the RTS; the request completes when the FIN returns.

    ``pre_cost`` carries one-time endpoint-setup work (0.0 when the
    lifecycle model is off; adding an exact zero leaves delays bit-equal).
    """
    rndv_id = next_rndv_id()
    worker.pending_rndv_sends[rndv_id] = req
    worker._rndv_high = req.rndv_id = rndv_id
    req.rndv_remote = remote.worker_id
    req.rndv_committed = False
    msg = WireMessage(
        kind=WireKind.RTS,
        tag=tag,
        size=size,
        src_worker=worker.worker_id,
        src_buf=buf,
        rndv_id=rndv_id,
        src_was_device=buf.on_device,
        wire_seq=wire_seq,
        send_req=req,
    )
    fire, args = worker.transmit, (remote, msg, CTRL_MSG_BYTES)
    tracer = worker.ctx.machine.tracer
    sp = tracer.note(RNDV_RTS, attrs=(size, tag, msg.src_was_device))
    if sp:
        fire, args = end_then, (tracer, sp, fire, args)
    worker.sim.call_later(worker._rts_post_cost + pre_cost, fire, *args)


def start_transfer(
    worker: "UcpWorker",
    msg: WireMessage,
    posted: "PostedRecv",
    pre_delay: float,
) -> None:
    """Receiver matched an RTS: fetch the data, complete, send FIN."""
    ctx = worker.ctx
    cfg = ctx.cfg
    machine = ctx.machine
    sim = worker.sim
    # the receiver is committed from here on: the sender can no longer
    # cancel this rendezvous (see UcpWorker.cancel)
    msg.send_req.rndv_committed = True

    if msg.size > posted.size:
        sim.call_later(pre_delay, _truncate, worker, msg, posted)
        return

    src, dst = msg.src_buf, posted.buf
    lane = rndv_lane(cfg, src, dst)

    # Setup costs delay the start of the bulk transfer but do NOT occupy
    # the wire: IPC handle opening and page registration are CPU/driver
    # work, and the pipeline's fill/drain stages run on the staging NVLinks
    # while the NIC carries earlier chunks of other messages.
    setup = cfg.rndv_rts_cost  # receiver-side RTR/control handling
    if lane is CUDA_IPC:
        injector = machine.fault_injector
        if injector is not None and injector.ipc_open_fails():
            # cuIpcOpenMemHandle failed: stage through host memory instead
            # of mapping the peer buffer
            lane = PIPELINE
            machine.tracer.count("fault", "fallback_pipeline")
        else:
            setup += ctx.cuda.ipc_open_cost(dst.device, src)
    elif lane is RDMA_GET and src.address not in ctx.reg_cache:
        # RDMA get of unregistered host pages: pin them with the NIC first
        # (once per buffer -- the registration cache keeps them pinned)
        ctx.reg_cache.add(src.address)
        setup += cfg.host_rndv_reg_overhead
    if lane is PIPELINE:
        setup += pipeline_extra_time(machine.cfg, msg.size)
    if ctx.mapping_enabled and lane is not CMA:
        setup += ctx.first_touch(src, dst, msg.src_worker, worker.worker_id)

    src_loc, dst_loc, route = data_route(machine, lane, src, dst)
    stripe = None
    # Multi-rail striping (default off) hands the bulk to the striped
    # engine over the rail set sampled here, at commit time (like the
    # bandwidth windows, sampled at start-of-transfer).  The GDR lane is
    # excluded: its route shares the endpoints' NVLink hops, which
    # capacity-1 serialize any chunks.  So is the one-route IPC fallback.
    if machine.cfg.multirail.enabled and lane is not GDR and src_loc is not None:
        stripe = plan_striping(machine, src_loc, dst_loc, msg.size)

    tracer = machine.tracer
    more = None
    if tracer.enabled:
        # span-only detail, not worth computing for an untraced fetch
        more = {}
        if lane is PIPELINE:
            more["chunks"] = pipeline_chunks(machine.cfg, msg.size)
        if stripe is not None:
            more["rails"] = len(stripe[0])
    sp = tracer.note(
        RNDV_FETCH, msg.tag, worker.worker_id,
        attrs=(msg.size, msg.tag, RDMA_GET if lane is GDR else lane),
        parent=posted.req.span, more=more,
    )

    # the fetch's state travels as timer and transfer arguments: an
    # in-flight rendezvous holds no closure (DESIGN §4.5)
    sim.call_later(pre_delay + setup, _begin, worker, msg, posted,
                   route, stripe, sp)


def _truncate(worker: "UcpWorker", msg: WireMessage, posted: "PostedRecv") -> None:
    fail_truncated(worker, msg, posted)
    # release the sender too: the rendezvous is over
    _send_fin(worker, msg)


def _begin(worker: "UcpWorker", msg: WireMessage, posted: "PostedRecv",
           route: Route, stripe, sp) -> None:
    """Setup is over: put the bulk data on the wire (striped or not)."""
    machine = worker.ctx.machine
    wire_sp = machine.tracer.note(RNDV_DATA, attrs=(msg.tag, msg.size), parent=sp)
    args = (worker, msg, posted, sp, wire_sp)
    if stripe is not None:
        striped_transfer(worker.sim, machine, stripe, _data_arrived, args,
                         parent_span=wire_sp, tag=msg.tag)
    else:
        path_transfer(worker.sim, route, msg.size, then=_data_arrived, then_args=args)


def _data_arrived(worker: "UcpWorker", msg: WireMessage, posted: "PostedRecv",
                  sp, wire_sp) -> None:
    posted.buf.copy_from(msg.src_buf, msg.size)
    tracer = worker.ctx.machine.tracer
    tracer.end(wire_sp)
    tracer.end(sp)
    tracer.note(DATA_LANDED, msg.tag, worker.worker_id)
    posted.req.complete(UcsStatus.OK, (msg.tag, msg.size))
    _send_fin(worker, msg)


def _send_fin(worker: "UcpWorker", rts: WireMessage) -> None:
    """Tell the sender of ``rts`` that the receiver is done with its buffer."""
    fin = WireMessage(
        kind=WireKind.FIN, tag=rts.tag, size=0, src_worker=worker.worker_id,
        rndv_id=rts.rndv_id,
    )
    worker.transmit(worker.ctx.worker(rts.src_worker), fin, CTRL_MSG_BYTES)


def finish_send(worker: "UcpWorker", msg: WireMessage) -> None:
    """FIN arrived back at the sender: complete the pending send request."""
    req = worker.pending_rndv_sends.pop(msg.rndv_id, None)
    if req is None:
        if msg.rndv_id <= worker._rndv_high:
            # duplicate or late FIN for a rendezvous that already ended
            # (sender timed out, or the FIN was stalled and retransmitted)
            worker.ctx.machine.tracer.count("ucx", "late_fin_ignored")
            return
        raise RuntimeError(f"FIN for unknown rendezvous id {msg.rndv_id}")
    worker.ctx.machine.tracer.note(SEND_COMPLETED, msg.tag, msg.src_worker)
    req.complete(UcsStatus.OK)
