"""The closed form of one uncontended, warm-cache transfer (DESIGN §4.11).

:func:`transfer_terms` states one message's one-way time as a table of
named :class:`Term` rows.  Nothing here re-derives a cost from the config:
every row is read from the function or composite constant the event path
charges, so the form cannot drift from the simulator (``tests/test_cost.py``
holds the OSU latency ladder equal to it).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, NamedTuple, Optional

from repro.charm.charm import marshal_bytes
from repro.converse.message import CmiMessage
from repro.hardware.links import Route
from repro.ucx.constants import CTRL_MSG_BYTES, WIRE_HEADER_BYTES
from repro.ucx.protocols.am import fetch_delay
from repro.ucx.protocols.common import device_staging_time, host_copy_time
from repro.ucx.protocols.pipeline import pipeline_extra_time
from repro.ucx.protocols.rndv import CUDA_IPC, PIPELINE, data_route, rndv_lane
from repro.ucx.protocols.select import Protocol, choose_send_protocol

__all__ = ["Term", "device_bulk_route", "transfer_terms"]


class Term(NamedTuple):
    name: str
    layer: str  # model | machine | ucx | link | cuda
    seconds: float
    route: Optional[Route] = None  # the links a bulk transfer occupies


def transfer_terms(model: str, lib, src_gpu: int, dst_gpu: int, size: int,
                   device: bool = True) -> List[Term]:
    """One ``size``-byte message of ``model`` (frontend ``lib``: ``Charm``,
    ``Ampi``, ``OpenMpi`` or ``Charm4py``) from the rank on ``src_gpu`` to
    the one on ``dst_gpu``, device buffers or (``device=False``) the OSU
    ``-H`` staging: the one-way time from the send call to the receiving
    program seeing the data, uncontended and warm (handles, caches and
    registrations held, one entry per match, the receive posted before the
    message is announced).  A device message of a Charm-based model is
    announced by the model's metadata message, later than its own frame
    arrives; ``delayed post`` is that lag net of ``LrtsRecvDevice``, so the
    UCX and link rows are the same for every model.  A Charm++ entry carries
    the OSU ping's one other argument, its reply proxy."""
    charm = None if model == "openmpi" else lib if model == "charm" else lib.charm
    ucp = lib.ucp if charm is None else charm.layer.ucp
    machine, cfg = ucp.machine, ucp.cfg
    rt = machine.cfg.runtime
    src_w, dst_w = ucp.worker(src_gpu), ucp.worker(dst_gpu)
    # what the protocol decisions read of the two buffers: where they live
    src, dst = (SimpleNamespace(node=machine.node_of_gpu(g), on_device=device,
                                device=g if device else None) for g in (src_gpu, dst_gpu))
    pickup = rt.scheduler_pickup_overhead
    if model == "openmpi":
        body = [Term("model send", "model", rt.ompi_send_overhead),
                *_tagged(ucp, src_w, dst_w, src, dst, size)[0]]
    elif device:
        # send, metadata message, the dispatch that posts the receive, receive
        if model == "ampi":
            send = lib.send_cost + rt.gpu_pointer_cache_hit_cost
            meta, dispatch = (0, 0), rt.ampi_match_cost
            done = rt.ampi_callback_overhead
        elif model == "charm":
            args = marshal_bytes((None,))
            send, meta = charm.send_cost(args), (args, 1)
            dispatch = charm.dispatch_cost(args) + rt.post_entry_overhead
            done = pickup
        else:
            send = lib.cython.call_time + lib.cython.device_send_cost()
            meta, done = (0, 0), lib.cython.future_cost()
            # a posting delay runs after the dispatch's own charge is paid
            dispatch = lib.device_post_delay(src, dst, size) or rt.cython_crossing_overhead
        layer = charm.layer
        ucx_terms, frame_at = _tagged(ucp, src_w, dst_w, src, dst, size)
        arrived = layer._send_device_charge + frame_at
        posted = (_am(ucp, src_w, dst_w, _wire(rt, *meta)) + pickup + dispatch
                  + layer._recv_device_charge)
        # a frame that came first waits unexpected: the match starts after
        # the receive's post instead of after the frame's progress
        lag = (posted + dst_w._recv_post_cost - arrived - cfg.progress_overhead
               if posted >= arrived else 0.0)
        body = [Term("model send", "model", send),
                Term("LrtsSendDevice", "machine", layer._send_device_charge),
                *ucx_terms,
                Term("LrtsRecvDevice", "machine", layer._recv_device_charge),
                Term("delayed post", "model", lag - layer._recv_device_charge),
                Term("model receive", "model", done)]
    else:  # host-staged: the payload rides the model's own message
        am_bytes, fetch = size, []
        if model == "ampi":
            send = lib.send_cost + rt.gpu_pointer_check_cost
            done = pickup + host_copy_time(ucp, size)  # copy or unpack
            if size >= lib.eager_threshold:  # envelope, then a zero-copy fetch
                route, pin = lib.host_fetch(src.node, src_gpu, dst.node, dst_gpu, size)
                send, am_bytes, done = send + host_copy_time(ucp, size), 0, done + pin
                fetch = [Term("zero-copy fetch", "link", route.hold_time(size), route)]
        elif model == "charm":
            am_bytes += marshal_bytes((None,))
            send = charm.send_cost(am_bytes)
            done = pickup + charm.dispatch_cost(am_bytes)
        else:
            ser = lib.cython.serialize_cost(size)
            send, done = lib.cython.call_time + ser, pickup + ser + lib.cython.future_cost()
        body = [Term("model send", "model", send),
                Term("metadata AM", "model", _am(ucp, src_w, dst_w, _wire(rt, am_bytes))),
                *fetch, Term("model receive", "model", done)]
    if device:
        return body
    # cudaMemcpyAsync then cudaStreamSynchronize on an idle stream, each side
    cuda = machine.cfg.cuda
    stage = cuda.memcpy_launch_overhead + cuda.stream_sync_overhead
    out = machine.route(machine.device_location(src_gpu), machine.location_of(src))
    back = machine.route(machine.location_of(dst), machine.device_location(dst_gpu))
    return [Term("cudaMemcpy DtoH + sync", "cuda", out.hold_time(size) + stage), *body,
            Term("cudaMemcpy HtoD + sync", "cuda", back.hold_time(size) + stage)]


def device_bulk_route(ucp, src_gpu: int, dst_gpu: int, size: int) -> Optional[Route]:
    """The route the bulk of that device message occupies: the data route
    of its :func:`transfer_terms` rendezvous, ``None`` when it is eager."""
    machine = ucp.machine
    src, dst = machine.device_location(src_gpu), machine.device_location(dst_gpu)
    if choose_send_protocol(ucp.cfg, src, size) is Protocol.EAGER:
        return None
    return data_route(machine, rndv_lane(ucp.cfg, src, dst), src, dst)[2]


def _wire(rt, host_bytes: int = 0, device_bufs: int = 0) -> int:
    """Wire bytes of a Converse message (``CmiMessage.wire_size``)."""
    msg = CmiMessage("", None, host_bytes, 0, 0, [None] * device_bufs, msg_id=0)
    return msg.wire_size(rt.converse_header_bytes, rt.device_metadata_bytes)


def _am(ucp, src_w, dst_w, nbytes: int) -> float:
    """``am_send`` of ``nbytes`` to the handler's call at ``dst_w``."""
    cfg = ucp.cfg
    route = ucp.machine.route(src_w.am_loc, dst_w.am_loc)
    if nbytes < cfg.host_rndv_threshold:  # copy-in, wire, copy-out
        copy = host_copy_time(ucp, nbytes)
        return (src_w._send_post_cost + copy
                + route.hold_time(nbytes + WIRE_HEADER_BYTES)
                + cfg.progress_overhead + copy)
    # RTS, then a single-copy fetch
    return (src_w._rts_post_cost + route.hold_time(CTRL_MSG_BYTES + WIRE_HEADER_BYTES)
            + fetch_delay(src_w, dst_w) + route.hold_time(nbytes)
            + cfg.progress_overhead)


def _tagged(ucp, src_w, dst_w, src, dst, size: int):
    """UCX and link terms of a tagged message into a pre-posted receive,
    and when its first frame arrives (from ``tag_send_nb``)."""
    cfg, machine = ucp.cfg, ucp.machine
    wire = machine.route(src_w.tag_loc, dst_w.tag_loc)
    match = Term("UCX progress + match", "ucx", cfg.progress_overhead + cfg.tag_match_cost)
    if choose_send_protocol(cfg, src, size) is Protocol.EAGER:
        copy_in, copy_out = (device_staging_time(ucp, size) if end.on_device
                             else host_copy_time(ucp, size) for end in (src, dst))
        frame = wire.hold_time(size + WIRE_HEADER_BYTES)
        return [Term("UCX send post", "ucx", src_w._send_post_cost),
                Term("UCX copy-in", "ucx", copy_in),
                Term("eager frame", "link", frame), match,
                Term("UCX copy-out", "ucx", copy_out)], \
            src_w._send_post_cost + copy_in + frame
    lane = rndv_lane(cfg, src, dst)
    frame = wire.hold_time(CTRL_MSG_BYTES + WIRE_HEADER_BYTES)
    terms = [Term("UCX RTS post", "ucx", src_w._rts_post_cost),
             Term("RTS frame", "link", frame), match,
             Term("UCX RTS handling", "ucx", cfg.rndv_rts_cost)]
    if lane is CUDA_IPC:
        terms.append(Term("IPC open (cached)", "ucx", ucp.cuda.cfg.ipc_cached_open_cost))
    elif lane is PIPELINE:
        terms.append(Term("pipeline fill, drain, chunks", "ucx",
                          pipeline_extra_time(machine.cfg, size)))
    route = data_route(machine, lane, src, dst)[2]
    terms.append(Term(f"{lane} data", "link", route.hold_time(size), route))
    return terms, src_w._rts_post_cost + frame
