"""The AMPI library core: ranks, point-to-point, and the runtime glue.

Send path of a device buffer (paper Fig. 7):

1. the rank's PE checks the buffer against its GPU-pointer cache;
2. a ``CkDeviceBuffer`` is created, with a callback that will notify the
   sender rank of completion;
3. ``CmiSendDevice``/``LrtsSendDevice`` assign the device tag and push the
   GPU buffer into UCP;
4. the AMPI envelope (MPI tag, communicator, source rank, metadata) travels
   through the Charm++ runtime as a host message;
5. the receiver matches the envelope against the request queue (or parks it
   in the unexpected queue) and only then posts ``LrtsRecvDevice`` — the
   delayed-posting overhead the paper measures.

Host buffers below the eager threshold travel inline in the envelope;
larger ones use a Zero-Copy-API-style rendezvous (envelope eagerly, data
fetched after the match, FIN back to the sender).

That wire protocol is what :class:`AmpiRank` adds to
:class:`repro.mpi.MpiRank`, the rank surface it shares with OpenMPI's
ranks, together with the collectives built on it: the host-value
``allreduce`` and ``gather`` and the device ``allreduce_device``.  They load
with the first collective call (``_coll.engine`` / ``_coll.value``, see
:mod:`repro.collectives`).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

import repro.collectives as _coll
from repro.ampi.gpucache import GpuPointerCache
from repro.ampi.matching import AmpiEnvelope, MatchEngine, PostedMpiRecv
from repro.charm.charm import Charm
from repro.collectives.ops import ReduceOp
from repro.converse.message import CmiMessage
from repro.core.device_buffer import CkDeviceBuffer, DeviceRdmaOp, DeviceRecvType
from repro.hardware.links import path_transfer
from repro.hardware.memory import Buffer
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MpiCommError,
    MpiJob,
    MpiRank,
    MpiStatus,
    MpiTruncationError,
)
from repro.obs.stages import AMPI_RECV, AMPI_SEND, METADATA_ARRIVED, METADATA_SENT
from repro.sim.primitives import SimEvent, Then
from repro.ucx.protocols.common import host_copy_time
from repro.ucx.status import UcsStatus

#: User tags lie in ``[0, MAX_USER_TAG)`` (the ``MPI_TAG_UB`` of this
#: library).  Collective traffic is not bound by it: it travels on its own
#: communicator id, :data:`COLL_COMM`.
MAX_USER_TAG = 1 << 24

#: The reserved internal communicator id of collective traffic.
COLL_COMM = 1

_host_send_ids = itertools.count(1)


class AmpiRank(MpiRank):
    """One MPI rank (a chare on some PE).  All communication methods return
    yieldable events or :class:`MpiRequest` handles; rank *programs* are
    generator functions driven by the simulator.

    Value collectives ride the envelope path and ``allreduce_device`` the
    GPU point-to-point path, both through ``coll_send``/``coll_recv``; use
    them with ``yield from``."""

    _coll_seq = 0

    def __init__(self, ampi: "Ampi", rank: int, pe: int) -> None:
        self.ampi = ampi
        self.sim = ampi.charm.sim
        self.rank = rank
        self.pe = pe
        tracer = ampi.machine.tracer
        self.matching = MatchEngine(
            tracer.match_queue("matchq.ampi.unexpected"),
            tracer.match_queue("matchq.ampi.posted"))
        self._seq_to: Dict[int, int] = {}

    # -- identity ---------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.ampi.n_ranks

    @property
    def charm(self) -> Charm:
        return self.ampi.charm

    @property
    def gpu(self) -> Optional[int]:
        return self.charm.gpu_of_pe(self.pe)

    @property
    def node(self) -> int:
        return self.charm.pe_object(self.pe).node

    # -- point-to-point ------------------------------------------------------------
    def send(self, buf: Buffer, nbytes: int, dst: int, tag: int = 0) -> SimEvent:
        """``MPI_Send`` (yield the returned event to block until the buffer
        is reusable)."""
        if not 0 <= tag < MAX_USER_TAG:
            raise ValueError(f"tag {tag} outside [0, MAX_USER_TAG)")
        return self._send_impl(buf, nbytes, dst, tag, comm=0)

    def recv(
        self, buf: Buffer, capacity: int, src: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> SimEvent:
        """``MPI_Recv`` (yield to block; the event's value is the status)."""
        return self._recv_impl(buf, capacity, src, tag, comm=0)

    # -- collective wire protocol (repro.collectives rides on these) ----------------
    def coll_send(self, buf: Optional[Buffer], nbytes: int, dst: int, tag: int,
                  value: Any = None) -> SimEvent:
        return self._send_impl(buf, nbytes, dst, tag, COLL_COMM, value)

    def coll_recv(self, buf: Optional[Buffer], capacity: int, src: int,
                  tag: int) -> SimEvent:
        return self._recv_impl(buf, capacity, src, tag, COLL_COMM)

    def _next_coll_seq(self) -> int:
        """Per-rank invocation number; it namespaces a collective's wire
        tags, so overlapping collectives can never alias."""
        s = self._coll_seq
        self._coll_seq = s + 1
        return s

    # -- collectives (use with ``yield from``) -----------------------------------------
    def allreduce(self, value: Any, op=ReduceOp.SUM, nbytes: int = 8):
        return _coll.value.allreduce(self, value, op, nbytes)

    def gather(self, value: Any, root: int = 0, nbytes: int = 8):
        return _coll.value.gather(self, value, root, nbytes)

    def allreduce_device(self, buf: Buffer, nbytes: int, op=ReduceOp.SUM, *,
                         algorithm: Optional[str] = None):
        """Device-buffer allreduce with topology-aware algorithm selection."""
        return _coll.engine.allreduce_device(self, buf, nbytes, op, algorithm)

    # -- implementation ----------------------------------------------------------------
    def _next_seq(self, dst: int) -> int:
        s = self._seq_to.get(dst, 0)
        self._seq_to[dst] = s + 1
        return s

    def _send_impl(
        self,
        buf: Optional[Buffer],
        nbytes: int,
        dst: int,
        tag: int,
        comm: int,
        value: Any = None,
    ) -> SimEvent:
        ampi = self.ampi
        sim = self.sim
        if not 0 <= dst < ampi.n_ranks:
            raise ValueError(f"destination rank {dst} out of range")

        env = AmpiEnvelope(
            src=self.rank, dst=dst, tag=tag, comm=comm, size=nbytes,
            seq=self._next_seq(dst),
        )
        pre = ampi.send_cost

        if buf is not None and nbytes > buf.size:
            raise ValueError(f"send of {nbytes} B from a {buf.size} B buffer")

        if buf is not None:
            is_dev, lookup = ampi.gpu_caches[self.pe].check(buf)
            pre += lookup
        else:
            is_dev = False

        if is_dev:
            ev = _DeviceSend(sim, name="mpi.send")
            ev.rank, ev.dst, ev.nbytes = self, dst, nbytes
        else:
            ev = SimEvent(sim, name="mpi.send")
        tracer = ampi.machine.tracer
        asp = tracer.stage(AMPI_SEND, attrs=(self.rank, dst, tag, nbytes, is_dev))
        if asp:
            ev.add_callback(Then((tracer.end, (asp,))).run)

        if is_dev:
            # Fig. 7: CkDeviceBuffer + callback; GPU data via LrtsSendDevice.
            env.dev_meta = CkDeviceBuffer(ptr=buf, size=nbytes)
            tracer.charge("ampi", pre)
            sim.call_later(self._cpu_delay(pre), self._go_device, env, ev, asp)
            return ev

        if value is not None or buf is None:
            env.value = value
        elif nbytes < ampi.eager_threshold:
            bounce = ampi.machine.alloc_host(self.node, max(nbytes, 1))
            bounce.copy_from(buf, nbytes)
            env.payload = bounce
        else:
            env.src_host_buf = buf
            env.host_send_id = next(_host_send_ids)
            ampi.pending_host_sends[env.host_send_id] = ev
            # AMPI packs the user's host data into its message object
            # before handing it to the runtime (datatype handling).
            pre += host_copy_time(ampi.charm.layer.ucp, nbytes)

        tracer.charge("ampi", pre)
        sim.call_later(self._cpu_delay(pre), self._go_host, env, ev, asp)
        return ev

    def _go_device(self, env: AmpiEnvelope, ev: "_DeviceSend", asp) -> None:
        ampi = self.ampi
        tracer = ampi.machine.tracer
        dev_meta = env.dev_meta
        with tracer.under(asp):
            ampi.charm.converse.cmi_send_device(
                self.pe, ampi.ranks[env.dst].pe, dev_meta, owner=ev)
            ampi._send_envelope(self.pe, env, host_bytes=0)
        tracer.note(METADATA_SENT, dev_meta.tag)

    def _go_host(self, env: AmpiEnvelope, ev: SimEvent, asp) -> None:
        # a rendezvous send completes when the receiver's FIN comes back;
        # the others carry their data and complete on delivery
        ampi = self.ampi
        rndv = env.src_host_buf is not None
        with ampi.machine.tracer.under(asp):
            ampi._send_envelope(self.pe, env, host_bytes=0 if rndv else env.size)
        if not rndv:
            ev.succeed(None)

    def _recv_impl(
        self,
        buf: Optional[Buffer],
        capacity: int,
        src: int,
        tag: int,
        comm: int,
    ) -> SimEvent:
        ampi = self.ampi
        rt = ampi.rt
        sim = self.sim
        if src != ANY_SOURCE and not 0 <= src < ampi.n_ranks:
            raise ValueError(f"source rank {src} out of range")
        ev = _Recv(sim, name="mpi.recv")
        ev.rank = self
        req = PostedMpiRecv(src=src, tag=tag, comm=comm, buf=buf, capacity=capacity, event=ev)
        tracer = ampi.machine.tracer
        rsp = tracer.stage(
            AMPI_RECV, cost=rt.ampi_recv_overhead, attrs=(self.rank, src, tag))
        if rsp:
            req.span = rsp
            ev.add_callback(Then((tracer.end, (rsp,))).run)
        sim.call_later(self._cpu_delay(rt.ampi_recv_overhead), self._post_recv, req)
        return ev

    def _post_recv(self, req: PostedMpiRecv) -> None:
        env, scanned = self.matching.match_recv(req)
        if env is not None:
            ampi = self.ampi
            delay = ampi.rt.ampi_match_cost * scanned
            ampi.machine.tracer.charge("ampi", delay)
            req.event.sim.call_later(delay, ampi._complete_recv, self, env, req)


class _DeviceSend(SimEvent):
    """The event of an AMPI send from device memory: the owner of the send's
    ``CkDeviceBuffer``, carrying what its outcome methods need, so the
    in-flight message holds no closure (DESIGN §4.5)."""

    __slots__ = ("rank", "dst", "nbytes")

    def notify_sender(self) -> None:
        """The GPU data is out: the sender rank learns it after AMPI's
        callback overhead."""
        ampi = self.rank.ampi
        overhead = ampi.rt.ampi_callback_overhead
        ampi.machine.tracer.charge("ampi", overhead)
        self.sim.call_later(overhead, self.succeed, None)

    def send_failed(self, status) -> None:
        self.fail(MpiCommError(
            f"MPI_Send of {self.nbytes} B r{self.rank.rank}->r{self.dst} failed: "
            f"{status.name}", status,
        ))


class _Recv(SimEvent):
    """The event of an AMPI receive.  Once matched to a device envelope it
    carries the status and owns the ``DeviceRdmaOp``."""

    __slots__ = ("rank", "status")

    def landed(self, _op: DeviceRdmaOp) -> None:
        ampi = self.rank.ampi
        overhead = ampi.rt.ampi_callback_overhead
        ampi.machine.tracer.charge("ampi", overhead)
        self.sim.call_later(overhead, self.succeed, self.status)

    def failed(self, op: DeviceRdmaOp, ucs_status) -> None:
        self.fail(MpiCommError(
            f"MPI_Recv of {op.size} B on r{self.rank.rank} "
            f"failed: {ucs_status.name}", ucs_status,
        ))


class Ampi(MpiJob):
    """One AMPI job over a :class:`Charm` runtime."""

    _PROCESS = "ampi"

    def __init__(
        self,
        charm: Charm,
        n_ranks: Optional[int] = None,
        ranks_per_pe: int = 1,
    ) -> None:
        if ranks_per_pe < 1:
            raise ValueError("ranks_per_pe must be >= 1")
        self.charm = charm
        self.machine = charm.machine
        self.rt = charm.cfg.runtime
        # inline-payload limit: keep the envelope itself safely below the
        # host rendezvous threshold (envelope matching must stay eager and
        # therefore strictly ordered per pair)
        self.eager_threshold = charm.cfg.ucx.host_rndv_threshold - 256
        # message creation and its metadata allocations, summed once
        self.send_cost = (self.rt.ampi_send_overhead
                          + self.rt.ampi_metadata_allocs * self.rt.heap_alloc_cost)
        n_pes = charm.n_pes
        self.n_ranks = n_ranks if n_ranks is not None else n_pes * ranks_per_pe
        # block mapping: virtualized ranks share their PE contiguously
        self.ranks: List[AmpiRank] = [
            AmpiRank(self, r, pe=r * n_pes // self.n_ranks) for r in range(self.n_ranks)
        ]
        self.gpu_caches = [GpuPointerCache(self.rt) for _ in range(n_pes)]
        # freed device addresses may be re-used by later (even host)
        # allocations; drop them from every PE's pointer cache
        self.machine.add_device_free_hook(self._on_device_free)
        self.pending_host_sends: Dict[int, SimEvent] = {}
        # rank group -> the cost model collective selection prices it with,
        # and the seconds of one hop by route class, which the models share
        self.coll_models: Dict[tuple, Any] = {}
        self.coll_hop_seconds: Dict[tuple, float] = {}
        charm.converse.register_handler("ampi_msg", self._handle_envelope)
        charm.converse.register_handler("ampi_fin", self._handle_fin)

    def _on_device_free(self, buf: Buffer) -> None:
        for cache in self.gpu_caches:
            cache.invalidate(buf.address)

    def rank_pe(self, rank: int) -> int:
        return self.ranks[rank].pe

    # -- envelope transport -----------------------------------------------------------
    def _send_envelope(self, src_pe: int, env: AmpiEnvelope, host_bytes: int) -> None:
        msg = CmiMessage(
            handler="ampi_msg",
            payload=env,
            host_bytes=host_bytes,
            src_pe=src_pe,
            dst_pe=self.ranks[env.dst].pe,
        )
        self.charm.converse.cmi_send(src_pe, msg)

    def _handle_envelope(self, pe, msg: CmiMessage) -> None:
        env: AmpiEnvelope = msg.payload
        tracer = self.machine.tracer
        if env.dev_meta is not None:
            tracer.note(METADATA_ARRIVED, env.dev_meta.tag)
        rank = self.ranks[env.dst]
        req, scanned = rank.matching.match_envelope(env)
        pe.charge(self.rt.ampi_match_cost * scanned)
        tracer.charge("ampi", self.rt.ampi_match_cost * scanned)
        if req is not None:
            self._complete_recv(rank, env, req)

    def _handle_fin(self, pe, msg: CmiMessage) -> None:
        send_id = msg.payload
        ev = self.pending_host_sends.pop(send_id)
        pe.charge(self.rt.ampi_callback_overhead)
        self.machine.tracer.charge("ampi", self.rt.ampi_callback_overhead)
        ev.succeed(None)

    # -- receive completion --------------------------------------------------------------
    def _complete_recv(self, rank: AmpiRank, env: AmpiEnvelope, req: PostedMpiRecv) -> None:
        sim = self.charm.sim
        status = MpiStatus(
            source=env.src, tag=env.tag, count=env.size, value=env.value
        )
        if env.size > req.capacity:
            req.event.fail(
                MpiTruncationError(
                    f"message of {env.size} B exceeds posted capacity {req.capacity} B"
                )
            )
            return

        if env.dev_meta is not None:
            if req.buf is None or not req.buf.on_device:
                req.event.fail(NotImplementedError(
                    "GPU-sent data must be received into a device buffer "
                    "(mixed host/device pt2pt is outside the paper's scope)"
                ))
                return

            ev = req.event
            ev.status = status
            op = DeviceRdmaOp(
                dest=req.buf,
                size=env.dev_meta.size,
                tag=env.dev_meta.tag,
                recv_type=DeviceRecvType.AMPI,
                owner=ev,
            )
            with self.machine.tracer.under(req.span):
                self.charm.converse.cmi_recv_device(rank.pe, op)
            return

        if req.buf is not None and req.buf.on_device and env.size > 0:
            req.event.fail(NotImplementedError(
                "host-sent data must be received into a host buffer "
                "(mixed host/device pt2pt is outside the paper's scope)"
            ))
            return

        if env.payload is not None:  # inline eager payload
            copy = host_copy_time(self.charm.layer.ucp, env.size)
            sim.call_later(copy, self._copied, req, env, status)
            return

        if env.src_host_buf is not None:  # zero-copy rendezvous fetch
            route, pin = self.host_fetch(env.src_host_buf.node, self.rank_pe(env.src),
                                         rank.node, rank.pe, env.size)
            # unpack from the message object into the user's recv buffer
            # (charged to the receiving PE after the fetch, not to the link)
            unpack = host_copy_time(self.charm.layer.ucp, env.size)
            # pinning is CPU work on the receiving rank: serialise it
            sim.call_later(rank._cpu_delay(pin) if pin else 0.0, path_transfer,
                           sim, route, env.size, 0.0, sim.call_later,
                           (unpack, self._unpacked, rank, env, req, status))
            return

        # value-based message (collectives) or zero-byte message
        req.event.succeed(status)

    def host_fetch(self, src_node: int, src_pe: int, dst_node: int, dst_pe: int,
                   size: int):
        """``(route, pin)`` of a zero-copy fetch of ``size`` host bytes from
        ``src_pe``'s rank into ``dst_pe``'s: the route between the two PEs'
        socket rails, and the §IV-B2 artifact, a registration/pinning cost
        at the threshold (it delays the fetch; it does not occupy the wire)."""
        m, rt = self.machine, self.rt
        route = m.route(m.host_location(src_node, m.gpu_socket[src_pe]),
                        m.host_location(dst_node, m.gpu_socket[dst_pe]))
        pin = 0.0
        if rt.model_ampi_128k_dip and size >= rt.ampi_pin_threshold:
            pin = rt.ampi_pin_overhead + size / rt.ampi_pin_bandwidth
        return route, pin

    def _copied(self, req: PostedMpiRecv, env: AmpiEnvelope, status: MpiStatus) -> None:
        req.buf.copy_from(env.payload, env.size)
        req.event.succeed(status)

    def _unpacked(self, rank: AmpiRank, env: AmpiEnvelope, req: PostedMpiRecv,
                  status: MpiStatus) -> None:
        req.buf.copy_from(env.src_host_buf, env.size)
        req.event.succeed(status)
        fin = CmiMessage(
            handler="ampi_fin",
            payload=env.host_send_id,
            host_bytes=0,
            src_pe=rank.pe,
            dst_pe=self.rank_pe(env.src),
        )
        self.charm.converse.cmi_send(rank.pe, fin)

