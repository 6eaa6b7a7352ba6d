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

That wire protocol is what :class:`AmpiRank` and :class:`CommView` add to
:class:`MpiRank`, the rank surface they share with OpenMPI's ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.ampi.gpucache import GpuPointerCache
from repro.ampi.matching import (
    ANY_SOURCE,
    ANY_TAG,
    AmpiEnvelope,
    MatchEngine,
    PostedMpiRecv,
)
from repro.ampi.request import MpiRequest, waitall
from repro.charm.charm import Charm
from repro.collectives import engine as _coll_engine
from repro.collectives import value as _coll_value
from repro.collectives.endpoints import AmpiCollEndpoint
from repro.collectives.ops import ReduceOp
from repro.converse.message import CmiMessage
from repro.core.device_buffer import CkDeviceBuffer, DeviceRdmaOp, DeviceRecvType
from repro.hardware.links import path_transfer
from repro.hardware.memory import Buffer, OutOfMemory
from repro.obs.stages import AMPI_RECV, AMPI_SEND, METADATA_ARRIVED, METADATA_SENT
from repro.sim.primitives import AllOf, SimEvent
from repro.sim.process import Process
from repro.ucx.status import UcsStatus

#: Tags at/above this value are reserved for collectives.
MAX_USER_TAG = 1 << 24


@dataclass(frozen=True)
class MpiStatus:
    """What ``MPI_Recv`` reports (plus ``value`` for value-based internals)."""

    source: int
    tag: int
    count: int
    value: Any = None


class MpiTruncationError(RuntimeError):
    """Incoming message larger than the posted receive buffer."""


class MpiCommError(RuntimeError):
    """A transfer failed at the UCX layer (endpoint timeout under fault
    injection, or a cancelled request).  ``status`` carries the underlying
    :class:`repro.ucx.status.UcsStatus`."""

    def __init__(self, message: str, status: Any = None) -> None:
        super().__init__(message)
        self.status = status


_host_send_ids = itertools.count(1)


class MpiRank:
    """What every MPI rank offers around its library's ``send``/``recv``.

    AMPI and OpenMPI sit on the same UCX stack and differ only in how a
    message reaches it (paper §IV-B1): an envelope plus a metadata-gated
    post, or a tagged receive posted directly.  A rank class supplies that
    difference — ``send``, ``recv`` and ``_coll_endpoint`` (the
    :mod:`repro.collectives.endpoints` object of one collective invocation)
    — and its identity: ``rank``, ``size``, ``sim``, ``gpu``, ``node`` and
    ``charm`` (whose ``.cuda`` and ``.machine`` rank programs use).  The
    rest is written here once; collectives are used with ``yield from``."""

    _coll_seq = 0
    _cpu_free = 0.0  # when this rank's core finishes its queued call costs

    def _next_coll_seq(self) -> int:
        """Per-communicator invocation number; it namespaces a collective's
        wire tags, so overlapping collectives can never alias."""
        s = self._coll_seq
        self._coll_seq = s + 1
        return s

    def _cpu_delay(self, cost: float) -> float:
        """Serialise the CPU cost of a non-blocking call: back-to-back
        Isends from one rank each occupy the core in turn, which is what
        bounds windowed bandwidth at small message sizes."""
        now = self.sim.now
        start = max(now, self._cpu_free)
        self._cpu_free = start + cost
        return self._cpu_free - now

    # -- device memory ------------------------------------------------------------
    def alloc_device(self, nbytes: int) -> Buffer:
        """Allocate ``nbytes`` on this rank's GPU (through the configured
        allocator — pooled when ``MemoryConfig.allocator == "pool"``).
        Exhaustion surfaces as :class:`MpiCommError` with
        ``ERR_NO_MEMORY``, like any other communication fault."""
        try:
            return self.charm.machine.alloc_device(self.gpu, nbytes)
        except OutOfMemory as exc:
            raise MpiCommError(str(exc), UcsStatus.ERR_NO_MEMORY) from exc

    def free_device(self, buf: Buffer) -> None:
        """Free (or pool-return) a buffer from :meth:`alloc_device`."""
        self.charm.machine.free_device(buf)

    # -- point-to-point ------------------------------------------------------------
    def isend(self, buf: Buffer, nbytes: int, dst: int, tag: int = 0) -> MpiRequest:
        return MpiRequest(self.send(buf, nbytes, dst, tag), "send")

    def irecv(
        self, buf: Buffer, capacity: int, src: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> MpiRequest:
        return MpiRequest(self.recv(buf, capacity, src, tag), "recv")

    def sendrecv(
        self,
        sendbuf: Buffer,
        send_bytes: int,
        dst: int,
        recvbuf: Buffer,
        recv_capacity: int,
        src: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> SimEvent:
        """``MPI_Sendrecv``: both directions in flight (the receive posted
        first), completes when both do."""
        r = self.recv(recvbuf, recv_capacity, src, recvtag)
        s = self.send(sendbuf, send_bytes, dst, sendtag)
        return AllOf(self.sim, [s, r])

    def waitall(self, requests: List[MpiRequest]) -> SimEvent:
        return waitall(self.sim, requests)

    # -- device-buffer collectives (topology-aware algorithm selection) --------------
    def bcast_device(self, buf: Buffer, nbytes: int, root: int = 0, *,
                     algorithm: Optional[str] = None):
        return _coll_engine.bcast_device(
            self._coll_endpoint(), buf, nbytes, root, algorithm
        )

    def reduce_device(self, buf: Buffer, nbytes: int, op=ReduceOp.SUM,
                      root: int = 0, *, algorithm: Optional[str] = None):
        return _coll_engine.reduce_device(
            self._coll_endpoint(), buf, nbytes, op, root, algorithm
        )

    def allreduce_device(self, buf: Buffer, nbytes: int, op=ReduceOp.SUM, *,
                         algorithm: Optional[str] = None):
        return _coll_engine.allreduce_device(
            self._coll_endpoint(), buf, nbytes, op, algorithm
        )

    def allgather_device(self, buf: Buffer, nbytes: int,
                         recvbuf: Optional[Buffer] = None, *,
                         algorithm: Optional[str] = None):
        return _coll_engine.allgather_device(
            self._coll_endpoint(), buf, nbytes, recvbuf, algorithm
        )


class MpiJob:
    """An MPI library object: ``machine``, ``ranks`` and the launch of one
    program on every rank."""

    _PROCESS: str  # process-name prefix of the rank programs

    def launch(self, program, *args) -> SimEvent:
        """Start ``program(rank, *args)`` as a process on every rank;
        returns an event that fires when all rank programs finish."""
        sim = self.machine.sim
        procs = [
            Process(sim, program(r, *args), name=f"{self._PROCESS}.rank{r.rank}")
            for r in self.ranks
        ]
        return AllOf(sim, procs)


class _AmpiComm(MpiRank):
    """An AMPI communicator — the world rank (:class:`AmpiRank`) or a
    sub-communicator (:class:`CommView`).

    Value collectives ride the envelope path via the communicator's
    ``coll_send_value``/``coll_recv_value`` protocol; ``*_device``
    collectives run the topology-aware algorithms of
    :mod:`repro.collectives` over the GPU point-to-point path."""

    def _coll_endpoint(self) -> AmpiCollEndpoint:
        return AmpiCollEndpoint(self)

    # -- host-value collectives -----------------------------------------------------
    def barrier(self):
        return _coll_value.barrier(self)

    def bcast(self, value: Any, root: int = 0, nbytes: int = 8):
        return _coll_value.bcast(self, value, root, nbytes)

    def reduce(self, value: Any, op=ReduceOp.SUM, root: int = 0, nbytes: int = 8):
        return _coll_value.reduce(self, value, op, root, nbytes)

    def allreduce(self, value: Any, op=ReduceOp.SUM, nbytes: int = 8):
        return _coll_value.allreduce(self, value, op, nbytes)

    def gather(self, value: Any, root: int = 0, nbytes: int = 8):
        return _coll_value.gather(self, value, root, nbytes)

    def allgather(self, value: Any, nbytes: int = 8):
        return _coll_value.allgather(self, value, nbytes)

    def scatter(self, values: Optional[List[Any]], root: int = 0, nbytes: int = 8):
        return _coll_value.scatter(self, values, root, nbytes)

    def alltoall(self, values: List[Any], nbytes: int = 8):
        return _coll_value.alltoall(self, values, nbytes)


class AmpiRank(_AmpiComm):
    """One MPI rank (a chare on some PE).  All communication methods return
    yieldable events or :class:`MpiRequest` handles; rank *programs* are
    generator functions driven by the simulator."""

    def __init__(self, ampi: "Ampi", rank: int, pe: int) -> None:
        self.ampi = ampi
        self.rank = rank
        self.pe = pe
        self.matching = MatchEngine()
        tracer = ampi.machine.tracer
        self.matching.posted.depth_probe = tracer.queue_probe("matchq.ampi.posted")
        self.matching.unexpected.depth_probe = tracer.queue_probe(
            "matchq.ampi.unexpected")
        self._seq_to: Dict[int, int] = {}

    # -- identity ---------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.ampi.n_ranks

    @property
    def charm(self) -> Charm:
        return self.ampi.charm

    @property
    def sim(self):
        return self.ampi.charm.sim

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
        return self._send_impl(buf, nbytes, dst, tag, comm=0)

    def recv(
        self, buf: Buffer, capacity: int, src: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> SimEvent:
        """``MPI_Recv`` (yield to block; the event's value is the status)."""
        return self._recv_impl(buf, capacity, src, tag, comm=0)

    # -- collective wire protocol (repro.collectives rides on these) ----------------
    def coll_send_value(self, value: Any, nbytes: int, dst: int, tag: int) -> SimEvent:
        return self._send_impl(
            None, nbytes, dst, tag, _coll_engine.COLL_COMM, value=value
        )

    def coll_recv_value(self, src: int, tag: int) -> SimEvent:
        return self._recv_impl(None, 1 << 62, src, tag, _coll_engine.COLL_COMM)

    def coll_local_source(self, source: int) -> int:
        return source

    # -- probe and sub-communicators ----------------------------------------------
    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG, comm: int = 0):
        """``MPI_Iprobe``: non-blocking check of the unexpected queue.
        Returns ``(flag, status_or_None)`` without consuming the message."""
        probe = PostedMpiRecv(src=src, tag=tag, comm=comm, buf=None,
                              capacity=1 << 62, event=None)
        for env in self.matching.unexpected:
            if probe.matches(env):
                return True, MpiStatus(source=env.src, tag=env.tag,
                                       count=env.size, value=env.value)
        return False, None

    def comm_split(self, color: int, key: Optional[int] = None):
        """``MPI_Comm_split`` (collective; use with ``yield from``).
        Returns a :class:`CommView` containing the ranks that passed the
        same ``color``, ordered by ``key`` (ties broken by world rank)."""
        if key is None:
            key = self.rank
        self._split_count = getattr(self, "_split_count", 0) + 1
        infos = yield from self.allgather((color, key, self.rank), nbytes=24)
        colors = sorted({c for c, _k, _r in infos})
        members = [r for _k, r in sorted(
            (k, r) for c, k, r in infos if c == color
        )]
        comm_id = 1000 + self._split_count * 4096 + colors.index(color)
        return CommView(self, comm_id, members)

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
        rt = ampi.rt
        sim = self.sim
        if not 0 <= dst < ampi.n_ranks:
            raise ValueError(f"destination rank {dst} out of range")
        if 0 <= tag < MAX_USER_TAG or comm != 0:
            pass  # user tag or internal comm: fine
        elif tag < 0:
            raise ValueError("negative tags are reserved")

        ev = SimEvent(sim, name="mpi.send")
        env = AmpiEnvelope(
            src=self.rank, dst=dst, tag=tag, comm=comm, size=nbytes,
            seq=self._next_seq(dst),
        )
        pre = rt.ampi_send_overhead + rt.ampi_metadata_allocs * rt.heap_alloc_cost
        host_bytes = 0

        if buf is not None and nbytes > buf.size:
            raise ValueError(f"send of {nbytes} B from a {buf.size} B buffer")

        if buf is not None:
            is_dev, lookup = ampi.gpu_caches[self.pe].check(buf)
            pre += lookup
        else:
            is_dev = False

        tracer = ampi.machine.tracer
        asp = tracer.stage(AMPI_SEND, attrs=(self.rank, dst, tag, nbytes, is_dev))
        if asp:
            ev.add_callback(lambda _e: asp.end())

        if buf is not None and is_dev:
            # Fig. 7: CkDeviceBuffer + callback; GPU data via LrtsSendDevice.
            def _notify_sender() -> None:
                tracer.charge("ampi", rt.ampi_callback_overhead)
                sim.call_later(rt.ampi_callback_overhead, ev.succeed, None)

            def _send_failed(status) -> None:
                ev.fail(MpiCommError(
                    f"MPI_Send of {nbytes} B r{self.rank}->r{dst} failed: "
                    f"{status.name}", status,
                ))

            dev_meta = CkDeviceBuffer(ptr=buf, size=nbytes)
            env.dev_meta = dev_meta

            def _go_device() -> None:
                with tracer.under(asp):
                    ampi.charm.converse.cmi_send_device(
                        self.pe, ampi.rank_pe(dst), dev_meta,
                        on_complete=_notify_sender, on_error=_send_failed,
                    )
                    ampi._send_envelope(self.pe, env, host_bytes=0)
                tracer.stage(METADATA_SENT, dev_meta.tag)

            tracer.charge("ampi", pre)
            sim.call_later(self._cpu_delay(pre), _go_device)
            return ev

        if value is not None or buf is None:
            env.value = value
            host_bytes = nbytes
            complete_on_delivery = True
        elif nbytes < ampi.eager_threshold:
            bounce = ampi.machine.alloc_host(self.node, max(nbytes, 1))
            bounce.copy_from(buf, nbytes)
            env.payload = bounce
            host_bytes = nbytes
            complete_on_delivery = True
        else:
            env.src_host_buf = buf
            env.host_send_id = next(_host_send_ids)
            ampi.pending_host_sends[env.host_send_id] = ev
            complete_on_delivery = False
            # AMPI packs the user's host data into its message object
            # before handing it to the runtime (datatype handling).
            pre += self.ampi.machine.cfg.topology.host_mem.transfer_time(nbytes)

        def _go_host() -> None:
            with tracer.under(asp):
                ampi._send_envelope(self.pe, env, host_bytes=host_bytes)
            if complete_on_delivery:
                ev.succeed(None)

        tracer.charge("ampi", pre)
        sim.call_later(self._cpu_delay(pre), _go_host)
        return ev

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
        ev = SimEvent(sim, name="mpi.recv")
        req = PostedMpiRecv(src=src, tag=tag, comm=comm, buf=buf, capacity=capacity, event=ev)
        tracer = ampi.machine.tracer
        rsp = tracer.stage(
            AMPI_RECV, cost=rt.ampi_recv_overhead, attrs=(self.rank, src, tag))
        if rsp:
            req.span = rsp
            ev.add_callback(lambda _e: rsp.end())

        def _post() -> None:
            env, scanned = self.matching.match_recv(req)
            if env is not None:
                tracer.charge("ampi", rt.ampi_match_cost * scanned)
                delay = rt.ampi_match_cost * scanned
                sim.call_later(delay, ampi._complete_recv, self, env, req)

        sim.call_later(self._cpu_delay(rt.ampi_recv_overhead), _post)
        return ev


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
        charm.converse.register_handler("ampi_msg", self._handle_envelope)
        charm.converse.register_handler("ampi_fin", self._handle_fin)
        charm.layer.register_device_recv_handler(
            DeviceRecvType.AMPI, lambda op: None  # completion runs via op.on_complete
        )

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
            dst_pe=self.rank_pe(env.dst),
        )
        self.charm.converse.cmi_send(src_pe, msg)

    def _handle_envelope(self, pe, msg: CmiMessage) -> None:
        env: AmpiEnvelope = msg.payload
        tracer = self.machine.tracer
        if env.dev_meta is not None:
            tracer.stage(METADATA_ARRIVED, env.dev_meta.tag)
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
        rt = self.rt
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

            tracer = self.machine.tracer

            def _done(_op: DeviceRdmaOp) -> None:
                tracer.charge("ampi", rt.ampi_callback_overhead)
                sim.call_later(rt.ampi_callback_overhead, req.event.succeed, status)

            def _failed(_op: DeviceRdmaOp, ucs_status) -> None:
                req.event.fail(MpiCommError(
                    f"MPI_Recv of {env.dev_meta.size} B on r{rank.rank} "
                    f"failed: {ucs_status.name}", ucs_status,
                ))

            op = DeviceRdmaOp(
                dest=req.buf,
                size=env.dev_meta.size,
                tag=env.dev_meta.tag,
                recv_type=DeviceRecvType.AMPI,
                on_complete=_done,
                on_error=_failed,
            )
            with tracer.under(req.span):
                self.charm.converse.cmi_recv_device(rank.pe, op)
            return

        if req.buf is not None and req.buf.on_device and env.size > 0:
            req.event.fail(NotImplementedError(
                "host-sent data must be received into a host buffer "
                "(mixed host/device pt2pt is outside the paper's scope)"
            ))
            return

        if env.payload is not None:  # inline eager payload
            copy = self.machine.cfg.topology.host_mem.transfer_time(env.size)

            def _copied() -> None:
                req.buf.copy_from(env.payload, env.size)
                req.event.succeed(status)

            sim.call_later(copy, _copied)
            return

        if env.src_host_buf is not None:  # zero-copy rendezvous fetch
            src_node = env.src_host_buf.node
            src_sock = self.machine.socket_of_gpu(self.rank_pe(env.src))
            dst_sock = self.machine.socket_of_gpu(rank.pe)
            route = self.machine.route(
                self.machine.host_location(src_node, src_sock),
                self.machine.host_location(rank.node, dst_sock),
            )
            pin = 0.0
            if (
                self.rt.model_ampi_128k_dip
                and env.size >= self.rt.ampi_pin_threshold
            ):
                # §IV-B2 artifact: registration/pinning cost at the threshold
                # (delays the fetch; does not occupy the wire)
                pin = self.rt.ampi_pin_overhead + env.size / self.rt.ampi_pin_bandwidth

            # unpack from the message object into the user's recv buffer
            # (charged to the receiving PE after the fetch, not to the link)
            unpack = self.machine.cfg.topology.host_mem.transfer_time(env.size)

            def _fetched() -> None:
                def _unpacked() -> None:
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

                sim.call_later(unpack, _unpacked)

            # pinning is CPU work on the receiving rank: serialise it
            sim.call_later(rank._cpu_delay(pin) if pin else 0.0, path_transfer,
                           sim, route, env.size, 0.0, _fetched)
            return

        # value-based message (collectives) or zero-byte message
        req.event.succeed(status)


class CommView(_AmpiComm):
    """A sub-communicator view produced by :meth:`AmpiRank.comm_split`.

    Exposes the whole rank surface (:class:`MpiRank`) and the value
    collectives in the sub-communicator's rank space; messages travel with
    the sub-communicator's context id, so they never match
    world-communicator traffic.  Identity (``sim``, ``charm``, ``gpu``,
    ``node``) is the world rank's.
    """

    def __init__(self, world_rank: AmpiRank, comm_id: int, members: List[int]) -> None:
        if world_rank.rank not in members:
            raise ValueError("rank is not a member of this communicator")
        self._world = world_rank
        self.comm_id = comm_id
        self.members = list(members)
        self.rank = self.members.index(world_rank.rank)
        self.size = len(self.members)
        self.sim, self.charm = world_rank.sim, world_rank.charm
        self.gpu, self.node = world_rank.gpu, world_rank.node

    def _global(self, local_rank: int) -> int:
        if not 0 <= local_rank < self.size:
            raise ValueError(f"rank {local_rank} out of range for this communicator")
        return self.members[local_rank]

    # -- collective wire protocol ---------------------------------------------------
    @property
    def _coll_comm(self) -> int:
        # high-bit namespace keeps collective traffic disjoint from user
        # pt2pt on the same sub-communicator (which travels with comm_id)
        return (1 << 30) + self.comm_id

    def coll_send_value(self, value: Any, nbytes: int, dst: int, tag: int) -> SimEvent:
        return self._world._send_impl(
            None, nbytes, self._global(dst), tag, self._coll_comm, value=value
        )

    def coll_recv_value(self, src: int, tag: int) -> SimEvent:
        gsrc = ANY_SOURCE if src == ANY_SOURCE else self._global(src)
        return self._world._recv_impl(None, 1 << 62, gsrc, tag, self._coll_comm)

    def coll_local_source(self, source: int) -> int:
        return self.members.index(source)

    # -- point-to-point ------------------------------------------------------------
    def send(self, buf: Buffer, nbytes: int, dst: int, tag: int = 0) -> SimEvent:
        return self._world._send_impl(buf, nbytes, self._global(dst), tag, self.comm_id)

    def recv(self, buf: Buffer, capacity: int, src: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> SimEvent:
        gsrc = ANY_SOURCE if src == ANY_SOURCE else self._global(src)
        return self._world._recv_impl(buf, capacity, gsrc, tag, self.comm_id)

    def local_status(self, status: MpiStatus) -> MpiStatus:
        """Translate a status's world source rank into this communicator."""
        return MpiStatus(
            source=self.members.index(status.source),
            tag=status.tag, count=status.count, value=status.value,
        )
