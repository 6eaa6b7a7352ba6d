"""Per-model endpoints: what a collective invocation needs from its host.

One endpoint object is created per invocation per rank.  It captures the
communicator's identity (local rank/size, the collective-traffic context
id, the invocation's sequence number drawn from the communicator's
counter), the topology lookup, and the model-specific device pt2pt,
scratch-allocation and kernel-launch hooks — so one engine serves AMPI
world/sub-communicators and OpenMPI alike.

``software_overhead`` is the per-message software cost (send plus receive
side) the owning library charges, fed to the cost model so algorithm
crossovers reflect each model's real envelope/posting costs.
"""

from __future__ import annotations

from typing import Optional


class AmpiCollEndpoint:
    """Endpoint over an :class:`~repro.ampi.mpi.AmpiRank` (world) or
    :class:`~repro.ampi.mpi.CommView` (sub-communicator)."""

    def __init__(self, owner) -> None:
        from repro.collectives.engine import COLL_COMM

        world = getattr(owner, "_world", owner)
        self._world = world
        self.rank = owner.rank
        self.size = owner.size
        self._members = getattr(owner, "members", None)
        self.comm = (
            COLL_COMM if world is owner else (1 << 30) + owner.comm_id
        )
        self.seq = owner._next_coll_seq()
        charm = world.charm
        self._ampi = world.ampi
        self._charm = charm
        self._cuda = charm.cuda
        self.gpu = world.gpu
        self.machine = charm.machine
        self.config = self.machine.cfg
        self.coll_config = self.config.collectives
        self.tracer = self.machine.tracer
        rt = self.config.runtime
        self.software_overhead = (
            rt.ampi_send_overhead + rt.ampi_recv_overhead
            + 2 * rt.ampi_callback_overhead
        )

    def _g(self, r: int) -> int:
        return r if self._members is None else self._members[r]

    def node_of(self, r: int) -> int:
        pe = self._ampi.rank_pe(self._g(r))
        return self._charm.pe_object(pe).node

    def device_send(self, buf, nbytes: int, dst: int, tag: int):
        return self._world._send_impl(buf, nbytes, self._g(dst), tag, self.comm)

    def device_recv(self, buf, nbytes: int, src: int, tag: int):
        return self._world._recv_impl(buf, nbytes, self._g(src), tag, self.comm)

    def alloc_scratch(self, nbytes: int):
        return self._cuda.malloc(self.gpu, nbytes)

    def launch_kernel(self, kernel):
        return self._cuda.launch(self.gpu, kernel)


class OmpiCollEndpoint:
    """Endpoint over an :class:`~repro.openmpi.mpi.OmpiRank`.  Collective
    traffic runs in UCP tag context 2, disjoint from user pt2pt (ctx 1)."""

    COLL_CTX = 2

    def __init__(self, rank) -> None:
        self._rank = rank
        self.rank = rank.rank
        self.size = rank.size
        self.seq = rank._next_coll_seq()
        self.gpu = rank.gpu
        lib = rank.lib
        self._lib = lib
        self.machine = lib.machine
        self.config = lib.cfg
        self.coll_config = self.config.collectives
        self.tracer = self.machine.tracer
        rt = lib.rt
        self.software_overhead = rt.ompi_send_overhead + rt.ompi_recv_overhead

    def node_of(self, r: int) -> int:
        return self.machine.node_of_gpu(r)

    def device_send(self, buf, nbytes: int, dst: int, tag: int):
        return self._rank.send(buf, nbytes, dst, tag, _ctx=self.COLL_CTX)

    def device_recv(self, buf, nbytes: int, src: int, tag: int):
        return self._rank.recv(buf, nbytes, src, tag, _ctx=self.COLL_CTX)

    def alloc_scratch(self, nbytes: int):
        return self._lib.cuda.malloc(self.gpu, nbytes)

    def launch_kernel(self, kernel):
        return self._lib.cuda.launch(self.gpu, kernel)
