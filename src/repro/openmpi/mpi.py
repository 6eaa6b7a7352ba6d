"""OpenMPI-over-UCX: matching delegated to UCP tags.

MPI matching ``(communicator, source, tag)`` is encoded into the 64-bit UCP
tag — the standard trick of UCX-based MPI implementations::

    | ctx (8 bits) | source rank (24 bits) | user tag (32 bits) |

``MPI_ANY_SOURCE``/``MPI_ANY_TAG`` become wildcard masks.  Receives are
posted to UCX immediately — the structural advantage over AMPI's
metadata-message design that the paper quantifies at ~8 μs per message.

That wire protocol (``send``/``recv``/``barrier`` below) is all this
module adds: the rest of the rank surface is
:class:`repro.ampi.mpi.MpiRank`'s, shared with AMPI.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.ampi.mpi import (
    MpiCommError,
    MpiJob,
    MpiRank,
    MpiStatus,
    MpiTruncationError,
)
from repro.collectives.endpoints import OmpiCollEndpoint
from repro.collectives.engine import tag_base
from repro.config import MachineConfig
from repro.hardware.memory import Buffer
from repro.hardware.topology import Machine
from repro.obs.stages import OMPI_RECV, OMPI_SEND
from repro.sim.primitives import SimEvent
from repro.ucx.context import UcpContext
from repro.ucx.status import UcsStatus

ANY_SOURCE = -1
ANY_TAG = -1

_CTX_SHIFT = 56
_SRC_SHIFT = 32
_SRC_BITS = 24
_TAG_BITS = 32
_FULL = (1 << 64) - 1


def encode_mpi_tag(src: int, tag: int, ctx: int = 1) -> int:
    if not 0 <= src < (1 << _SRC_BITS):
        raise ValueError(f"source rank {src} out of range")
    if not 0 <= tag < (1 << _TAG_BITS):
        raise ValueError(f"tag {tag} out of range")
    return (ctx << _CTX_SHIFT) | (src << _SRC_SHIFT) | tag


def decode_mpi_tag(ucp_tag: int) -> tuple[int, int]:
    """Returns (source, tag)."""
    return (ucp_tag >> _SRC_SHIFT) & ((1 << _SRC_BITS) - 1), ucp_tag & ((1 << _TAG_BITS) - 1)


def match_mask(src: int, tag: int) -> int:
    mask = _FULL
    if src == ANY_SOURCE:
        mask &= ~(((1 << _SRC_BITS) - 1) << _SRC_SHIFT)
    if tag == ANY_TAG:
        mask &= ~((1 << _TAG_BITS) - 1)
    return mask


class OmpiRank(MpiRank):
    """One OpenMPI process (one per GPU, as in the paper's runs)."""

    def __init__(self, lib: "OpenMpi", rank: int) -> None:
        self.lib = lib
        self.rank = rank
        self.gpu = rank
        self.node = lib.machine.node_of_gpu(rank)
        self.worker = lib.ucp.create_worker(rank, self.node, lib.machine.socket_of_gpu(rank))
        self.pe = rank  # API compatibility with AmpiRank

    @property
    def size(self) -> int:
        return self.lib.n_ranks

    @property
    def sim(self):
        return self.lib.machine.sim

    @property
    def charm(self):  # API compatibility shim: exposes .cuda and .machine
        return self.lib

    def _coll_endpoint(self) -> OmpiCollEndpoint:
        return OmpiCollEndpoint(self)

    # -- point-to-point ------------------------------------------------------------
    def send(self, buf: Buffer, nbytes: int, dst: int, tag: int = 0, *,
             _ctx: int = 1) -> SimEvent:
        ev = SimEvent(self.sim, name="ompi.send")
        ucp_tag = encode_mpi_tag(self.rank, tag, _ctx)
        tracer = self.lib.machine.tracer
        sp = tracer.stage(
            OMPI_SEND, cost=self.lib.rt.ompi_send_overhead,
            attrs=(self.rank, dst, tag, nbytes),
        )

        def _complete(_req) -> None:
            sp.end()
            if _req.status is not UcsStatus.OK:
                ev.fail(MpiCommError(
                    f"MPI_Send r{self.rank}->r{dst} failed: {_req.status.name}",
                    _req.status,
                ))
                return
            ev.succeed(None)

        def _post() -> None:
            ep = self.worker.ep(dst)
            with tracer.under(sp):
                self.worker.tag_send_nb(ep, buf, nbytes, ucp_tag, cb=_complete)

        self.sim.call_later(self._cpu_delay(self.lib.rt.ompi_send_overhead), _post)
        return ev

    def recv(
        self, buf: Buffer, capacity: int, src: int = ANY_SOURCE, tag: int = ANY_TAG,
        *, _ctx: int = 1,
    ) -> SimEvent:
        ev = SimEvent(self.sim, name="ompi.recv")
        want = encode_mpi_tag(
            0 if src == ANY_SOURCE else src, 0 if tag == ANY_TAG else tag, _ctx
        )
        mask = match_mask(src, tag)  # ctx bits are always matched
        tracer = self.lib.machine.tracer
        sp = tracer.stage(
            OMPI_RECV, cost=self.lib.rt.ompi_recv_overhead,
            attrs=(self.rank, src, tag),
        )

        def _complete(req) -> None:
            sp.end()
            if req.status is UcsStatus.ERR_MESSAGE_TRUNCATED:
                ev.fail(MpiTruncationError("posted receive too small"))
                return
            if req.status is not UcsStatus.OK:
                # info is None on cancellation/timeout — fail, don't unpack
                ev.fail(MpiCommError(
                    f"MPI_Recv on r{self.rank} failed: {req.status.name}",
                    req.status,
                ))
                return
            got_tag, got_len = req.info
            s, t = decode_mpi_tag(got_tag)
            ev.succeed(MpiStatus(source=s, tag=t, count=got_len))

        def _post() -> None:
            with tracer.under(sp):
                self.worker.tag_recv_nb(buf, capacity, want, mask, cb=_complete)

        self.sim.call_later(self._cpu_delay(self.lib.rt.ompi_recv_overhead), _post)
        return ev

    # -- collectives (use with ``yield from``) -----------------------------------------
    def barrier(self):
        """Dissemination barrier over 1-byte host messages, in the
        collective tag context and namespaced by the invocation's sequence
        number (overlapping barriers can never alias)."""
        base = tag_base(self._next_coll_seq())
        p = self.size
        if p == 1:
            return
        token = self.lib.machine.alloc_host(self.node, 1)
        sink = self.lib.machine.alloc_host(self.node, 1)
        k = 1
        round_no = 0
        while k < p:
            dst = (self.rank + k) % p
            src = (self.rank - k) % p
            tag = base + round_no
            send = self.send(token, 1, dst, tag, _ctx=OmpiCollEndpoint.COLL_CTX)
            yield self.recv(sink, 1, src, tag, _ctx=OmpiCollEndpoint.COLL_CTX)
            yield send
            k <<= 1
            round_no += 1


class OpenMpi(MpiJob):
    """One OpenMPI job on its own simulated machine."""

    _PROCESS = "ompi"

    def __init__(
        self, config: Optional[MachineConfig] = None, n_ranks: Optional[int] = None
    ) -> None:
        self.cfg = config if config is not None else MachineConfig.summit()
        self.machine = Machine(self.cfg)
        self.rt = self.cfg.runtime
        self.ucp = UcpContext(self.machine)
        self.cuda = self.ucp.cuda
        total = self.cfg.topology.total_gpus
        self.n_ranks = n_ranks if n_ranks is not None else total
        if self.n_ranks > total:
            raise ValueError("one process per GPU: too many ranks")
        self.ranks = [OmpiRank(self, r) for r in range(self.n_ranks)]

    def run_until(self, event: SimEvent, max_events: Optional[int] = None) -> Any:
        return self.machine.sim.run_until_complete(event, max_events=max_events)
