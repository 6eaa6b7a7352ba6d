"""OpenMPI-over-UCX: matching delegated to UCP tags.

MPI matching ``(communicator, source, tag)`` is encoded into the 64-bit UCP
tag — the standard trick of UCX-based MPI implementations::

    | ctx (8 bits) | source rank (24 bits) | user tag (32 bits) |

``MPI_ANY_SOURCE``/``MPI_ANY_TAG`` become wildcard masks.  Receives are
posted to UCX immediately — the structural advantage over AMPI's
metadata-message design that the paper quantifies at ~8 μs per message.

That wire protocol (``send``/``recv`` below) is all this module adds: the
rest of the rank surface is :class:`repro.mpi.MpiRank`'s, shared with AMPI.
An OpenMPI session imports nothing of :mod:`repro.collectives`.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MachineConfig
from repro.hardware.memory import Buffer
from repro.hardware.topology import Machine
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MpiCommError,
    MpiJob,
    MpiRank,
    MpiStatus,
    MpiTruncationError,
)
from repro.obs.stages import OMPI_RECV, OMPI_SEND
from repro.sim.primitives import SimEvent
from repro.ucx.context import UcpContext
from repro.ucx.status import UcsStatus

_CTX_SHIFT = 56
_SRC_SHIFT = 32
_SRC_BITS = 24
_TAG_BITS = 32
_FULL = (1 << 64) - 1
#: the ctx field of every message: the world communicator's
_WORLD_CTX = 1


def encode_mpi_tag(src: int, tag: int) -> int:
    if not 0 <= src < (1 << _SRC_BITS):
        raise ValueError(f"source rank {src} out of range")
    if not 0 <= tag < (1 << _TAG_BITS):
        raise ValueError(f"tag {tag} out of range")
    return (_WORLD_CTX << _CTX_SHIFT) | (src << _SRC_SHIFT) | tag


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
        self.sim = lib.machine.sim
        self.rank = rank
        self.gpu = rank
        self.node = lib.machine.node_of_gpu(rank)
        self.worker = lib.ucp.create_worker(rank, self.node, lib.machine.socket_of_gpu(rank))
        self.pe = rank  # API compatibility with AmpiRank

    @property
    def size(self) -> int:
        return self.lib.n_ranks

    @property
    def charm(self):  # API compatibility shim: exposes .cuda and .machine
        return self.lib

    # -- point-to-point ------------------------------------------------------------
    def send(self, buf: Buffer, nbytes: int, dst: int, tag: int = 0) -> SimEvent:
        if not 0 <= dst < self.lib.n_ranks:
            raise ValueError(f"destination rank {dst} out of range")
        ev = _Send(self.sim, name="ompi.send")
        ev.rank, ev.peer = self, dst
        ucp_tag = encode_mpi_tag(self.rank, tag)
        ev.span = self.lib.machine.tracer.stage(
            OMPI_SEND, cost=self.lib.rt.ompi_send_overhead,
            attrs=(self.rank, dst, tag, nbytes),
        )
        self.sim.call_later(self._cpu_delay(self.lib.rt.ompi_send_overhead),
                            self._post_send, buf, nbytes, ucp_tag, ev)
        return ev

    def _post_send(self, buf: Buffer, nbytes: int, ucp_tag: int, ev: "_Send") -> None:
        ep = self.worker.ep(ev.peer)
        with self.lib.machine.tracer.under(ev.span):
            self.worker.tag_send_nb(ep, buf, nbytes, ucp_tag, cb=ev)

    def recv(
        self, buf: Buffer, capacity: int, src: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> SimEvent:
        if src != ANY_SOURCE and not 0 <= src < self.lib.n_ranks:
            raise ValueError(f"source rank {src} out of range")
        ev = _Recv(self.sim, name="ompi.recv")
        ev.rank = self
        want = encode_mpi_tag(
            0 if src == ANY_SOURCE else src, 0 if tag == ANY_TAG else tag
        )
        mask = match_mask(src, tag)  # ctx bits are always matched
        ev.span = self.lib.machine.tracer.stage(
            OMPI_RECV, cost=self.lib.rt.ompi_recv_overhead,
            attrs=(self.rank, src, tag),
        )
        self.sim.call_later(self._cpu_delay(self.lib.rt.ompi_recv_overhead),
                            self._post_recv, buf, capacity, want, mask, ev)
        return ev

    def _post_recv(self, buf: Buffer, capacity: int, want: int, mask: int,
                   ev: "_Recv") -> None:
        with self.lib.machine.tracer.under(ev.span):
            self.worker.tag_recv_nb(buf, capacity, want, mask, cb=ev)


class _Request(SimEvent):
    """The event of an OpenMPI send or receive.  It carries the posting
    rank, the destination of a send and the span, and is itself the UCP
    request's completion callback: the in-flight message holds neither a
    closure nor a bound method (DESIGN §4.5)."""

    __slots__ = ("rank", "peer", "span")


class _Send(_Request):
    __slots__ = ()

    def __call__(self, req) -> None:
        rank = self.rank
        rank.lib.machine.tracer.end(self.span)
        if req.status is not UcsStatus.OK:
            self.fail(MpiCommError(
                f"MPI_Send r{rank.rank}->r{self.peer} failed: {req.status.name}",
                req.status,
            ))
            return
        self.succeed(None)


class _Recv(_Request):
    __slots__ = ()

    def __call__(self, req) -> None:
        rank = self.rank
        rank.lib.machine.tracer.end(self.span)
        if req.status is UcsStatus.ERR_MESSAGE_TRUNCATED:
            self.fail(MpiTruncationError("posted receive too small"))
            return
        if req.status is not UcsStatus.OK:
            # info is None on cancellation/timeout — fail, don't unpack
            self.fail(MpiCommError(
                f"MPI_Recv on r{rank.rank} failed: {req.status.name}",
                req.status,
            ))
            return
        got_tag, got_len = req.info
        s, t = decode_mpi_tag(got_tag)
        self.succeed(MpiStatus(source=s, tag=t, count=got_len))


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
