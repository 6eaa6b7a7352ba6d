"""The MPI rank surface AMPI and OpenMPI share.

AMPI (:mod:`repro.ampi`) and OpenMPI (:mod:`repro.openmpi`) sit on the same
UCX stack and differ only in how a message reaches it (paper §IV-B1): an
envelope plus a metadata-gated post, or a tagged receive posted directly.
What every MPI rank offers around its library's ``send``/``recv`` is
written here once, outside both model packages, so a session of one MPI
library imports nothing of the other: the status and error types, the
request handle, :class:`MpiRank` and :class:`MpiJob`.  It imports nothing of
:mod:`repro.collectives` either: the device allreduce is AMPI's
(:class:`repro.ampi.mpi.AmpiRank`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.hardware.memory import Buffer, OutOfMemory
from repro.sim.primitives import AllOf, SimEvent
from repro.sim.process import Process
from repro.ucx.status import UcsStatus

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(slots=True)
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


class MpiRequest:
    """Handle for a non-blocking operation; ``.event`` is yieldable.

    ``MPI_Wait`` is ``yield req.event``; ``MPI_Test`` is
    ``req.event.triggered``.
    The event's value is the :class:`MpiStatus` for receives, ``None`` for
    sends.
    """

    __slots__ = ("event",)

    def __init__(self, event: SimEvent) -> None:
        self.event = event


def waitall(sim, requests) -> SimEvent:
    """``MPI_Waitall``: yieldable event carrying the list of statuses."""
    return AllOf(sim, [r.event for r in requests])


class MpiRank:
    """What every MPI rank offers around its library's ``send``/``recv``.

    A rank class supplies the difference between the two libraries —
    ``send`` and ``recv`` — and its identity: ``rank``, ``size``, ``sim``,
    ``gpu``, ``node`` and ``charm`` (whose ``.cuda`` and ``.machine`` rank
    programs use).  The rest is written here once."""

    _cpu_free = 0.0  # when this rank's core finishes its queued call costs

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
        return MpiRequest(self.send(buf, nbytes, dst, tag))

    def irecv(
        self, buf: Buffer, capacity: int, src: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> MpiRequest:
        return MpiRequest(self.recv(buf, capacity, src, tag))

    def waitall(self, requests: List[MpiRequest]) -> SimEvent:
        return waitall(self.sim, requests)


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
