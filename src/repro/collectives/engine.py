"""Execution context and entry point of the device allreduce.

``CollContext`` is what the algorithm generators program against: local
rank/size, tag derivation, device pt2pt, scratch allocation, the combine
kernel, and per-operation observability spans.  ``sub()`` derives the
remapped context a hierarchical phase runs in.

Wire-tag namespacing (the fix for the old fixed ``0x10_0000``-style bases):
every invocation draws a sequence number from its rank's counter,
and each tag packs ``(seq, phase, step)``::

    | seq (11 bits) | phase (3 bits) | step (17 bits) |   < 2**31

Steps are fixed by the algorithm's schedule (round index), so all ranks of
an invocation agree on tags without coordination, and overlapping
collectives of any type on one rank can never alias each other.

``allreduce_device`` takes the calling rank, an
:class:`~repro.ampi.mpi.AmpiRank`.  When called it draws the
sequence number and validates its arguments; the generator it returns
resolves the algorithm through :mod:`~repro.collectives.selection` and
wraps the run in a ``coll`` root span plus ``coll.allreduce.{algorithm}``
counters.  Per-operation child spans carry category ``coll.intra`` or
``coll.inter`` (classified by peer node, or fixed by the hierarchy phase),
which is what lets the critical-path analyzer blame intra- vs inter-node
phases.
"""

from __future__ import annotations

from typing import List, Optional

# the algorithm modules fill the selection registry, in this order
from repro.collectives import algorithms, hierarchy  # noqa: F401
from repro.collectives.ops import DEVICE_OPS, ReduceOp, combine_kernel
from repro.collectives.selection import CollectiveCostModel, select
from repro.obs.tracing import NULL_SPAN
from repro.sim.primitives import Then

__all__ = ["CollContext", "allreduce_device", "tag_base"]

STEP_BITS = 17
PHASE_BITS = 3
_SEQ_MASK = 0x7FF  # 11 bits of sequence keep tags under 2**31; 2048
# in-flight collectives per rank is far beyond any overlap the runtime can
# produce


def tag_base(seq: int, phase: int = 0) -> int:
    """Tag of step 0 of one invocation's ``phase``; add the step to it."""
    return ((seq & _SEQ_MASK) << (STEP_BITS + PHASE_BITS)) | (phase << STEP_BITS)


class CollContext:
    """One rank's view of one collective invocation (or one phase of it).

    ``comm`` is the calling AMPI rank: the context reads its identity, GPU
    and machine through the rank surface, and moves data on the rank's
    collective wire context (``coll_send``/``coll_recv``)."""

    def __init__(
        self,
        comm,
        seq: int,
        algorithm: str,
        members: Optional[List[int]] = None,
        phase: int = 0,
        kind: Optional[str] = None,
        root_span=NULL_SPAN,
        model: Optional[CollectiveCostModel] = None,
    ) -> None:
        self.comm = comm
        self.seq = seq
        self.algorithm = algorithm
        self._members = members  # world ranks, None = every rank
        self.rank = comm.rank if members is None else members.index(comm.rank)
        self.size = comm.size if members is None else len(members)
        self.kind = kind  # None = classify per peer; fixed in sub-phases
        self.root_span = root_span
        self._tag_base = tag_base(seq, phase)
        self._model = model

    # -- rank/topology ----------------------------------------------------------
    def _global(self, r: int) -> int:
        """Context-local rank -> world rank."""
        return r if self._members is None else self._members[r]

    @property
    def model(self) -> CollectiveCostModel:
        """Cost model of this context's group (for phase-level selection)."""
        if self._model is None:
            self._model = CollectiveCostModel.of(
                self.comm.ampi, [self._global(r) for r in range(self.size)])
        return self._model

    def sub(self, members: List[int], phase: int, kind: str) -> "CollContext":
        """A sub-group context: ``members`` are ranks of *this* context, the
        phase namespaces its tags, ``kind`` fixes span classification."""
        return CollContext(
            self.comm, self.seq, self.algorithm,
            members=[self._global(r) for r in members],
            phase=phase, kind="coll." + kind, root_span=self.root_span,
        )

    # -- communication ----------------------------------------------------------
    def _tag(self, step: int) -> int:
        if not 0 <= step < (1 << STEP_BITS):
            raise ValueError(f"collective step {step} out of tag range")
        return self._tag_base | step

    def _wrap(self, ev, category: str, name: str, **attrs):
        tr = self.comm.charm.machine.tracer
        if tr.enabled:
            sp = tr.span(category, name, parent=self.root_span, **attrs)
            ev.add_callback(Then((sp.end, ())).run)
        return ev

    def _peer_kind(self, peer: int) -> str:
        if self.kind is not None:
            return self.kind
        nodes = self.model.nodes
        return "coll.inter" if nodes[peer] != nodes[self.rank] else "coll.intra"

    def send(self, buf, nbytes: int, dst: int, step: int):
        g = self._global(dst)
        ev = self.comm.coll_send(buf, nbytes, g, self._tag(step))
        return self._wrap(ev, self._peer_kind(dst), f"{self.algorithm}.send",
                          peer=g, bytes=nbytes, step=step)

    def recv(self, buf, nbytes: int, src: int, step: int):
        g = self._global(src)
        ev = self.comm.coll_recv(buf, nbytes, g, self._tag(step))
        return self._wrap(ev, self._peer_kind(src), f"{self.algorithm}.recv",
                          peer=g, bytes=nbytes, step=step)

    # -- local work -------------------------------------------------------------
    def combine(self, acc, incoming, nbytes: int, op: ReduceOp):
        ev = self.comm.charm.cuda.launch(
            self.comm.gpu, combine_kernel(acc, incoming, nbytes, op))
        return self._wrap(ev, self.kind or "coll.intra",
                          f"{self.algorithm}.combine", bytes=nbytes)

    def scratch(self, nbytes: int):
        return self.comm.charm.cuda.malloc(self.comm.gpu, nbytes)


# -- entry point -----------------------------------------------------------------
def allreduce_device(comm, buf, nbytes: int, op=ReduceOp.SUM,
                     algorithm: Optional[str] = None):
    seq = comm._next_coll_seq()
    op = ReduceOp.of(op)
    if op not in DEVICE_OPS:
        valid = sorted(m.value for m in DEVICE_OPS)
        raise ValueError(f"device collectives support {valid}, not {op.value!r}")
    if not buf.on_device:
        raise ValueError("allreduce_device requires a device buffer")
    if nbytes > buf.size:
        raise ValueError(f"allreduce_device of {nbytes} B from a {buf.size} B buffer")
    return _run(comm, seq, nbytes, algorithm, buf, op)


def _run(comm, seq: int, nbytes: int, algorithm: Optional[str], buf, op):
    cfg = comm.charm.machine.cfg
    model = CollectiveCostModel.of(comm.ampi, range(comm.size))
    spec = select(model, nbytes, algorithm, cfg.collectives.hierarchical_enabled)
    ctx = CollContext(comm, seq, spec.name, model=model)
    tr = comm.charm.machine.tracer
    tr.count("coll", "allreduce")
    tr.count("coll", f"allreduce.{spec.name}")
    if tr.enabled:
        ctx.root_span = tr.span(
            "coll", f"allreduce.{spec.name}",
            rank=comm.rank, size=comm.size, bytes=nbytes,
        )
    try:
        yield from spec.run(ctx, buf, nbytes, op)
    finally:
        ctx.root_span.end()
