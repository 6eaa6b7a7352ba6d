"""Execution context and entry points of the device collectives.

``CollContext`` is what the algorithm generators program against: local
rank/size, tag derivation, device pt2pt, scratch allocation, combine/copy
kernels, and per-operation observability spans.  ``sub()`` derives the
remapped context a hierarchical phase runs in.

Wire-tag namespacing (the fix for the old fixed ``0x10_0000``-style bases):
every invocation draws a sequence number from its communicator's counter,
and each tag packs ``(seq, phase, step)``::

    | seq (11 bits) | phase (3 bits) | step (17 bits) |   < 2**31

Steps are fixed by the algorithm's schedule (round/chunk index), so all
ranks of an invocation agree on tags without coordination, and overlapping
collectives of any type on one communicator can never alias each other.

Entry points (``bcast_device``/``reduce_device``/``allreduce_device``/
``allgather_device``) validate arguments, resolve the algorithm through
:mod:`~repro.collectives.selection`, and wrap the run in a ``coll`` root
span plus ``coll.{collective}.{algorithm}`` counters.  Per-operation child
spans carry category ``coll.intra`` or ``coll.inter`` (classified by peer
node, or fixed by the hierarchy phase), which is what lets the
critical-path analyzer blame intra- vs inter-node phases.
"""

from __future__ import annotations

from typing import List, Optional

from repro.collectives.ops import DEVICE_OPS, ReduceOp, combine_kernel, copy_kernel
from repro.collectives.selection import CollectiveCostModel, select
from repro.obs.tracing import NULL_SPAN

__all__ = [
    "COLL_COMM",
    "CollContext",
    "allgather_device",
    "allreduce_device",
    "bcast_device",
    "reduce_device",
    "tag_base",
]

#: The reserved internal communicator id of world-communicator collectives.
COLL_COMM = 1

STEP_BITS = 17
PHASE_BITS = 3
_SEQ_MASK = 0x7FF  # 11 bits of sequence keep tags under 2**31 (OpenMPI's
# user-tag field is 32 bits); 2048 in-flight collectives per communicator
# is far beyond any overlap the runtime can produce


def tag_base(seq: int, phase: int = 0) -> int:
    """Tag of step 0 of one invocation's ``phase``; add the step to it."""
    return ((seq & _SEQ_MASK) << (STEP_BITS + PHASE_BITS)) | (phase << STEP_BITS)


class CollContext:
    """One rank's view of one collective invocation (or one phase of it)."""

    def __init__(
        self,
        ep,
        collective: str,
        algorithm: str,
        members: Optional[List[int]] = None,
        phase: int = 0,
        kind: Optional[str] = None,
        root_span=NULL_SPAN,
    ) -> None:
        self.ep = ep
        self.collective = collective
        self.algorithm = algorithm
        self._members = members  # comm-local ranks, None = whole communicator
        self.rank = ep.rank if members is None else members.index(ep.rank)
        self.size = ep.size if members is None else len(members)
        self.chunk_bytes = ep.coll_config.ring_chunk
        self.kind = kind  # None = classify per peer; fixed in sub-phases
        self.root_span = root_span
        self._tag_base = tag_base(ep.seq, phase)
        self._my_node = ep.node_of(self._global(self.rank))
        self._model: Optional[CollectiveCostModel] = None

    # -- rank/topology ----------------------------------------------------------
    def _global(self, r: int) -> int:
        """Context-local rank -> communicator-local rank."""
        return r if self._members is None else self._members[r]

    def node_of(self, r: int) -> int:
        return self.ep.node_of(self._global(r))

    @property
    def model(self) -> CollectiveCostModel:
        """Cost model of this context's group (for phase-level selection)."""
        if self._model is None:
            self._model = CollectiveCostModel(
                self.ep.config,
                [self.node_of(r) for r in range(self.size)],
                self.ep.software_overhead,
            )
        return self._model

    def sub(self, members: List[int], phase: int, kind: str) -> "CollContext":
        """A sub-group context: ``members`` are ranks of *this* context, the
        phase namespaces its tags, ``kind`` fixes span classification."""
        return CollContext(
            self.ep, self.collective, self.algorithm,
            members=[self._global(r) for r in members],
            phase=phase, kind="coll." + kind, root_span=self.root_span,
        )

    # -- communication ----------------------------------------------------------
    def _tag(self, step: int) -> int:
        if not 0 <= step < (1 << STEP_BITS):
            raise ValueError(f"collective step {step} out of tag range")
        return self._tag_base | step

    def _wrap(self, ev, category: str, name: str, **attrs):
        tr = self.ep.tracer
        if tr.enabled:
            sp = tr.span(category, name, parent=self.root_span, **attrs)
            ev.add_callback(lambda _e, _sp=sp: _sp.end())
        return ev

    def _peer_kind(self, peer_global: int) -> str:
        if self.kind is not None:
            return self.kind
        if self.ep.node_of(peer_global) != self._my_node:
            return "coll.inter"
        return "coll.intra"

    def send(self, buf, nbytes: int, dst: int, step: int):
        g = self._global(dst)
        ev = self.ep.device_send(buf, nbytes, g, self._tag(step))
        return self._wrap(ev, self._peer_kind(g), f"{self.algorithm}.send",
                          peer=g, bytes=nbytes, step=step)

    def recv(self, buf, nbytes: int, src: int, step: int):
        g = self._global(src)
        ev = self.ep.device_recv(buf, nbytes, g, self._tag(step))
        return self._wrap(ev, self._peer_kind(g), f"{self.algorithm}.recv",
                          peer=g, bytes=nbytes, step=step)

    # -- local work -------------------------------------------------------------
    def combine(self, acc, incoming, nbytes: int, op: ReduceOp):
        ev = self.ep.launch_kernel(combine_kernel(acc, incoming, nbytes, op))
        return self._wrap(ev, self.kind or "coll.intra",
                          f"{self.algorithm}.combine", bytes=nbytes)

    def copy_local(self, dst, src, nbytes: int):
        ev = self.ep.launch_kernel(copy_kernel(dst, src, nbytes))
        return self._wrap(ev, self.kind or "coll.intra",
                          f"{self.algorithm}.pack", bytes=nbytes)

    def scratch(self, nbytes: int):
        return self.ep.alloc_scratch(nbytes)


# -- entry points -------------------------------------------------------------------
def _require_device(buf, nbytes: int, what: str) -> None:
    if not buf.on_device:
        raise ValueError(f"{what} requires a device buffer")
    if nbytes > buf.size:
        raise ValueError(f"{what} of {nbytes} B from a {buf.size} B buffer")


def _device_op(op) -> ReduceOp:
    op = ReduceOp.of(op)
    if op not in DEVICE_OPS:
        valid = sorted(m.value for m in DEVICE_OPS)
        raise ValueError(f"device collectives support {valid}, not {op.value!r}")
    return op


def _resolve(ep, collective: str, nbytes: int, algorithm: Optional[str]):
    model = CollectiveCostModel(
        ep.config,
        [ep.node_of(r) for r in range(ep.size)],
        ep.software_overhead,
    )
    return select(collective, model, nbytes, algorithm,
                  ep.coll_config.hierarchical_enabled)


def _run(ep, collective: str, spec, nbytes: int, args):
    ctx = CollContext(ep, collective, spec.name)
    tr = ep.tracer
    tr.count("coll", collective)
    tr.count("coll", f"{collective}.{spec.name}")
    if tr.enabled:
        ctx.root_span = tr.span(
            "coll", f"{collective}.{spec.name}",
            rank=ep.rank, size=ep.size, bytes=nbytes,
        )
    try:
        result = yield from spec.run(ctx, *args)
    finally:
        ctx.root_span.end()
    return result


def bcast_device(ep, buf, nbytes: int, root: int = 0,
                 algorithm: Optional[str] = None):
    _require_device(buf, nbytes, "bcast_device")
    spec = _resolve(ep, "bcast", nbytes, algorithm)
    return (yield from _run(ep, "bcast", spec, nbytes, (buf, nbytes, root)))


def reduce_device(ep, buf, nbytes: int, op=ReduceOp.SUM, root: int = 0,
                  algorithm: Optional[str] = None):
    op = _device_op(op)
    _require_device(buf, nbytes, "reduce_device")
    spec = _resolve(ep, "reduce", nbytes, algorithm)
    return (yield from _run(ep, "reduce", spec, nbytes, (buf, nbytes, op, root)))


def allreduce_device(ep, buf, nbytes: int, op=ReduceOp.SUM,
                     algorithm: Optional[str] = None):
    op = _device_op(op)
    _require_device(buf, nbytes, "allreduce_device")
    spec = _resolve(ep, "allreduce", nbytes, algorithm)
    return (yield from _run(ep, "allreduce", spec, nbytes, (buf, nbytes, op)))


def allgather_device(ep, buf, nbytes: int, recvbuf=None,
                     algorithm: Optional[str] = None):
    """Gather every rank's ``nbytes`` device block into ``recvbuf`` (rank
    order); allocates and returns a fresh device buffer when none given."""
    _require_device(buf, nbytes, "allgather_device")
    if recvbuf is None:
        recvbuf = ep.alloc_scratch(ep.size * nbytes)
    _require_device(recvbuf, ep.size * nbytes, "allgather_device (recvbuf)")
    spec = _resolve(ep, "allgather", nbytes, algorithm)
    yield from _run(ep, "allgather", spec, nbytes, (buf, nbytes, recvbuf))
    return recvbuf
