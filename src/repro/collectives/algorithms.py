"""The flat device-allreduce algorithms, as pt2pt generator programs.

Each algorithm is a generator over a
:class:`~repro.collectives.engine.CollContext` (``ctx.send``/``ctx.recv``
move device buffers through the model's GPU-aware pt2pt path;
``ctx.combine`` launches the elementwise reduction kernel) and registers an
:class:`~repro.collectives.selection.AlgorithmSpec` whose cost function
prices its rounds of hops, rank pair by rank pair, with the transfer oracle
the simulator is held equal to — see selection.py.

Algorithms (classical shapes, non-power-of-two rank counts supported):

* ``binomial`` — a binomial-tree reduce to rank 0, then a binomial-tree
  bcast from it: 2⌈log2 P⌉ rounds of the full payload.  The two tree
  helpers are also the node phases of the hierarchical allreduce;
* ``recdbl`` — MPICH-style recursive doubling with the pre/post fold of
  the non-power-of-two remainder.

Step numbering inside one invocation is *fixed by the algorithm's shape*
(round index), never by a rank's dynamic progress, so every rank derives
the same wire tags without agreement traffic.
"""

from __future__ import annotations

from typing import List

from repro.collectives.ops import ReduceOp
from repro.collectives.selection import (
    AlgorithmSpec,
    CollectiveCostModel,
    ceil_log2,
    register,
)

__all__ = ["binomial_bcast", "binomial_children", "binomial_parent",
           "binomial_reduce"]


# -- shape helpers -----------------------------------------------------------------
def binomial_parent(vrank: int) -> int:
    """Parent in the binomial tree rooted at vrank 0 (lowest set bit off)."""
    return vrank & (vrank - 1)


def binomial_children(vrank: int, p: int) -> List[int]:
    """Children of ``vrank`` in a P-rank binomial tree, smallest mask first."""
    children = []
    mask = 1
    while mask < p:
        if vrank & mask:
            break
        if vrank | mask < p:
            children.append(vrank | mask)
        mask <<= 1
    return children


def _recv_step(vrank: int) -> int:
    """The tree round in which ``vrank`` receives from its parent (the bit
    index of its lowest set bit) — identical on both sides of the edge."""
    return (vrank & -vrank).bit_length() - 1


# -- binomial trees rooted at rank 0 ------------------------------------------------
def binomial_bcast(ctx, buf, nbytes: int, base: int = 0):
    p = ctx.size
    if p == 1:
        return
    me = ctx.rank
    if me != 0:
        yield ctx.recv(buf, nbytes, binomial_parent(me), base + _recv_step(me))
    pending = []
    for child in reversed(binomial_children(me, p)):
        pending.append(ctx.send(buf, nbytes, child, base + _recv_step(child)))
    for ev in pending:
        yield ev


def binomial_reduce(ctx, buf, nbytes: int, op: ReduceOp, base: int = 0):
    """Reverse binomial tree; ``buf`` is combined in place (partial results
    on ranks other than 0, the full reduction on rank 0)."""
    p = ctx.size
    if p == 1:
        return
    me = ctx.rank
    scratch = None
    for child in binomial_children(me, p):
        if scratch is None:
            scratch = ctx.scratch(nbytes)
        yield ctx.recv(scratch, nbytes, child, base + _recv_step(child))
        yield ctx.combine(buf, scratch, nbytes, op)
    if me != 0:
        yield ctx.send(buf, nbytes, binomial_parent(me), base + _recv_step(me))


def _tree_rounds(p: int):
    """(child, parent) edges of a P-rank binomial tree, one list per round,
    smallest mask first (the reduce order; the bcast runs them reversed)."""
    return [[(v, v - (1 << k)) for v in range(1 << k, p, 2 << k)]
            for k in range(ceil_log2(p))]


def cost_binomial_bcast(m: CollectiveCostModel, n: int) -> float:
    return sum(m.round([(b, a) for a, b in edges], n) for edges in _tree_rounds(m.p))


def cost_binomial_reduce(m: CollectiveCostModel, n: int) -> float:
    k = m.combine(n)
    return sum(m.round(edges, n) + k for edges in _tree_rounds(m.p))


# -- allreduce ----------------------------------------------------------------------
def run_binomial_allreduce(ctx, buf, nbytes: int, op: ReduceOp):
    yield from binomial_reduce(ctx, buf, nbytes, op)
    # bcast steps live above the reduce steps so the two phases can never
    # alias a (pair, step) edge
    yield from binomial_bcast(ctx, buf, nbytes, base=40)


def run_recdbl_allreduce(ctx, buf, nbytes: int, op: ReduceOp):
    """MPICH-style recursive doubling.  Non-power-of-two counts fold the
    first 2*rem ranks into pairs (step 0), run the butterfly over the
    power-of-two survivors (steps 1..log2), and unfold (final step).
    Step numbers are fixed by the schedule, identical on every rank."""
    p = ctx.size
    if p == 1:
        return
    pof2 = 1 << (p.bit_length() - 1)
    if pof2 > p:
        pof2 >>= 1
    rem = p - pof2
    rounds = ceil_log2(pof2)
    r = ctx.rank
    scratch = ctx.scratch(nbytes)
    if r < 2 * rem:
        if r % 2 == 0:  # folds into r+1, idle until the unfold
            yield ctx.send(buf, nbytes, r + 1, 0)
            newrank = -1
        else:
            yield ctx.recv(scratch, nbytes, r - 1, 0)
            yield ctx.combine(buf, scratch, nbytes, op)
            newrank = r // 2
    else:
        newrank = r - rem
    if newrank >= 0:
        mask = 1
        for i in range(rounds):
            peer_new = newrank ^ mask
            peer = 2 * peer_new + 1 if peer_new < rem else peer_new + rem
            send = ctx.send(buf, nbytes, peer, 1 + i)
            yield ctx.recv(scratch, nbytes, peer, 1 + i)
            yield send
            yield ctx.combine(buf, scratch, nbytes, op)
            mask <<= 1
    if r < 2 * rem:
        if r % 2:
            yield ctx.send(buf, nbytes, r - 1, 1 + rounds)
        else:
            yield ctx.recv(buf, nbytes, r + 1, 1 + rounds)


def cost_binomial_allreduce(m: CollectiveCostModel, n: int) -> float:
    return cost_binomial_reduce(m, n) + cost_binomial_bcast(m, n)


def cost_recdbl_fold(m: CollectiveCostModel, n: int) -> float:
    """The non-power-of-two fold and unfold: the first ``2*rem`` ranks pair
    up, each even rank's data combined on its odd neighbour and sent back."""
    rem = m.p - (1 << (m.p.bit_length() - 1))
    fold = [(2 * i, 2 * i + 1) for i in range(rem)]
    if not fold:
        return 0.0
    return m.round(fold, n) + m.combine(n) + m.round([(b, a) for a, b in fold], n)


def cost_recdbl_allreduce(m: CollectiveCostModel, n: int) -> float:
    pof2 = 1 << (m.p.bit_length() - 1)
    rem = m.p - pof2
    real = [2 * r + 1 if r < rem else r + rem for r in range(pof2)]
    # every survivor sends to its peer at once: the rounds contend for links
    body = sum(
        m.round([(real[r ^ (1 << i)], real[r]) for r in range(pof2)], n) + m.combine(n)
        for i in range(ceil_log2(pof2))
    )
    return body + cost_recdbl_fold(m, n)


# -- registration -------------------------------------------------------------------
def _always(_m: CollectiveCostModel, _n: int) -> bool:
    return True


register(AlgorithmSpec("binomial", run_binomial_allreduce,
                       cost_binomial_allreduce, _always))
register(AlgorithmSpec("recdbl", run_recdbl_allreduce,
                       cost_recdbl_allreduce, _always))
