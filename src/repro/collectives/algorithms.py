"""The flat device-collective algorithms, as pt2pt generator programs.

Each algorithm is a generator over a
:class:`~repro.collectives.engine.CollContext` (``ctx.send``/``ctx.recv``
move device buffers through the model's GPU-aware pt2pt path;
``ctx.combine`` launches the elementwise reduction kernel) and registers an
:class:`~repro.collectives.selection.AlgorithmSpec` whose cost function is
built from the same link model the simulator charges — see selection.py.

Algorithms (classical shapes, non-power-of-two rank counts supported):

* ``binomial`` bcast/reduce — ⌈log2 P⌉ rounds of the full payload;
* ``ring`` bcast / ``ring`` reduce (a pipelined chain) — chunk-pipelined,
  (C + P - 2) steps of one chunk each;
* ``recdbl`` allreduce — MPICH-style recursive doubling with the pre/post
  fold of the non-power-of-two remainder;
* ``ring`` allreduce — reduce-scatter + allgather over per-rank blocks;
* ``ring`` / ``tree`` allgather.

Step numbering inside one invocation is *fixed by the algorithm's shape*
(round index, chunk index), never by a rank's dynamic progress, so every
rank derives the same wire tags without agreement traffic.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.collectives.ops import ReduceOp
from repro.collectives.selection import (
    AlgorithmSpec,
    CollectiveCostModel,
    ceil_log2,
    register,
)

__all__ = ["binomial_children", "binomial_parent", "block_ranges", "chunks_of"]


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


def chunks_of(nbytes: int, chunk: int) -> List[Tuple[int, int]]:
    """(offset, length) pipeline chunks; the tail chunk may be short."""
    return [(off, min(chunk, nbytes - off)) for off in range(0, nbytes, chunk)]


def block_ranges(nbytes: int, p: int) -> List[Tuple[int, int]]:
    """(offset, length) per-rank blocks for ring allreduce/allgather phases,
    8-byte aligned so block boundaries never split a float64 element; the
    sub-element tail rides with the last block."""
    elems = nbytes // 8
    base, extra = divmod(elems, p)
    out = []
    off = 0
    for b in range(p):
        ln = (base + (1 if b < extra else 0)) * 8
        if b == p - 1:
            ln = nbytes - off
        out.append((off, ln))
        off += ln
    return out


def _piece(buf, off: int, ln: int, nbytes: int):
    return buf if (off == 0 and ln == nbytes) else buf.view(off, ln)


# -- bcast --------------------------------------------------------------------------
def _binomial_bcast(ctx, buf, nbytes: int, root: int, base: int = 0):
    p = ctx.size
    if p == 1:
        return
    me = (ctx.rank - root) % p
    if me != 0:
        parent = (binomial_parent(me) + root) % p
        yield ctx.recv(buf, nbytes, parent, base + _recv_step(me))
    pending = []
    for child in reversed(binomial_children(me, p)):
        step = base + _recv_step(child)
        pending.append(ctx.send(buf, nbytes, (child + root) % p, step))
    for ev in pending:
        yield ev


def run_binomial_bcast(ctx, buf, nbytes: int, root: int):
    yield from _binomial_bcast(ctx, buf, nbytes, root)


def run_ring_bcast(ctx, buf, nbytes: int, root: int):
    """Chunk-pipelined ring: the root feeds chunks around the ring; every
    rank forwards chunk c while receiving chunk c+1."""
    p = ctx.size
    if p == 1:
        return
    pos = (ctx.rank - root) % p
    nxt = (ctx.rank + 1) % p
    prv = (ctx.rank - 1) % p
    pending = []
    for step, (off, ln) in enumerate(chunks_of(nbytes, ctx.chunk_bytes)):
        piece = _piece(buf, off, ln, nbytes)
        if pos > 0:
            yield ctx.recv(piece, ln, prv, step)
        if pos < p - 1:
            pending.append(ctx.send(piece, ln, nxt, step))
    for ev in pending:
        yield ev


def cost_binomial_bcast(m: CollectiveCostModel, n: int) -> float:
    inter, intra = m.round_split()
    return inter * m.step_inter(n) + intra * m.step_intra(n)


def cost_ring_bcast(m: CollectiveCostModel, n: int) -> float:
    return (m.n_chunks(n) + m.p - 2) * m.step(m.chunk(n))


# -- reduce -------------------------------------------------------------------------
def _binomial_reduce(ctx, buf, nbytes: int, op: ReduceOp, root: int, base: int = 0):
    """Reverse binomial tree; ``buf`` is combined in place (partial results
    on non-root ranks, the full reduction at the root)."""
    p = ctx.size
    if p == 1:
        return
    me = (ctx.rank - root) % p
    scratch = None
    for child in binomial_children(me, p):
        if scratch is None:
            scratch = ctx.scratch(nbytes)
        step = base + _recv_step(child)
        yield ctx.recv(scratch, nbytes, (child + root) % p, step)
        yield ctx.combine(buf, scratch, nbytes, op)
    if me != 0:
        parent = (binomial_parent(me) + root) % p
        yield ctx.send(buf, nbytes, parent, base + _recv_step(me))


def run_binomial_reduce(ctx, buf, nbytes: int, op: ReduceOp, root: int):
    yield from _binomial_reduce(ctx, buf, nbytes, op, root)


def run_ring_reduce(ctx, buf, nbytes: int, op: ReduceOp, root: int):
    """Pipelined chain ("ring" for selection symmetry): chunks flow from the
    end of the chain toward the root, combined at every hop."""
    p = ctx.size
    if p == 1:
        return
    pos = (ctx.rank - root) % p
    toward_root = (ctx.rank - 1) % p  # position pos-1
    from_tail = (ctx.rank + 1) % p  # position pos+1
    chunks = chunks_of(nbytes, ctx.chunk_bytes)
    scratch = None
    if pos < p - 1:
        scratch = ctx.scratch(min(nbytes, ctx.chunk_bytes))
    pending = []
    for step, (off, ln) in enumerate(chunks):
        piece = _piece(buf, off, ln, nbytes)
        if pos < p - 1:
            yield ctx.recv(scratch, ln, from_tail, step)
            yield ctx.combine(piece, scratch, ln, op)
        if pos > 0:
            pending.append(ctx.send(piece, ln, toward_root, step))
    for ev in pending:
        yield ev


def cost_binomial_reduce(m: CollectiveCostModel, n: int) -> float:
    inter, intra = m.round_split()
    k = m.combine(n)
    return inter * (m.step_inter(n) + k) + intra * (m.step_intra(n) + k)


def cost_ring_reduce(m: CollectiveCostModel, n: int) -> float:
    c = m.chunk(n)
    return (m.n_chunks(n) + m.p - 2) * (m.step(c) + m.combine(c))


# -- allreduce ----------------------------------------------------------------------
def run_binomial_allreduce(ctx, buf, nbytes: int, op: ReduceOp):
    yield from _binomial_reduce(ctx, buf, nbytes, op, 0)
    # bcast steps live above the reduce steps so the two phases can never
    # alias a (pair, step) edge
    yield from _binomial_bcast(ctx, buf, nbytes, 0, base=40)


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


def run_ring_allreduce(ctx, buf, nbytes: int, op: ReduceOp):
    """Reduce-scatter then allgather over P near-equal blocks: 2(P-1) steps
    moving n/P bytes each — the bandwidth-optimal large-message shape."""
    p = ctx.size
    if p == 1:
        return
    blocks = block_ranges(nbytes, p)
    r = ctx.rank
    nxt = (r + 1) % p
    prv = (r - 1) % p
    scratch = ctx.scratch(max(ln for _o, ln in blocks))
    for s in range(p - 1):  # reduce-scatter
        so, sl = blocks[(r - s) % p]
        ro, rl = blocks[(r - s - 1) % p]
        send = ctx.send(_piece(buf, so, sl, nbytes), sl, nxt, s)
        yield ctx.recv(scratch, rl, prv, s)
        yield send
        yield ctx.combine(_piece(buf, ro, rl, nbytes), scratch, rl, op)
    for s in range(p - 1):  # allgather of the reduced blocks
        so, sl = blocks[(r + 1 - s) % p]
        ro, rl = blocks[(r - s) % p]
        send = ctx.send(_piece(buf, so, sl, nbytes), sl, nxt, (p - 1) + s)
        yield ctx.recv(_piece(buf, ro, rl, nbytes), rl, prv, (p - 1) + s)
        yield send


def cost_binomial_allreduce(m: CollectiveCostModel, n: int) -> float:
    return cost_binomial_reduce(m, n) + cost_binomial_bcast(m, n)


def cost_recdbl_allreduce(m: CollectiveCostModel, n: int) -> float:
    pof2 = 1 << (m.p.bit_length() - 1)
    if pof2 > m.p:
        pof2 >>= 1
    rem = m.p - pof2
    # in the butterfly every rank of a node crosses at once: the rounds
    # contend for the node's NIC rails
    body = ceil_log2(pof2) * (m.step(n, m.max_per_node) + m.combine(n))
    fold = (m.step_intra(n) + m.combine(n) + m.step_intra(n)) if rem else 0.0
    return body + fold


def cost_ring_allreduce(m: CollectiveCostModel, n: int) -> float:
    b = max(ln for _o, ln in block_ranges(n, m.p))
    return (m.p - 1) * (m.step(b) + m.combine(b)) + (m.p - 1) * m.step(b)


# -- allgather ----------------------------------------------------------------------
def run_ring_allgather(ctx, sendbuf, nbytes: int, recvbuf):
    """Each rank's block circles the ring in P-1 forwarding steps."""
    p = ctx.size
    r = ctx.rank
    yield ctx.copy_local(recvbuf.view(r * nbytes, nbytes), sendbuf, nbytes)
    if p == 1:
        return
    nxt = (r + 1) % p
    prv = (r - 1) % p
    for s in range(p - 1):
        sb = (r - s) % p
        rb = (r - s - 1) % p
        send = ctx.send(recvbuf.view(sb * nbytes, nbytes), nbytes, nxt, s)
        yield ctx.recv(recvbuf.view(rb * nbytes, nbytes), nbytes, prv, s)
        yield send


def run_tree_allgather(ctx, sendbuf, nbytes: int, recvbuf):
    """Binomial gather of contiguous block ranges to rank 0, then binomial
    bcast of the assembled buffer (good for small blocks at high P)."""
    p = ctx.size
    r = ctx.rank
    yield ctx.copy_local(recvbuf.view(r * nbytes, nbytes), sendbuf, nbytes)
    if p == 1:
        return
    held = 1  # blocks held, contiguous from r (a binomial subtree is)
    mask = 1
    while mask < p:
        if r & mask:
            break
        peer = r | mask
        if peer < p:
            cnt = min(mask, p - peer)
            yield ctx.recv(
                recvbuf.view(peer * nbytes, cnt * nbytes), cnt * nbytes,
                peer, mask.bit_length() - 1,
            )
            held += cnt
        mask <<= 1
    if r != 0:
        yield ctx.send(
            recvbuf.view(r * nbytes, held * nbytes), held * nbytes,
            binomial_parent(r), _recv_step(r),
        )
    # bcast of the full buffer, steps offset past the gather rounds
    yield from _binomial_bcast(ctx, recvbuf, p * nbytes, 0, base=40)


def cost_ring_allgather(m: CollectiveCostModel, n: int) -> float:
    return (m.p - 1) * m.step(n)


def cost_tree_allgather(m: CollectiveCostModel, n: int) -> float:
    gather = sum(
        m.step(min(n << i, m.p * n)) for i in range(m.rounds())
    )
    inter, intra = m.round_split()
    total = m.p * n
    return gather + inter * m.step_inter(total) + intra * m.step_intra(total)


# -- registration -------------------------------------------------------------------
def _always(_m: CollectiveCostModel, _n: int) -> bool:
    return True


def _ring_allreduce_supports(m: CollectiveCostModel, n: int) -> bool:
    # every rank needs a non-empty 8-byte-aligned block
    return n >= 8 * m.p


register(AlgorithmSpec("binomial", "bcast", run_binomial_bcast,
                       cost_binomial_bcast, _always))
register(AlgorithmSpec("ring", "bcast", run_ring_bcast,
                       cost_ring_bcast, _always))
register(AlgorithmSpec("binomial", "reduce", run_binomial_reduce,
                       cost_binomial_reduce, _always))
register(AlgorithmSpec("ring", "reduce", run_ring_reduce,
                       cost_ring_reduce, _always))
register(AlgorithmSpec("binomial", "allreduce", run_binomial_allreduce,
                       cost_binomial_allreduce, _always))
register(AlgorithmSpec("recdbl", "allreduce", run_recdbl_allreduce,
                       cost_recdbl_allreduce, _always))
register(AlgorithmSpec("ring", "allreduce", run_ring_allreduce,
                       cost_ring_allreduce, _ring_allreduce_supports))
register(AlgorithmSpec("ring", "allgather", run_ring_allgather,
                       cost_ring_allgather, _always))
register(AlgorithmSpec("tree", "allgather", run_tree_allgather,
                       cost_tree_allgather, _always))
