"""Host-value collectives (Python values over the envelope path).

The classical algorithms of the old ``repro.ampi.collectives`` module —
dissemination barrier, binomial bcast/reduce, linear gather/scatter, ring
allgather, pairwise alltoall — re-homed onto the communicator protocol
(``rank``/``size``/``coll_send``/``coll_recv``/``coll_local_source``/
``_next_coll_seq``) so :class:`~repro.ampi.mpi.AmpiRank`
and :class:`~repro.ampi.mpi.CommView` share one implementation, with wire
tags derived from the per-communicator collective sequence number instead
of fixed per-type bases (overlapping collectives can no longer alias, and
``gather``'s wildcard receives can no longer swallow a later invocation's
sends).

Reduction operators are :class:`~repro.collectives.ops.ReduceOp`; strings
are normalized at entry.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.collectives.algorithms import binomial_children, binomial_parent
from repro.collectives.engine import tag_base
from repro.collectives.ops import ReduceOp

ANY_SOURCE = -1
_ANY_SIZE = 1 << 62  # a value receive takes a message of any size

__all__ = [
    "allgather", "allreduce", "alltoall", "barrier", "bcast", "gather",
    "reduce", "scatter",
]


def barrier(comm):
    """Dissemination barrier."""
    base = tag_base(comm._next_coll_seq())
    p = comm.size
    if p == 1:
        return
    k = 1
    round_no = 0
    while k < p:
        dst = (comm.rank + k) % p
        src = (comm.rank - k) % p
        send = comm.coll_send(None, 8, dst, base + round_no)
        yield comm.coll_recv(None, _ANY_SIZE, src, base + round_no)
        yield send
        k <<= 1
        round_no += 1


def bcast(comm, value: Any, root: int = 0, nbytes: int = 8):
    """Binomial-tree broadcast; every rank returns the broadcast value."""
    base = tag_base(comm._next_coll_seq())
    p = comm.size
    vrank = (comm.rank - root) % p
    if vrank != 0:
        parent = (binomial_parent(vrank) + root) % p
        status = yield comm.coll_recv(None, _ANY_SIZE, parent, base)
        value = status.value
    for child in binomial_children(vrank, p):
        yield comm.coll_send(None, nbytes, (child + root) % p, base, value)
    return value


def reduce(comm, value: Any, op=ReduceOp.SUM, root: int = 0, nbytes: int = 8):
    """Binomial-tree reduction; the root returns the result, others None."""
    op = ReduceOp.of(op)
    base = tag_base(comm._next_coll_seq())
    p = comm.size
    vrank = (comm.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % p
            yield comm.coll_send(None, nbytes, parent, base + mask, acc)
            return None
        child = vrank | mask
        if child < p:
            status = yield comm.coll_recv(
                None, _ANY_SIZE, (child + root) % p, base + mask)
            acc = op.combine(acc, status.value)
        mask <<= 1
    return acc


def allreduce(comm, value: Any, op=ReduceOp.SUM, nbytes: int = 8):
    """Reduce to rank 0, then broadcast."""
    acc = yield from reduce(comm, value, op, 0, nbytes)
    result = yield from bcast(comm, acc, 0, nbytes)
    return result


def gather(comm, value: Any, root: int = 0, nbytes: int = 8):
    """Linear gather; the root returns the list ordered by rank."""
    base = tag_base(comm._next_coll_seq())
    if comm.rank == root:
        out: List[Any] = [None] * comm.size
        out[root] = value
        for _ in range(comm.size - 1):
            status = yield comm.coll_recv(None, _ANY_SIZE, ANY_SOURCE, base)
            out[comm.coll_local_source(status.source)] = status.value
        return out
    yield comm.coll_send(None, nbytes, root, base, value)
    return None


def scatter(comm, values: Optional[List[Any]], root: int = 0, nbytes: int = 8):
    """Linear scatter from the root; every rank returns its element."""
    base = tag_base(comm._next_coll_seq())
    if comm.rank == root:
        if values is None or len(values) != comm.size:
            raise ValueError("root must supply one value per rank")
        for dst in range(comm.size):
            if dst != root:
                yield comm.coll_send(None, nbytes, dst, base, values[dst])
        return values[root]
    status = yield comm.coll_recv(None, _ANY_SIZE, root, base)
    return status.value


def allgather(comm, value: Any, nbytes: int = 8):
    """Ring allgather: P-1 steps, each forwarding the newest block."""
    base = tag_base(comm._next_coll_seq())
    p = comm.size
    out: List[Any] = [None] * p
    out[comm.rank] = value
    if p == 1:
        return out
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    carry_idx = comm.rank
    for step in range(p - 1):
        send = comm.coll_send(
            None, nbytes, right, base + step, (carry_idx, out[carry_idx]))
        status = yield comm.coll_recv(None, _ANY_SIZE, left, base + step)
        yield send
        carry_idx, block = status.value
        out[carry_idx] = block
    return out


def alltoall(comm, values: List[Any], nbytes: int = 8):
    """Pairwise-exchange all-to-all."""
    base = tag_base(comm._next_coll_seq())
    p = comm.size
    if len(values) != p:
        raise ValueError("alltoall needs one value per destination")
    out: List[Any] = [None] * p
    out[comm.rank] = values[comm.rank]
    for step in range(1, p):
        dst = (comm.rank + step) % p
        src = (comm.rank - step) % p
        send = comm.coll_send(None, nbytes, dst, base + step, values[dst])
        status = yield comm.coll_recv(None, _ANY_SIZE, src, base + step)
        yield send
        out[src] = status.value
    return out
