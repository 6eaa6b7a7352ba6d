"""Host-value collectives (Python values over the envelope path).

The two halves of the value ``allreduce`` — a binomial reduce to rank 0
and a binomial bcast back out — and a linear ``gather``, over an AMPI
rank's collective wire protocol (``rank``/``size``/``coll_send``/
``coll_recv``/``_next_coll_seq`` of :class:`~repro.ampi.mpi.AmpiRank`).
Wire tags derive from the rank's collective sequence number, so
overlapping collectives cannot alias, and ``gather``'s wildcard receives
cannot swallow a later invocation's sends.

Reduction operators are :class:`~repro.collectives.ops.ReduceOp`; strings
are normalized at entry.
"""

from __future__ import annotations

from typing import Any, List

from repro.collectives.algorithms import binomial_children, binomial_parent
from repro.collectives.engine import tag_base
from repro.collectives.ops import ReduceOp
from repro.mpi import ANY_SOURCE

_ANY_SIZE = 1 << 62  # a value receive takes a message of any size

__all__ = ["allreduce", "bcast", "gather", "reduce"]


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
            out[status.source] = status.value
        return out
    yield comm.coll_send(None, nbytes, root, base, value)
    return None

