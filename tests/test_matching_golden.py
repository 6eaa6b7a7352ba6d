"""Golden comparison: the indexed matching queue against its linear oracle.

``IndexedMatchQueue`` is what both matching engines run on;
``LinearMatchQueue`` — a FIFO list with a linear scan — is kept in
``tests/oracles/linear_matchq.py`` as the executable definition of the
semantics.  The
differential below drives both with the same seeded operation stream and
requires identical answers, including the virtual scan length the modeled
matching cost is charged on.

``make_plan``/``_make_program`` are the mixed host + device, exact +
wildcard MPI workload shared with ``tests/test_obs_golden.py``.
"""

import random

import numpy as np
import pytest

from repro.core.matchq import IndexedMatchQueue
from tests.oracles.linear_matchq import LinearMatchQueue

ANY = -1  # MPI_ANY_SOURCE / MPI_ANY_TAG in both layers

N_RANKS = 12
CAPACITY = 64 * 1024  # recv buffers; every planned message fits


def make_plan(seed, n_msgs, device_fraction=0.25):
    """Deterministic message plan: (id, src, dst, tag, size, dev, wild_src,
    wild_tag).  Wildcard receives stress the fallback list; device messages
    stress the UCX tag path under AMPI.

    Device messages use a disjoint tag space (10..13) and exact receives so
    a host-posted wildcard can never match a device-sent payload (mixed
    host/device pt2pt is outside the modeled scope).  Wildcard receives are
    ``(ANY_SOURCE, tag=4)`` with tag 4 reserved for them: wildcards then only
    compete with each other, so any steal is still completable and the
    workload cannot deadlock."""
    rng = np.random.default_rng(seed)
    plan = []
    for i in range(n_msgs):
        src = int(rng.integers(0, N_RANKS))
        dst = int(rng.integers(0, N_RANKS - 1))
        if dst >= src:
            dst += 1
        tag = int(rng.integers(0, 4))
        size = int(rng.integers(1, 32 * 1024))
        dev = bool(rng.random() < device_fraction)
        wild_src = bool(rng.random() < 0.3) and not dev
        if dev:
            tag += 10
        elif wild_src:
            tag = 4
        plan.append((i, src, dst, tag, size, dev, wild_src, False))
    return plan


def _make_program(plan, sim, payloads, finish_times):
    def program(mpi):
        cuda = mpi.charm.cuda
        my_recvs = [p for p in plan if p[2] == mpi.rank]
        my_sends = [p for p in plan if p[1] == mpi.rank]
        reqs = []
        recv_bufs = []
        for i, src, dst, tag, size, dev, wild_src, wild_tag in my_recvs:
            buf = (cuda.malloc(mpi.gpu, CAPACITY) if dev
                   else cuda.malloc_host(mpi.node, CAPACITY))
            recv_bufs.append((i, buf))
            reqs.append(mpi.irecv(buf, CAPACITY,
                                  src=ANY if wild_src else src,
                                  tag=ANY if wild_tag else tag))
        for i, src, dst, tag, size, dev, wild_src, wild_tag in my_sends:
            buf = (cuda.malloc(mpi.gpu, size) if dev
                   else cuda.malloc_host(mpi.node, size))
            buf.data[:] = i % 251
            reqs.append(mpi.isend(buf, size, dst=dst, tag=tag))
        yield mpi.waitall(reqs)
        finish_times[mpi.rank] = sim.now
        for i, buf in recv_bufs:
            payloads[i] = int(buf.data[0])

    return program


class _Entry:
    """A queue entry with identity semantics and the tag it matches on."""

    def __init__(self, tag):
        self.tag = tag


@pytest.mark.parametrize("seed", range(6))
def test_indexed_queue_matches_linear_oracle(seed, monkeypatch):
    """Random ``append``/``match``/``remove_first`` over exact,
    masked and ``key=None`` entries: identical ``(item, scanned)``, length
    and iteration order after every step, through several compactions."""
    # compact after a handful of tombstones instead of 64, so the stream
    # below crosses many compactions with live entries on both sides
    monkeypatch.setattr(IndexedMatchQueue, "_COMPACT_SLACK", 3)
    compactions = []
    real_compact = IndexedMatchQueue._compact
    monkeypatch.setattr(
        IndexedMatchQueue, "_compact",
        lambda q: (compactions.append(1), real_compact(q))[1],
    )
    rng = random.Random(seed)
    lin, idx = LinearMatchQueue(), IndexedMatchQueue()
    tags = range(6)
    for _step in range(1500):
        op = rng.random()
        tag = rng.choice(tags)
        if op < 0.45:
            # an exact entry is filed under its tag; a wildcard entry
            # (key=None, tag None) matches every lookup
            entry = _Entry(None if rng.random() < 0.25 else tag)
            for q in (lin, idx):
                q.append(entry, key=entry.tag)
        elif op < 0.8:
            # exact lookup, or a masked one (key=None) over tag parity
            if rng.random() < 0.7:
                key, pred = tag, lambda e, t=tag: e.tag is None or e.tag == t
            else:
                key, pred = None, lambda e, t=tag: e.tag is None or e.tag % 2 == t % 2
            assert idx.match(key, pred) == lin.match(key, pred)
        else:
            victim = rng.choice(list(lin)) if len(lin) else None
            assert (idx.remove_first(lambda e: e is victim)
                    is lin.remove_first(lambda e: e is victim))
        assert len(idx) == len(lin)
        assert list(idx) == list(lin)
        # buckets and the wildcard list hold live slots only, and no bucket
        # outlives its last entry
        assert all(idx._slots[s] is not None for s in idx._wild)
        for bucket in idx._buckets.values():
            assert bucket and all(idx._slots[s] is not None for s in bucket)
    assert len(compactions) > 10
