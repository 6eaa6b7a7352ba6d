"""AMPI / OpenMPI shuffle: one rank program shared by both models.

Per round, every rank posts one irecv per peer (per-source tags, exact
matching), allocates and isends one skewed chunk per peer, waits for the
full window, then frees every buffer.  With the pooled allocator the frees
are pool returns and the next round reuses the same blocks — same
addresses, warm registrations/mappings; with the direct allocator every
round allocates fresh buffers and (when the mapping model is on) pays the
first-touch peer mappings again.
"""

from __future__ import annotations

from repro.apps.shuffle.common import (
    ShuffleCollector,
    ShufflePlan,
    chunk_bytes,
    shuffle_tag,
)


def shuffle_mpi_program(mpi, plan: ShufflePlan, collector: ShuffleCollector):
    """Generator rank program (works for AmpiRank and OmpiRank alike)."""
    me = mpi.rank
    tracer = mpi.charm.machine.tracer
    peers = [r for r in range(plan.n_ranks) if r != me]
    moved = 0
    chunks = 0
    for rnd in range(plan.rounds):
        tracer.count("shuffle", "round_start")
        sp = tracer.span("shuffle", "round", rank=me, round=rnd)
        reqs = []
        bufs = []
        for src in peers:
            nbytes = chunk_bytes(plan, rnd, src, me)
            rb = mpi.alloc_device(nbytes)
            bufs.append(rb)
            reqs.append(mpi.irecv(rb, nbytes, src=src,
                                  tag=shuffle_tag(rnd, src)))
        for dst in peers:
            nbytes = chunk_bytes(plan, rnd, me, dst)
            sb = mpi.alloc_device(nbytes)
            bufs.append(sb)
            reqs.append(mpi.isend(sb, nbytes, dst, tag=shuffle_tag(rnd, me)))
            tracer.count("shuffle", "chunk_sent")
            moved += nbytes
            chunks += 1
        yield mpi.waitall(reqs)
        for buf in bufs:
            mpi.free_device(buf)
        sp.end()
        collector.report_round(rnd, mpi.sim.now)
    collector.report_rank(moved, chunks)
