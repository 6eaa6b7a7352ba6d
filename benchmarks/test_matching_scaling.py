"""Scaling smoke for the indexed tag-matching queues.

The adversarial workload is *reversed-tag* traffic: each receiving worker
posts K receives with tags K-1..0 and its peer sends tags 0..K-1, so every
arrival sits at the **end** of the posted queue.  A linear scan would
inspect the whole queue, Θ(K²) work per pair; the indexed queue answers each
lookup from its exact-tag bucket, yet must still *report* that virtual scan
length, because the modeled matching delay is charged on it.

The ladder runs many PEs (8 concurrent pairs across 2 nodes) through the
full UCX stack — workers, protocol selection, wire sequencing, link
contention — and checks the closed-form totals at every rung: the virtual
scan sum ``K(K+1)/2`` per pair, every arrival an expected hit, nothing left
posted.  (``tests/test_matching_golden.py`` holds the operation-level
differential against the linear oracle.)
"""

import time

from repro.config import MachineConfig
from repro.hardware.topology import Machine
from repro.openmpi import OpenMpi
from repro.ucx.context import UcpContext

N_PAIRS = 8
LADDER = (50, 400, 2400)


def _run_reversed_tags(k):
    """N_PAIRS disjoint worker pairs; pair receivers post tags k-1..0, pair
    senders send tags 0..k-1.  Returns (matching totals, host_seconds)."""
    m = Machine(MachineConfig.summit(nodes=2))
    ctx = UcpContext(m)
    # pairs are intra-node (spread over both nodes): the cheap host_mem
    # route keeps the wire out of the measurement so matching dominates
    workers = [ctx.create_worker(i, (i // 2) % 2) for i in range(2 * N_PAIRS)]

    t0 = time.perf_counter()
    for p in range(N_PAIRS):
        recv_worker = workers[2 * p + 1]
        for tag in reversed(range(k)):
            buf = m.alloc_host(recv_worker.node, 8)
            recv_worker.tag_recv_nb(buf, 8, tag=tag)
    for p in range(N_PAIRS):
        send_worker, recv_worker = workers[2 * p], workers[2 * p + 1]
        ep = send_worker.ep(recv_worker.worker_id)
        for tag in range(k):
            buf = m.alloc_host(send_worker.node, 8)
            send_worker.tag_send_nb(ep, buf, 8, tag=tag)
    m.sim.run()
    wall = time.perf_counter() - t0

    totals = {
        "tag_scans": sum(w.tag_scans for w in workers),
        "expected_hits": m.tracer.counters["ucx.expected_hit"],
        "posted_left": sum(len(w.posted) for w in workers),
    }
    return totals, wall


def test_reversed_tag_ladder_closed_form():
    for k in LADDER:
        fp, wall = _run_reversed_tags(k)
        # every arrival is charged for the remaining posted queue end-to-end
        assert fp["tag_scans"] == N_PAIRS * k * (k + 1) // 2
        assert fp["expected_hits"] == N_PAIRS * k
        assert fp["posted_left"] == 0
        print(f"\nreversed-tag matching, K={k} x {N_PAIRS} pairs: {wall:.3f}s")


def test_unexpected_queue_reversed_closed_form():
    """Same adversarial shape on the *unexpected* queue: all sends land
    first, then receives posted in reverse arrival order."""
    k = 300
    m = Machine(MachineConfig.summit(nodes=2))
    ctx = UcpContext(m)
    wa = ctx.create_worker(0, 0)
    wb = ctx.create_worker(1, 0)
    for tag in range(k):
        buf = m.alloc_host(0, 8)
        wa.tag_send_nb(wa.ep(1), buf, 8, tag=tag)
    m.sim.run()
    assert len(wb.unexpected) == k
    for tag in reversed(range(k)):
        buf = m.alloc_host(0, 8)
        wb.tag_recv_nb(buf, 8, tag=tag)
    m.sim.run()
    assert wb.tag_scans == k * (k + 1) // 2
    assert m.tracer.counters["ucx.unexpected_hit"] == k
    assert len(wb.unexpected) == 0


def test_full_mpi_stack_reversed_tags():
    """Full-stack smoke at MPI level: a 12-rank ring where each rank posts
    its receives in reverse tag order; every message is matched exactly
    once and both queues drain."""
    k = 40
    lib = OpenMpi(MachineConfig.summit(nodes=2))
    n = lib.n_ranks

    def program(mpi):
        cuda = mpi.charm.cuda
        left = (mpi.rank - 1) % n
        right = (mpi.rank + 1) % n
        reqs = []
        for tag in reversed(range(k)):
            buf = cuda.malloc_host(mpi.node, 64)
            reqs.append(mpi.irecv(buf, 64, src=left, tag=tag))
        for tag in range(k):
            buf = cuda.malloc_host(mpi.node, 64)
            reqs.append(mpi.isend(buf, 64, dst=right, tag=tag))
        yield mpi.waitall(reqs)

    done = lib.launch(program)
    lib.run_until(done, max_events=50_000_000)
    workers = list(lib.ucp._workers.values())
    counters = lib.machine.tracer.counters
    assert counters["ucx.expected_hit"] + counters["ucx.unexpected_hit"] == n * k
    assert all(len(w.posted) == 0 and len(w.unexpected) == 0 for w in workers)
