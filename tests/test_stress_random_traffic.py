"""Randomized traffic stress tests: many senders, wildcards, mixed sizes.

A deterministic global plan of (src, dst, tag, size) messages is generated
per seed; every rank plays its part with non-blocking operations, and the
test verifies that every message arrives intact, exactly once, with MPI
ordering preserved per (source, tag).  This exercises the unexpected/
posted queues, eager/rendezvous mixes, and the device paths under load.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampi import Ampi
from repro.charm import Charm
from repro.config import KB, MachineConfig
from repro.openmpi import OpenMpi


def make_plan(rng, n_ranks, n_msgs, device_fraction=0.0, max_kb=64):
    plan = []
    for i in range(n_msgs):
        src = int(rng.integers(0, n_ranks))
        dst = int(rng.integers(0, n_ranks - 1))
        if dst >= src:
            dst += 1
        size = int(rng.integers(1, max_kb * 1024))
        tag = int(rng.integers(0, 4))
        dev = bool(rng.random() < device_fraction)
        plan.append((i, src, dst, tag, size, dev))
    return plan


def run_plan(lib_kind, plan, n_ranks, nodes=2):
    received = {}

    def program(mpi):
        cuda = mpi.charm.cuda
        my_sends = [p for p in plan if p[1] == mpi.rank]
        my_recvs = [p for p in plan if p[2] == mpi.rank]
        reqs = []
        recv_bufs = []
        for i, src, dst, tag, size, dev in my_recvs:
            buf = (cuda.malloc(mpi.gpu, size) if dev
                   else cuda.malloc_host(mpi.node, size))
            recv_bufs.append((i, buf, src, tag))
            reqs.append(mpi.irecv(buf, size, src=src, tag=tag))
        for i, src, dst, tag, size, dev in my_sends:
            buf = (cuda.malloc(mpi.gpu, size) if dev
                   else cuda.malloc_host(mpi.node, size))
            buf.data[:] = i % 251  # payload identifies the message
            reqs.append(mpi.isend(buf, size, dst=dst, tag=tag))
        yield mpi.waitall(reqs)
        for i, buf, src, tag in recv_bufs:
            received[i] = int(buf.data[0])

    if lib_kind == "ampi":
        charm = Charm(MachineConfig.summit(nodes=nodes))
        lib = Ampi(charm)
        done = lib.launch(program)
        charm.run_until(done, max_events=50_000_000)
    else:
        lib = OpenMpi(MachineConfig.summit(nodes=nodes))
        done = lib.launch(program)
        lib.run_until(done, max_events=50_000_000)
    return received


@pytest.mark.parametrize("lib_kind", ["ampi", "openmpi"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_host_traffic_all_delivered(lib_kind, seed):
    rng = np.random.default_rng(seed)
    plan = make_plan(rng, n_ranks=12, n_msgs=40)
    received = run_plan(lib_kind, plan, 12)
    assert len(received) == 40
    # Payload correctness modulo same-(src,dst,tag) reordering: MPI only
    # orders messages within a (src, dst, tag) triple, and our plan posts
    # irecvs in plan order, so payloads within a triple must appear in
    # order; across triples any interleaving is legal.
    by_triple = {}
    for i, src, dst, tag, size, dev in plan:
        by_triple.setdefault((src, dst, tag), []).append(i)
    for (src, dst, tag), ids in by_triple.items():
        got = [received[i] for i in ids]
        assert got == [i % 251 for i in ids], (src, dst, tag)


@pytest.mark.parametrize("lib_kind", ["ampi", "openmpi"])
def test_random_device_traffic_all_delivered(lib_kind):
    rng = np.random.default_rng(7)
    plan = make_plan(rng, n_ranks=12, n_msgs=24, device_fraction=1.0, max_kb=32)
    received = run_plan(lib_kind, plan, 12)
    assert len(received) == 24
    by_triple = {}
    for i, src, dst, tag, size, dev in plan:
        by_triple.setdefault((src, dst, tag), []).append(i)
    for ids in by_triple.values():
        assert [received[i] for i in ids] == [i % 251 for i in ids]


class TestUcxFuzz:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["send", "recv"]),
                st.integers(0, 2),  # tag
                st.integers(1, 8 * 1024),  # size class (bytes)
            ),
            min_size=2, max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_every_matched_pair_delivers(self, ops):
        """For any interleaving of posts and sends, matched pairs complete
        and payloads arrive intact (per-tag FIFO)."""
        from repro.hardware.topology import Machine
        from repro.ucx.context import UcpContext

        m = Machine(MachineConfig.summit(nodes=1))
        ctx = UcpContext(m)
        wa = ctx.create_worker(0, 0)
        wb = ctx.create_worker(1, 0)
        sends_per_tag = {0: 0, 1: 0, 2: 0}
        recvs = []
        for kind, tag, size in ops:
            if kind == "send":
                buf = m.alloc_host(0, size)
                buf.data[:] = (sends_per_tag[tag] + tag * 50) % 251
                sends_per_tag[tag] += 1
                wa.tag_send_nb(wa.ep(1), buf, size, tag=tag)
            else:
                buf = m.alloc_host(0, 8 * 1024)
                recvs.append((tag, buf, wb.tag_recv_nb(buf, 8 * 1024, tag=tag)))
            m.sim.run()
        m.sim.run()
        matched_per_tag = {0: 0, 1: 1 and 0, 2: 0}
        seen = {0: 0, 1: 0, 2: 0}
        for tag, buf, req in recvs:
            if req.completed:
                expect = (seen[tag] + tag * 50) % 251
                assert buf.data[0] == expect, (tag, seen[tag])
                seen[tag] += 1
        # number of completions per tag = min(sends, recvs posted)
        posted = {t: sum(1 for tag, _b, _r in recvs if tag == t) for t in (0, 1, 2)}
        for t in (0, 1, 2):
            done = sum(1 for tag, _b, r in recvs if tag == t and r.completed)
            assert done == min(sends_per_tag[t], posted[t])
