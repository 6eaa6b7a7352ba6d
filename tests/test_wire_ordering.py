"""Regression tests for per-pair wire ordering (ordered-QP semantics).

A small control frame (RTS) physically bypasses bulk data in the link
model; matching must nevertheless follow send order, or a rendezvous
message overtakes an earlier eager one and MPI's non-overtaking rule
breaks (this actually happened — caught by the randomized stress tests).
"""

import numpy as np
import pytest

from repro.config import KB, MachineConfig, MB
from repro.hardware.topology import Machine
from repro.ucx.context import UcpContext


def make_pair(nodes=2, gpus=(0, 6)):
    m = Machine(MachineConfig.summit(nodes=nodes))
    ctx = UcpContext(m)
    wa = ctx.create_worker(0, m.node_of_gpu(gpus[0]), m.socket_of_gpu(gpus[0]))
    wb = ctx.create_worker(1, m.node_of_gpu(gpus[1]), m.socket_of_gpu(gpus[1]))
    return m, wa, wb


class TestTaggedStreamOrdering:
    def test_rndv_does_not_overtake_eager_same_tag(self):
        """big-eager then rndv: the rndv RTS (tiny, bypasses links) must not
        match the first posted receive."""
        m, wa, wb = make_pair()
        small = m.alloc_host(0, 8 * KB)
        small.data[:] = 1
        big = m.alloc_host(0, 1 * MB)
        big.data[:] = 2
        d1 = m.alloc_host(1, 1 * MB)
        d2 = m.alloc_host(1, 1 * MB)
        r1 = wb.tag_recv_nb(d1, 1 * MB, tag=5)
        r2 = wb.tag_recv_nb(d2, 1 * MB, tag=5)
        wa.tag_send_nb(wa.ep(1), small, 8 * KB, tag=5)  # eager (bulk wire)
        wa.tag_send_nb(wa.ep(1), big, 1 * MB, tag=5)  # rndv (RTS bypasses)
        m.sim.run()
        assert r1.completed and r2.completed
        assert r1.info[1] == 8 * KB and d1.data[0] == 1
        assert r2.info[1] == 1 * MB and d2.data[0] == 2

    def test_mixed_sizes_exact_capacity_never_truncates(self):
        """The original failure: exact-capacity receives posted in send
        order must all match without truncation despite protocol mixes."""
        m, wa, wb = make_pair()
        sizes = [64, 512 * KB, 256, 64 * KB, 2 * MB, 1 * KB]
        reqs = []
        for i, size in enumerate(sizes):
            dst = m.alloc_host(1, size)
            reqs.append((wb.tag_recv_nb(dst, size, tag=1), dst, i, size))
        for i, size in enumerate(sizes):
            src = m.alloc_host(0, size)
            src.data[:] = (i + 1) * 7 % 251
            wa.tag_send_nb(wa.ep(1), src, size, tag=1)
        m.sim.run()
        for req, dst, i, size in reqs:
            assert req.completed and req.status.name == "OK", (i, size)
            assert dst.data[0] == (i + 1) * 7 % 251

    def test_device_eager_and_rndv_ordered(self):
        m, wa, wb = make_pair()
        small = m.alloc_device(0, 1 * KB)
        small.data[:] = 3
        big = m.alloc_device(0, 256 * KB)
        big.data[:] = 4
        d1 = m.alloc_device(6, 256 * KB)
        d2 = m.alloc_device(6, 256 * KB)
        r1 = wb.tag_recv_nb(d1, 256 * KB, tag=9)
        r2 = wb.tag_recv_nb(d2, 256 * KB, tag=9)
        wa.tag_send_nb(wa.ep(1), small, 1 * KB, tag=9)
        wa.tag_send_nb(wa.ep(1), big, 256 * KB, tag=9)
        m.sim.run()
        assert r1.info[1] == 1 * KB and d1.data[0] == 3
        assert r2.info[1] == 256 * KB and d2.data[0] == 4

    def test_unexpected_queue_respects_send_order(self):
        """Nothing posted: messages park in the unexpected queue in send
        order, so later receives drain them FIFO."""
        m, wa, wb = make_pair()
        first = m.alloc_host(0, 32 * KB)
        first.data[:] = 11
        second = m.alloc_host(0, 64)
        second.data[:] = 22
        wa.tag_send_nb(wa.ep(1), first, 32 * KB, tag=2)  # rndv
        wa.tag_send_nb(wa.ep(1), second, 64, tag=2)  # eager ctrl-sized
        m.sim.run()
        d = m.alloc_host(1, 32 * KB)
        r1 = wb.tag_recv_nb(d, 32 * KB, tag=2)
        m.sim.run()
        assert r1.info[1] == 32 * KB and d.data[0] == 11

    def test_fin_not_sequenced(self):
        """FINs travel outside the matchable stream; a rendezvous completes
        even while later matchable traffic is held for ordering."""
        m, wa, wb = make_pair()
        big = m.alloc_host(0, 1 * MB)
        dst = m.alloc_host(1, 1 * MB)
        r = wb.tag_recv_nb(dst, 1 * MB, tag=1)
        s = wa.tag_send_nb(wa.ep(1), big, 1 * MB, tag=1)
        m.sim.run()
        assert s.completed and r.completed


class TestAmStreamOrdering:
    def test_small_envelope_does_not_overtake_large(self):
        m, wa, wb = make_pair()
        got = []
        wb.set_am_handler(lambda payload, size, src: got.append(payload))
        wa.am_send(wa.ep(1), 8 * KB, payload="big-first")  # eager, queues
        wa.am_send(wa.ep(1), 64, payload="small-second")  # would bypass
        m.sim.run()
        assert got == ["big-first", "small-second"]

    def test_many_mixed_sizes_stay_ordered(self):
        m, wa, wb = make_pair(nodes=1, gpus=(0, 1))
        got = []
        wb.set_am_handler(lambda payload, size, src: got.append(payload))
        rng = np.random.default_rng(5)
        for i in range(20):
            wa.am_send(wa.ep(1), int(rng.integers(1, 12 * KB)), payload=i)
        m.sim.run()
        assert got == list(range(20))

    def test_bidirectional_streams_independent(self):
        m, wa, wb = make_pair()
        got_a, got_b = [], []
        wa.set_am_handler(lambda p, s, src: got_a.append(p))
        wb.set_am_handler(lambda p, s, src: got_b.append(p))
        for i in range(5):
            wa.am_send(wa.ep(1), 4 * KB, payload=("a", i))
            wb.am_send(wb.ep(0), 64, payload=("b", i))
        m.sim.run()
        assert got_b == [("a", i) for i in range(5)]
        assert got_a == [("b", i) for i in range(5)]
