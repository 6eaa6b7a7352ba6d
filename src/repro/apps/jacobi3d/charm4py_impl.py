"""Charm4py Jacobi3D (paper §IV-C3): channels between neighbouring chares.

Each block is a coroutine chare holding one channel per neighbour; the
per-iteration exchange is the paper's Fig. 8 pattern — GPU-aware sends of
device buffers, or host staging with explicit CUDA copies.
"""

from __future__ import annotations

from repro.apps.jacobi3d.common import BlockState, BlockTimings, ResultCollector
from repro.apps.jacobi3d.decomposition import DIRS, Decomposition
from repro.charm4py import PyChare


class JacobiBlockPy(PyChare):
    def __init__(self, decomp: Decomposition, gpu_aware: bool, iters: int,
                 warmup: int, functional: bool, collector: ResultCollector):
        self.decomp = decomp
        self.gpu_aware = gpu_aware
        self.iters = iters
        self.warmup = warmup
        self.collector = collector
        self.state = BlockState(
            self.c4p.cuda, self.gpu, decomp, self.thisIndex, functional,
            host_staging=not gpu_aware,
        )
        self.timings = BlockTimings()

    def run(self, peers):
        st = self.state
        c4p = self.c4p
        nbrs = st.neighbors
        chans = {d: c4p.channel(self, peers[nbr]) for d, nbr in nbrs}
        for it in range(self.warmup + self.iters):
            t0 = c4p.sim.now
            parity = it % 2
            yield st.pack(parity)
            tc0 = c4p.sim.now
            if self.gpu_aware:
                sends, ghosts = st.d_send[parity], st.d_ghost[parity]
                for d, _nbr in nbrs:
                    yield chans[d].send(sends[DIRS.index(d)], st.faces[d])
                for d, _nbr in nbrs:
                    yield chans[d].recv(ghosts[DIRS.index(d)], st.faces[d])
            else:
                yield st.stage_out(parity)
                for d, _nbr in nbrs:
                    yield chans[d].send(st.h_send[d])
                for d, _nbr in nbrs:
                    h = yield chans[d].recv()
                    st.h_recv[d].copy_from(h, st.faces[d])
                    yield st.stage_in(d, parity)
            tcomm = c4p.sim.now - tc0
            yield st.unpack(parity)
            yield st.compute()
            st.swap()
            self.timings.iter_times.append(c4p.sim.now - t0)
            self.timings.comm_times.append(tcomm)
        self.collector.report(self.thisIndex, self.timings, st.u)


def run_charm4py_jacobi(sess, decomp: Decomposition, gpu_aware: bool,
                        iters: int = 5, warmup: int = 1,
                        functional: bool = False) -> ResultCollector:
    c4p = sess.lib
    n = decomp.n_blocks
    if n != c4p.charm.n_pes:
        raise ValueError(f"{n} blocks but {c4p.charm.n_pes} PEs")
    collector = ResultCollector(c4p.sim, n, warmup)
    peers = c4p.create_array(
        JacobiBlockPy, n, decomp, gpu_aware, iters, warmup, functional, collector,
        mapping=lambda i: i,
    )
    for i in range(n):
        peers[i].run(peers)
    c4p.run_until(collector.done, max_events=200_000_000)
    return collector
