"""Charm++ Jacobi3D (paper §IV-C1).

One chare per PE/GPU (no overdecomposition by default, matching §IV-A;
pass ``blocks_per_pe > 1`` through the driver for the overlap ablation of
the paper's future work).  The main loop is a ``[threaded]`` entry method;
halos arrive through ``halo``/``halo_h`` entry methods — GPU-aware with
``CkDeviceBuffer`` + post entry methods, or host-staged with explicit
``cudaMemcpy``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.apps.jacobi3d.common import BlockState, BlockTimings, ResultCollector
from repro.apps.jacobi3d.decomposition import DIRS, Decomposition, opposite
from repro.charm import Chare, CkCallback, CkDeviceBuffer
from repro.sim.primitives import SimEvent


class JacobiBlock(Chare):
    def __init__(self, decomp: Decomposition, gpu_aware: bool, iters: int,
                 warmup: int, functional: bool, collector: ResultCollector,
                 check_interval: int = 0, tolerance: float = 0.0):
        self.decomp = decomp
        self.gpu_aware = gpu_aware
        self.iters = iters
        self.warmup = warmup
        self.collector = collector
        # convergence checking (the paper runs a fixed iteration count
        # "without convergence checks" to isolate communication; the
        # jacobi_converge_charm_2n baseline entry runs it)
        self.check_interval = check_interval
        self.tolerance = tolerance
        self.state = BlockState(
            self.charm.cuda, self.gpu, decomp, self.thisIndex, functional,
            host_staging=not gpu_aware,
        )
        self.timings = BlockTimings()
        self._halo_counts: Dict[int, int] = {}
        self._halo_waiter: Tuple[int, int, SimEvent] | None = None
        self._residual_event: SimEvent | None = None

    # -- halo arrival accounting ---------------------------------------------
    def _arrived(self, it: int) -> None:
        self._halo_counts[it] = self._halo_counts.get(it, 0) + 1
        if self._halo_waiter is not None:
            wit, needed, ev = self._halo_waiter
            if wit == it and self._halo_counts[it] == needed:
                self._halo_waiter = None
                ev.succeed(None)

    def _wait_halos(self, it: int, needed: int) -> SimEvent:
        ev = SimEvent(self.charm.sim, name="halos")
        if self._halo_counts.get(it, 0) == needed:
            ev.succeed(None)
        else:
            self._halo_waiter = (it, needed, ev)
        return ev

    # -- main loop ([threaded]) ---------------------------------------------------
    def start(self, peers):
        st = self.state
        self._peers_proxy = peers
        nbrs = st.neighbors
        for it in range(self.warmup + self.iters):
            t0 = self.charm.time
            parity = it % 2
            yield st.pack(parity)
            tc0 = self.charm.time
            if self.gpu_aware:
                for d, nbr in nbrs:
                    peers[nbr].halo(
                        CkDeviceBuffer.wrap(st.d_send[parity][DIRS.index(d)]),
                        opposite(d), it, parity, st.faces[d],
                    )
            else:
                yield st.stage_out(parity)
                for d, nbr in nbrs:
                    peers[nbr].halo_h(st.h_send[d], opposite(d), it, parity)
            yield self._wait_halos(it, len(nbrs))
            self._halo_counts.pop(it, None)
            tcomm = self.charm.time - tc0
            yield st.unpack(parity)
            yield st.compute()
            if self.check_interval and (it + 1) % self.check_interval == 0:
                # global max-residual: tree reduction to element 0, which
                # broadcasts the verdict back (the extension the paper's
                # fixed-iteration runs deliberately omit)
                yield st.residual()
                self._residual_event = SimEvent(self.charm.sim, name="residual")
                self.charm.reductions.contribute(
                    self, st.last_residual, "max",
                    CkCallback(proxy=peers[0], method="residual_done"),
                )
                global_residual = yield self._residual_event
                st.swap()
                self.timings.iter_times.append(self.charm.time - t0)
                self.timings.comm_times.append(tcomm)
                if global_residual < self.tolerance:
                    break
                continue
            st.swap()
            self.timings.iter_times.append(self.charm.time - t0)
            self.timings.comm_times.append(tcomm)
        self.collector.report(self.thisIndex, self.timings, st.u)

    # -- convergence plumbing ------------------------------------------------
    def residual_done(self, value):
        """Runs on element 0: broadcast the global residual to all blocks."""
        self._peers_proxy.release(value)

    def release(self, value):
        ev, self._residual_event = self._residual_event, None
        if ev is not None:
            ev.succeed(value)

    # -- GPU-aware halo reception -----------------------------------------------
    def halo_post(self, posts, direction, it, parity, nbytes):
        posts[0].buffer = self.state.d_ghost[parity][DIRS.index(direction)]

    def halo(self, data, direction, it, parity, nbytes):
        self._arrived(it)

    # -- host-staged halo reception ([threaded]: blocks on the HtoD copy) --------
    def halo_h(self, host_data, direction, it, parity):
        st = self.state
        st.h_recv[direction].copy_from(host_data, st.faces[direction])
        yield st.stage_in(direction, parity)
        self._arrived(it)


def run_charm_jacobi(
    sess,
    decomp: Decomposition,
    gpu_aware: bool,
    iters: int = 5,
    warmup: int = 1,
    functional: bool = False,
    blocks_per_pe: int = 1,
    mapping=None,
    check_interval: int = 0,
    tolerance: float = 0.0,
) -> ResultCollector:
    charm = sess.lib
    n = decomp.n_blocks
    if n != charm.n_pes * blocks_per_pe:
        raise ValueError(
            f"{n} blocks but {charm.n_pes} PEs x {blocks_per_pe} blocks/PE"
        )
    collector = ResultCollector(charm.sim, n, warmup)
    peers = charm.create_array(
        JacobiBlock, n, decomp, gpu_aware, iters, warmup, functional, collector,
        check_interval, tolerance,
        mapping=mapping if mapping is not None else (lambda i: i // blocks_per_pe),
    )
    for i in range(n):
        peers[i].start(peers)
    charm.run_until(collector.done, max_events=200_000_000)
    return collector
