"""Determinism guarantees and runtime statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.apps.jacobi3d.charm_impl import run_charm_jacobi
from repro.apps.jacobi3d.decomposition import Decomposition
from repro.charm import Charm, Chare, CkCallback
from repro.config import MachineConfig


class TestDeterminism:
    def test_jacobi_run_reproducible(self):
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((12, 12, 12), 6)

        def run():
            col = run_charm_jacobi(api.session(cfg).build(), decomp, gpu_aware=True,
                                   iters=3, warmup=1)
            return (col.avg_iter_time(), col.avg_comm_time())

        assert run() == run()

    def test_event_counts_reproducible(self):
        def run():
            charm = Charm(MachineConfig.summit(nodes=2))
            from repro.ampi import Ampi

            ampi = Ampi(charm)

            def program(mpi):
                buf = mpi.charm.cuda.malloc(mpi.gpu, 4096)
                right = (mpi.rank + 1) % mpi.size
                left = (mpi.rank - 1) % mpi.size
                s = mpi.isend(buf, 4096, dst=right, tag=1)
                yield mpi.recv(buf, 4096, src=left, tag=1)
                yield s.event

            charm.run_until(ampi.launch(program), max_events=1_000_000)
            return charm.sim.event_count

        assert run() == run()


class TestLinkStatistics:
    def test_jacobi_moves_expected_halo_bytes(self):
        """Conservation check: with faces above the device eager threshold,
        the NVLink ports carry at least the halo volume the decomposition
        predicts (rendezvous CUDA-IPC route)."""
        from repro.charm import Charm as _Charm
        from repro.apps.jacobi3d.charm_impl import JacobiBlock
        from repro.apps.jacobi3d.common import ResultCollector

        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((48, 48, 48), 6)
        # every face actually exchanged is >= the device eager threshold
        exchanged = {d for r in range(decomp.n_blocks) for d, _ in decomp.neighbors(r)}
        assert min(decomp.face_bytes(d) for d in exchanged) >= \
            cfg.ucx.device_eager_threshold
        charm = _Charm(cfg)
        collector = ResultCollector(charm.sim, decomp.n_blocks, warmup=0)
        peers = charm.create_array(
            JacobiBlock, decomp.n_blocks, decomp, True, 2, 0, False, collector,
            mapping=lambda i: i,
        )
        for i in range(decomp.n_blocks):
            peers[i].start(peers)
        charm.run_until(collector.done, max_events=10_000_000)
        total_halo = sum(decomp.face_bytes(d) for r in range(decomp.n_blocks)
                         for d, _ in decomp.neighbors(r))
        nv_bytes = sum(
            l.bytes_carried for l in charm.machine.nodes[0].nvlink_tx
        )
        assert nv_bytes >= 2 * total_halo  # 2 measured iterations

    def test_small_halos_ride_the_eager_host_path(self):
        """Below the device eager threshold the halos stage through GDRCopy
        and host memory — the NVLinks stay idle (UCX protocol selection)."""
        from repro.charm import Charm as _Charm
        from repro.apps.jacobi3d.charm_impl import JacobiBlock
        from repro.apps.jacobi3d.common import ResultCollector

        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((24, 24, 24), 6)  # faces < 4 KB
        charm = _Charm(cfg)
        collector = ResultCollector(charm.sim, decomp.n_blocks, warmup=0)
        peers = charm.create_array(
            JacobiBlock, decomp.n_blocks, decomp, True, 2, 0, False, collector,
            mapping=lambda i: i,
        )
        for i in range(decomp.n_blocks):
            peers[i].start(peers)
        charm.run_until(collector.done, max_events=10_000_000)
        assert sum(l.bytes_carried for l in charm.machine.nodes[0].nvlink_tx) == 0
        assert charm.machine.nodes[0].host_mem.bytes_carried > 0

    def test_pe_busy_time_positive_after_work(self):
        class Busy(Chare):
            def __init__(self):
                pass

            def work(self):
                self.charm.charge_current_pe(1e-5)

        charm = Charm(MachineConfig.summit(nodes=1))
        p = charm.create_chare(Busy, 0)
        p.work()
        charm.run()
        assert charm.pe_object(0).busy_time >= 1e-5


@given(values=st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=12, max_size=12,
))
@settings(max_examples=20, deadline=None)
def test_reduction_sum_matches_numpy(values):
    class W(Chare):
        def __init__(self):
            pass

        def go(self, v, cb):
            self.charm.reductions.contribute(self, v, "sum", cb)

    charm = Charm(MachineConfig.summit(nodes=2))
    results = []
    g = charm.create_group(W)
    cb = CkCallback(fn=results.append)
    for pe, v in enumerate(values):
        g[pe].go(v, cb)
    charm.run()
    assert results[0] == pytest.approx(float(np.sum(values)), rel=1e-12, abs=1e-9)
