"""Cross-layer integration tests: the paper's claims as executable checks."""

import pytest

from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu import run_latency
from repro.config import KB, MachineConfig, MB


class TestModelConsistency:
    def test_ampi_and_openmpi_run_identical_programs(self):
        """AMPI's promise: the same MPI program runs unchanged; only the
        runtime differs.  Both Jacobi runs share one program and one runner."""
        from repro.apps.jacobi3d.decomposition import Decomposition
        from repro.apps.jacobi3d.mpi_impl import run_mpi_jacobi
        import numpy as np
        import repro.api as api

        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((12, 12, 12), 6)
        a, o = (
            run_mpi_jacobi(api.session(cfg).model(model).build(), decomp, True,
                           iters=2, warmup=0, functional=True)
            for model in ("ampi", "openmpi")
        )
        assert np.allclose(a.assemble(decomp), o.assemble(decomp))

    def test_layer_cost_ordering(self):
        """OpenMPI < Charm++ < AMPI < Charm4py in small-message overhead
        (Figs. 10a-c read at the smallest size)."""
        lats = {
            m: run_latency(m, 8, "intra", True, iters=10, skip=2)
            for m in ("openmpi", "charm", "ampi", "charm4py")
        }
        assert lats["openmpi"] < lats["charm"] < lats["ampi"] < lats["charm4py"]

    def test_all_models_share_transport_peak(self):
        """All four ride the same UCX machine layer: large-message D latency
        converges to the wire time (SIII: one abstraction layer)."""
        lats = [
            run_latency(m, 4 * MB, "inter", True, iters=5, skip=1)
            for m in ("openmpi", "charm", "ampi")
        ]
        assert max(lats) / min(lats) < 1.1


class TestJacobiScalingShapes:
    def test_weak_scaling_overall_improvement_range(self):
        """Fig. 14a: overall iteration-time reduction 5-37% for Charm++."""
        d = run_jacobi("charm", nodes=1, gpu_aware=True, iters=2, warmup=1)
        h = run_jacobi("charm", nodes=1, gpu_aware=False, iters=2, warmup=1)
        improvement = 1 - d.iter_time / h.iter_time
        assert 0.05 < improvement < 0.5

    def test_weak_scaling_speedup_decreases_with_nodes(self):
        """Fig. 14b: the relative comm speedup shrinks as slower inter-node
        communication starts to dominate."""
        r1d = run_jacobi("charm", nodes=1, gpu_aware=True, iters=2, warmup=1)
        r1h = run_jacobi("charm", nodes=1, gpu_aware=False, iters=2, warmup=1)
        r4d = run_jacobi("charm", nodes=4, gpu_aware=True, iters=2, warmup=1)
        r4h = run_jacobi("charm", nodes=4, gpu_aware=False, iters=2, warmup=1)
        assert r1h.comm_time / r1d.comm_time > r4h.comm_time / r4d.comm_time

    def test_strong_scaling_iter_time_decreases(self):
        r8 = run_jacobi("charm", nodes=8, scaling="strong", gpu_aware=True,
                        iters=2, warmup=1)
        r32 = run_jacobi("charm", nodes=32, scaling="strong", gpu_aware=True,
                         iters=2, warmup=1)
        assert r32.iter_time < r8.iter_time

    def test_charm4py_slowest_overall(self):
        """Fig. 16 vs 14: Charm4py's per-iteration times sit above Charm++'s
        (its y-axis tops out at 300 ms vs 40 ms in the paper)."""
        c = run_jacobi("charm", nodes=1, gpu_aware=False, iters=2, warmup=1)
        p = run_jacobi("charm4py", nodes=1, gpu_aware=False, iters=2, warmup=1)
        assert p.iter_time > c.iter_time

    def test_ampi_tracks_openmpi_gpu_aware(self):
        """Fig. 15: AMPI-D close to OpenMPI-D at small scale."""
        a = run_jacobi("ampi", nodes=1, gpu_aware=True, iters=2, warmup=1)
        o = run_jacobi("openmpi", nodes=1, gpu_aware=True, iters=2, warmup=1)
        assert a.iter_time / o.iter_time < 1.15


class TestConfigurationAblations:
    def test_overdecomposition_functionality(self):
        from repro.bench.figures import ablation_overdecomposition

        r = ablation_overdecomposition(blocks_per_pe=(1, 2), nodes=1, quiet=True)
        assert set(r) == {1, 2}
        assert all(v > 0 for v in r.values())

    def test_without_gdrcopy_hurts_small_device_latency(self):
        base = run_latency("charm", 64, "intra", True, MachineConfig.summit(nodes=2),
                           iters=5, skip=1)
        nogdr = run_latency("charm", 64, "intra", True,
                            MachineConfig.summit(nodes=2).with_ucx(gdrcopy_enabled=False), iters=5, skip=1)
        assert nogdr > 2 * base

    def test_custom_tag_split_works_end_to_end(self):
        from dataclasses import replace

        from repro.config import TagConfig

        cfg = MachineConfig.summit(nodes=2)
        cfg = replace(cfg, tags=TagConfig(msg_bits=4, pe_bits=16, cnt_bits=44))
        lat = run_latency("charm", 1024, "intra", True, cfg, iters=3, skip=1)
        assert lat > 0

    def test_determinism(self):
        """Identical configurations produce identical simulated times."""
        a = run_latency("ampi", 4 * KB, "inter", True, iters=5, skip=1)
        b = run_latency("ampi", 4 * KB, "inter", True, iters=5, skip=1)
        assert a == b
