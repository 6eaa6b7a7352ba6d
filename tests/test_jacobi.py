"""Tests for the Jacobi3D proxy app: decomposition, correctness, timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.apps.jacobi3d.charm_impl import run_charm_jacobi
from repro.apps.jacobi3d.charm4py_impl import run_charm4py_jacobi
from repro.apps.jacobi3d.common import initial_field
from repro.apps.jacobi3d.decomposition import (
    DIRS,
    Decomposition,
    best_grid,
    opposite,
    weak_scaling_domain,
)
from repro.apps.jacobi3d.kernels import jacobi_reference_step
from repro.apps.jacobi3d.mpi_impl import run_mpi_jacobi
from repro.config import MachineConfig


class TestDecomposition:
    def test_best_grid_divides_domain(self):
        grid = best_grid(6, (1536, 1536, 1536))
        assert sorted(grid) == [1, 2, 3]

    def test_best_grid_minimises_surface(self):
        # for a cube and p=8 the optimum is 2x2x2
        assert best_grid(8, (64, 64, 64)) == (2, 2, 2)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            best_grid(7, (10, 10, 10))

    def test_weak_scaling_doubles_xyz_in_order(self):
        assert weak_scaling_domain(1536, 1) == (1536, 1536, 1536)
        assert weak_scaling_domain(1536, 2) == (3072, 1536, 1536)
        assert weak_scaling_domain(1536, 4) == (3072, 3072, 1536)
        assert weak_scaling_domain(1536, 8) == (3072, 3072, 3072)
        assert weak_scaling_domain(1536, 256) == (12288, 12288, 6144)

    def test_weak_scaling_requires_power_of_two(self):
        with pytest.raises(ValueError):
            weak_scaling_domain(1536, 3)

    def test_coords_rank_roundtrip(self):
        d = Decomposition.create((24, 24, 24), 12)
        for r in range(d.n_blocks):
            assert d.rank_of(*d.coords(r)) == r

    def test_neighbor_symmetry(self):
        d = Decomposition.create((24, 24, 24), 12)
        for r in range(d.n_blocks):
            for direction, n in d.neighbors(r):
                assert d.neighbor(n, opposite(direction)) == r

    def test_boundary_blocks_have_no_outside_neighbors(self):
        d = Decomposition.create((12, 12, 12), 6)
        assert d.neighbor(0, "-x") is None
        assert d.neighbor(0, "-y") is None

    def test_face_bytes(self):
        d = Decomposition.create((12, 24, 48), 6)  # grid divides
        bx, by, bz = d.block
        assert d.face_bytes("+x") == by * bz * 8
        assert d.face_bytes("-z") == bx * by * 8

    def test_interior_block_has_six_neighbors(self):
        d = Decomposition.create((12, 12, 12), 27)
        center = d.rank_of(1, 1, 1)
        assert len(d.neighbors(center)) == 6

    @given(
        p=st.sampled_from([6, 12, 24, 48]),
        edge=st.sampled_from([12, 24, 48]),
    )
    @settings(max_examples=20, deadline=None)
    def test_blocks_tile_domain_exactly(self, p, edge):
        d = Decomposition.create((edge, edge, edge), p)
        px, py, pz = d.grid
        bx, by, bz = d.block
        assert px * bx == edge and py * by == edge and pz * bz == edge
        assert d.n_blocks == p
        # every cell belongs to exactly one block
        assert d.cells_per_block * d.n_blocks == edge ** 3


RUNNERS = {
    "charm": run_charm_jacobi,
    "ampi": run_mpi_jacobi,
    "openmpi": run_mpi_jacobi,
    "charm4py": run_charm4py_jacobi,
}


def _session(cfg, model="charm"):
    return api.session(cfg).model(model).build()


def reference_solution(domain, iters):
    decomp = Decomposition.create(domain, 6)
    u = np.zeros(tuple(d + 2 for d in domain))
    u[1:-1, 1:-1, 1:-1] = initial_field(decomp)
    for _ in range(iters):
        u = jacobi_reference_step(u)
    return u[1:-1, 1:-1, 1:-1]


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("model", sorted(RUNNERS))
    @pytest.mark.parametrize("gpu_aware", [True, False])
    def test_matches_reference(self, model, gpu_aware):
        domain = (12, 12, 12)
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create(domain, 6)
        col = RUNNERS[model](_session(cfg, model), decomp, gpu_aware=gpu_aware,
                             iters=3, warmup=0, functional=True)
        got = col.assemble(decomp)
        ref = reference_solution(domain, 3)
        assert np.allclose(got, ref)

    def test_two_node_decomposition_correct(self):
        domain = (24, 12, 12)
        cfg = MachineConfig.summit(nodes=2)
        decomp = Decomposition.create(domain, 12)
        col = run_charm_jacobi(_session(cfg), decomp, gpu_aware=True, iters=2,
                               warmup=0, functional=True)
        assert np.allclose(col.assemble(decomp), reference_solution(domain, 2))

    def test_overdecomposition_correct(self):
        domain = (24, 12, 12)
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create(domain, 12)  # 2 blocks per PE
        col = run_charm_jacobi(_session(cfg), decomp, gpu_aware=True, iters=2,
                               warmup=0, functional=True, blocks_per_pe=2)
        assert np.allclose(col.assemble(decomp), reference_solution(domain, 2))


class TestHostStagingBuffers:
    @pytest.mark.parametrize("model", sorted(RUNNERS))
    @pytest.mark.parametrize("gpu_aware", [True, False])
    def test_only_a_host_staged_run_allocates_staging_buffers(
            self, model, gpu_aware, monkeypatch):
        """A GPU-aware block never reads host staging buffers, so it has
        none; a host-staged one has a send and a receive buffer per face."""
        from repro.hardware.cuda import CudaRuntime

        staging = []
        malloc_host = CudaRuntime.malloc_host

        def counted(self, node, size):
            staging.append(size)
            return malloc_host(self, node, size)

        monkeypatch.setattr(CudaRuntime, "malloc_host", counted)
        domain = (12, 12, 12)
        decomp = Decomposition.create(domain, 6)
        col = RUNNERS[model](_session(MachineConfig.summit(nodes=1), model),
                             decomp, gpu_aware=gpu_aware, iters=2, warmup=0,
                             functional=True)
        faces = sum(len(decomp.neighbors(r)) for r in range(decomp.n_blocks))
        assert len(staging) == (0 if gpu_aware else 2 * faces) and faces > 0
        assert np.allclose(col.assemble(decomp), reference_solution(domain, 2))


class TestTimingCollection:
    def test_timings_populated_and_positive(self):
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((12, 12, 12), 6)
        col = run_charm_jacobi(_session(cfg), decomp, gpu_aware=True, iters=4,
                               warmup=1, functional=False)
        assert col.avg_iter_time() > 0
        assert 0 < col.avg_comm_time() < col.avg_iter_time()

    def test_block_count_mismatch_rejected(self):
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((12, 12, 12), 12)
        with pytest.raises(ValueError):
            run_charm_jacobi(_session(cfg), decomp, gpu_aware=True)

    def test_double_report_rejected(self):
        from repro.apps.jacobi3d.common import BlockTimings, ResultCollector
        from repro.sim.engine import Simulator

        col = ResultCollector(Simulator(), n_blocks=2, warmup=0)
        col.report(0, BlockTimings([1.0], [0.5]))
        with pytest.raises(RuntimeError):
            col.report(0, BlockTimings([1.0], [0.5]))

    def test_mismatched_iteration_counts_detected(self):
        from repro.apps.jacobi3d.common import BlockTimings, ResultCollector
        from repro.sim.engine import Simulator

        col = ResultCollector(Simulator(), n_blocks=2, warmup=0)
        col.report(0, BlockTimings([1.0], [0.5]))
        col.report(1, BlockTimings([1.0, 2.0], [0.5, 0.6]))
        with pytest.raises(RuntimeError):
            col.avg_iter_time()


class TestPaperShapes:
    def test_gpu_aware_faster_at_one_node(self):
        """Fig. 14-16, 1 node: D comm is several times faster than H."""
        from repro.apps.jacobi3d.driver import run_jacobi

        d = run_jacobi("charm", nodes=1, gpu_aware=True, iters=2, warmup=1)
        h = run_jacobi("charm", nodes=1, gpu_aware=False, iters=2, warmup=1)
        assert h.comm_time / d.comm_time > 3
        assert h.iter_time > d.iter_time

    def test_comm_share_grows_with_scale(self):
        from repro.apps.jacobi3d.driver import run_jacobi

        small = run_jacobi("charm", nodes=1, gpu_aware=True, iters=2, warmup=1)
        large = run_jacobi("charm", nodes=4, gpu_aware=True, iters=2, warmup=1)
        assert large.comm_time / large.iter_time > small.comm_time / small.iter_time


class TestJacobiKernelsUnit:
    """Pack/unpack/stencil kernels verified slice-by-slice, no runtime."""

    def _field(self, shape=(4, 5, 6)):
        rng = np.random.default_rng(3)
        u = np.zeros(tuple(d + 2 for d in shape))
        u[1:-1, 1:-1, 1:-1] = rng.random(shape)
        return u

    @pytest.mark.parametrize("direction,expected_slice", [
        ("-x", np.s_[1, 1:-1, 1:-1]),
        ("+x", np.s_[-2, 1:-1, 1:-1]),
        ("-y", np.s_[1:-1, 1, 1:-1]),
        ("+z", np.s_[1:-1, 1:-1, -2]),
    ])
    def test_pack_extracts_the_right_face(self, direction, expected_slice):
        from repro.apps.jacobi3d.kernels import pack_kernel

        u = self._field()
        face = u[expected_slice]
        out = np.zeros(face.size)
        k = pack_kernel(direction, face.size * 8, u, out)
        k.body()
        assert np.allclose(out[: face.size], face.reshape(-1))

    @pytest.mark.parametrize("direction,ghost_slice", [
        ("-x", np.s_[0, 1:-1, 1:-1]),
        ("+y", np.s_[1:-1, -1, 1:-1]),
        ("-z", np.s_[1:-1, 1:-1, 0]),
    ])
    def test_unpack_fills_the_right_ghost(self, direction, ghost_slice):
        from repro.apps.jacobi3d.kernels import unpack_kernel

        u = self._field()
        ghost_shape = u[ghost_slice].shape
        src = np.arange(int(np.prod(ghost_shape)), dtype=float)
        k = unpack_kernel(direction, src.size * 8, u, src)
        k.body()
        assert np.allclose(u[ghost_slice].reshape(-1), src)

    def test_stencil_is_the_six_point_average(self):
        from repro.apps.jacobi3d.kernels import stencil_kernel

        u = self._field((3, 3, 3))
        out = np.zeros_like(u)
        stencil_kernel(27, u, out).body()
        expect = (
            u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
            + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
            + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
        ) / 6.0
        assert np.allclose(out[1:-1, 1:-1, 1:-1], expect)

    def test_virtual_kernels_have_no_body(self):
        from repro.apps.jacobi3d.kernels import pack_kernel, stencil_kernel

        assert pack_kernel("-x", 1024).body is None
        assert stencil_kernel(1000).body is None
        assert stencil_kernel(1000).bytes_moved == 16000


class TestWeakScalingInvariant:
    def test_cell_count_scales_with_nodes(self):
        from repro.apps.jacobi3d.decomposition import weak_scaling_domain

        base = 1536
        for nodes in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            dims = weak_scaling_domain(base, nodes)
            assert np.prod([float(d) for d in dims]) == float(base) ** 3 * nodes
