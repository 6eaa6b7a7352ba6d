"""Tests for the Jacobi3D convergence-check extension (reduction-based).

The paper runs a fixed iteration count "without convergence checks, to
evaluate the performance of point-to-point communication"; this extension
adds the residual allreduce a production Jacobi would use — a per-block
residual kernel, a max-reduction to element 0, and a broadcast releasing
every block with the global verdict.
"""

import numpy as np
import pytest

import repro.api as api
from repro.apps.jacobi3d.charm_impl import run_charm_jacobi
from repro.apps.jacobi3d.decomposition import Decomposition
from repro.config import MachineConfig


def _charm(cfg):
    """A fresh Charm++ session on ``cfg``."""
    return api.session(cfg).build()


class TestConvergence:
    def test_terminates_early_with_loose_tolerance(self):
        """With zero boundary conditions the field decays toward 0; a loose
        tolerance must stop the run before the iteration cap."""
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((12, 12, 12), 6)
        col = run_charm_jacobi(
            _charm(cfg), decomp, gpu_aware=True, iters=200, warmup=0,
            functional=True, check_interval=5, tolerance=0.05,
        )
        n_iters = len(col.timings[0].iter_times)
        assert n_iters < 200
        assert n_iters % 5 == 0  # stops only at check iterations

    def test_all_blocks_stop_at_the_same_iteration(self):
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((12, 12, 12), 6)
        col = run_charm_jacobi(
            _charm(cfg), decomp, gpu_aware=True, iters=100, warmup=0,
            functional=True, check_interval=4, tolerance=0.05,
        )
        lengths = {len(t.iter_times) for t in col.timings.values()}
        assert len(lengths) == 1

    def test_residual_decreases_between_checks(self):
        """Run twice with tight/loose tolerance: the tighter run needs at
        least as many iterations (residual is monotone here)."""
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((12, 12, 12), 6)
        loose = run_charm_jacobi(
            _charm(cfg), decomp, gpu_aware=True, iters=300, warmup=0,
            functional=True, check_interval=2, tolerance=0.08,
        )
        tight = run_charm_jacobi(
            _charm(cfg), decomp, gpu_aware=True, iters=300, warmup=0,
            functional=True, check_interval=2, tolerance=0.02,
        )
        assert len(tight.timings[0].iter_times) >= len(loose.timings[0].iter_times)

    def test_result_still_matches_reference_at_stop(self):
        from repro.apps.jacobi3d.common import initial_field
        from repro.apps.jacobi3d.kernels import jacobi_reference_step

        cfg = MachineConfig.summit(nodes=1)
        domain = (12, 12, 12)
        decomp = Decomposition.create(domain, 6)
        col = run_charm_jacobi(
            _charm(cfg), decomp, gpu_aware=True, iters=50, warmup=0,
            functional=True, check_interval=5, tolerance=0.05,
        )
        n_iters = len(col.timings[0].iter_times)
        u = np.zeros(tuple(d + 2 for d in domain))
        u[1:-1, 1:-1, 1:-1] = initial_field(decomp)
        for _ in range(n_iters):
            u = jacobi_reference_step(u)
        assert np.allclose(col.assemble(decomp), u[1:-1, 1:-1, 1:-1])

    def test_unchecked_run_unaffected(self):
        """check_interval=0 (the paper's configuration) is the default and
        runs exactly ``iters`` iterations."""
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((12, 12, 12), 6)
        col = run_charm_jacobi(_charm(cfg), decomp, gpu_aware=True, iters=7,
                               warmup=0, functional=True)
        assert len(col.timings[0].iter_times) == 7

    def test_convergence_check_costs_time(self):
        """The residual kernel + reduction + broadcast add measurable time
        per checked iteration (why the paper leaves them out)."""
        cfg = MachineConfig.summit(nodes=1)
        decomp = Decomposition.create((48, 48, 48), 6)
        plain = run_charm_jacobi(_charm(cfg), decomp, gpu_aware=True, iters=6,
                                 warmup=1, functional=False)
        checked = run_charm_jacobi(_charm(cfg), decomp, gpu_aware=True, iters=6,
                                   warmup=1, functional=False, check_interval=1,
                                   tolerance=0.0)
        assert checked.avg_iter_time() > plain.avg_iter_time()
