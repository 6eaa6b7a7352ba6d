#!/usr/bin/env python3
"""Jacobi3D weak scaling, host-staging vs GPU-aware (mini Fig. 14).

Runs the Charm++ Jacobi3D proxy application at increasing node counts with
the paper's weak-scaling rule (1536 cubed base domain, doubled in x, y, z
order) and prints overall and communication time per iteration.  Also
demonstrates the *functional* mode: a small grid is checked cell-for-cell
against a sequential reference before the timing runs.

Run:  python examples/jacobi3d_scaling.py
"""

import numpy as np

import repro.api as api
from repro.apps.jacobi3d import Decomposition, jacobi_reference_step, run_jacobi
from repro.apps.jacobi3d.charm_impl import run_charm_jacobi
from repro.apps.jacobi3d.common import initial_field
from repro.config import MachineConfig


def verify_small_grid():
    """Functional check: the distributed sweep equals the serial one."""
    domain = (12, 12, 12)
    decomp = Decomposition.create(domain, 6)
    sess = api.session(MachineConfig.summit(nodes=1)).model("charm").build()
    col = run_charm_jacobi(sess, decomp, gpu_aware=True, iters=3, warmup=0,
                           functional=True)
    got = col.assemble(decomp)

    u = np.zeros(tuple(d + 2 for d in domain))
    u[1:-1, 1:-1, 1:-1] = initial_field(decomp)
    for _ in range(3):
        u = jacobi_reference_step(u)
    assert np.allclose(got, u[1:-1, 1:-1, 1:-1]), "distributed != serial!"
    print("functional check on a 12^3 grid: distributed == serial  [ok]\n")


def main():
    verify_small_grid()

    print(f"{'nodes':>6} {'domain':>20} {'H overall':>11} {'D overall':>11} "
          f"{'H comm':>9} {'D comm':>9} {'comm speedup':>13}")
    for nodes in (1, 2, 4, 8):
        d = run_jacobi("charm", nodes=nodes, scaling="weak", gpu_aware=True,
                       iters=3, warmup=1)
        h = run_jacobi("charm", nodes=nodes, scaling="weak", gpu_aware=False,
                       iters=3, warmup=1)
        print(f"{nodes:>6} {str(d.domain):>20} "
              f"{h.iter_time * 1e3:>9.2f}ms {d.iter_time * 1e3:>9.2f}ms "
              f"{h.comm_time * 1e3:>7.2f}ms {d.comm_time * 1e3:>7.2f}ms "
              f"{h.comm_time / d.comm_time:>12.1f}x")
    print("\n(times per iteration; compare with paper Fig. 14a/b)")


if __name__ == "__main__":
    main()
