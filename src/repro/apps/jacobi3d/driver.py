"""Jacobi3D driver: weak/strong scaling runs and the CLI."""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional, Tuple

import repro.api as api
from repro.apps.jacobi3d.charm_impl import run_charm_jacobi
from repro.apps.jacobi3d.charm4py_impl import run_charm4py_jacobi
from repro.apps.jacobi3d.decomposition import Decomposition, weak_scaling_domain
from repro.apps.jacobi3d.mpi_impl import run_mpi_jacobi
from repro.config import MachineConfig, add_override_arg
from repro.obs.cli import add_observation_args, observed, report

#: paper §IV-C: weak-scaling base domain edge (1536³ doubles), strong 3072³
WEAK_BASE = 1536
STRONG_DOMAIN = (3072, 3072, 3072)

_RUNNERS = {
    "charm": run_charm_jacobi,
    "ampi": run_mpi_jacobi,
    "openmpi": run_mpi_jacobi,
    "charm4py": run_charm4py_jacobi,
}


@dataclass(frozen=True)
class JacobiResult:
    model: str
    gpu_aware: bool
    nodes: int
    domain: Tuple[int, int, int]
    iter_time: float  # average overall time per iteration (seconds)
    comm_time: float  # average communication time per iteration (seconds)


def run_jacobi(
    model: str,
    nodes: int = 1,
    scaling: str = "weak",
    gpu_aware: bool = True,
    iters: int = 4,
    warmup: int = 1,
    config: Optional[MachineConfig] = None,
    domain: Optional[Tuple[int, int, int]] = None,
    functional: bool = False,
    base: int = WEAK_BASE,
    session=None,
    **runner_kwargs,
) -> JacobiResult:
    """Run one Jacobi3D configuration and return per-iteration timings.

    ``scaling='weak'`` grows the domain from ``base``³ with the node count
    (paper Fig. 14-16 a/b); ``scaling='strong'`` fixes 3072³ (c/d).  An
    explicit ``domain`` overrides both (used by the functional tests).
    Pass a pre-built :class:`repro.api.Session` (e.g. with tracing enabled)
    via ``session`` to run on it instead of constructing a fresh machine.
    """
    if model not in _RUNNERS:
        raise ValueError(f"unknown model {model!r}; pick from {sorted(_RUNNERS)}")
    sess = session if session is not None else api.session(
        config if config is not None else MachineConfig.summit(nodes=nodes)
    ).model(model).build()
    cfg = sess.config
    if domain is None:
        domain = (
            weak_scaling_domain(base, nodes) if scaling == "weak" else STRONG_DOMAIN
        )
    bpp = runner_kwargs.get("blocks_per_pe", 1)
    p = cfg.topology.total_gpus * bpp
    if bpp > 1:
        # Overdecomposition with locality: keep the PE-level grid of the
        # bpp=1 run and slice each PE's block into bpp z-slabs, so the
        # node-boundary cut is unchanged and only overlap/granularity vary.
        from repro.apps.jacobi3d.decomposition import best_grid

        px, py, pz = best_grid(cfg.topology.total_gpus, domain)
        if domain[2] % (pz * bpp) == 0:
            decomp = Decomposition(domain=domain, grid=(px, py, pz * bpp))
            runner_kwargs["mapping"] = (
                lambda i: (i % px) + px * (((i // px) % py) + py * ((i // (px * py)) // bpp))
            )
        else:
            decomp = Decomposition.create(domain, p)
    else:
        decomp = Decomposition.create(domain, p)
    collector = _RUNNERS[model](
        sess, decomp, gpu_aware, iters=iters, warmup=warmup,
        functional=functional, **runner_kwargs,
    )
    return JacobiResult(
        model=model,
        gpu_aware=gpu_aware,
        nodes=cfg.topology.nodes,
        domain=domain,
        iter_time=collector.avg_iter_time(),
        comm_time=collector.avg_comm_time(),
    )


#: Node ladders used by ``--sweep`` (and mirrored by the baseline gate's
#: jacobi workloads): weak scaling from 4 nodes, strong from 8 (the fixed
#: 3072³ domain does not fit the GPU memory of fewer nodes).
SWEEP_WEAK_LADDER = (4, 64, 256)
SWEEP_STRONG_LADDER = (8, 64, 256)
SWEEP_MODELS = ("charm", "ampi", "charm4py")


def run_sweep(
    max_nodes: int = 256,
    models: Tuple[str, ...] = SWEEP_MODELS,
    iters: int = 2,
    warmup: int = 1,
    gpu_aware: bool = True,
) -> dict:
    """The paper-scale scaling sweep (§IV-C): every model in ``models``
    across the weak and strong node ladders up to ``max_nodes``.

    Returns ``{(model, scaling, nodes): JacobiResult}``.
    """
    results = {}
    for model in models:
        for scaling, ladder in (("weak", SWEEP_WEAK_LADDER),
                                ("strong", SWEEP_STRONG_LADDER)):
            for nodes in ladder:
                if nodes > max_nodes:
                    continue
                results[(model, scaling, nodes)] = run_jacobi(
                    model, nodes=nodes, scaling=scaling, gpu_aware=gpu_aware,
                    iters=iters, warmup=warmup,
                )
    return results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Jacobi3D proxy app (simulated)")
    parser.add_argument("model", nargs="?", choices=sorted(_RUNNERS),
                        help="model to run (omit with --sweep to run "
                             "charm, ampi and charm4py)")
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--sweep", action="store_true",
                        help="run the paper-scale weak+strong scaling sweep "
                             "up to --nodes for charm/ampi/charm4py (or just "
                             "the named model) and print a table")
    parser.add_argument("--scaling", choices=["weak", "strong"], default="weak")
    parser.add_argument("--host-staging", action="store_true")
    parser.add_argument("--iters", type=int, default=4)
    add_override_arg(parser)
    add_observation_args(parser)
    args = parser.parse_args(argv)

    if args.sweep:
        models = (args.model,) if args.model else SWEEP_MODELS
        print(f"# Jacobi3D scaling sweep up to {args.nodes} nodes "
              f"(models: {', '.join(models)})")
        print(f"{'model':9s} {'scaling':7s} {'nodes':>5s} "
              f"{'iter_ms':>9s} {'comm_ms':>9s}")
        for (model, scaling, nodes), r in run_sweep(
            max_nodes=args.nodes, models=models, iters=args.iters,
            gpu_aware=not args.host_staging,
        ).items():
            print(f"{model:9s} {scaling:7s} {nodes:5d} "
                  f"{r.iter_time * 1e3:9.3f} {r.comm_time * 1e3:9.3f}")
        return

    if args.model is None:
        parser.error("model is required unless --sweep is given")

    cfg = MachineConfig.summit(nodes=args.nodes).override(*args.override)

    plain_cfg, cfg = cfg, observed(cfg, args)
    sess = api.session(cfg).model(args.model).build()
    result = run_jacobi(
        args.model, nodes=args.nodes, scaling=args.scaling,
        gpu_aware=not args.host_staging, iters=args.iters, session=sess,
    )
    variant = "H" if args.host_staging else "D"
    print(f"# Jacobi3D {args.model}-{variant}, {args.nodes} nodes, "
          f"{args.scaling} scaling, domain {result.domain}")
    print(f"overall time per iteration: {result.iter_time * 1e3:9.3f} ms")
    print(f"comm    time per iteration: {result.comm_time * 1e3:9.3f} ms")
    if cfg is not plain_cfg or cfg.faults is not None:
        report(sess, args)

if __name__ == "__main__":
    main()
