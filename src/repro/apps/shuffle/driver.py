"""Shuffle driver: one entry point over the three models, plus the CLI.

``run_shuffle`` runs one all-to-all shuffle and returns a
:class:`~repro.apps.shuffle.common.ShuffleResult`; the ``repro-shuffle``
console script wraps it and adds the pool-on vs pool-off ablation that
motivates the pooled allocator (same machine, same plan, only the
allocator and first-touch amortisation differ).
"""

from __future__ import annotations

import argparse
from typing import Optional

import repro.api as api
from repro.apps.shuffle.charm4py_impl import run_charm4py_shuffle
from repro.apps.shuffle.common import ShuffleCollector, ShufflePlan, ShuffleResult
from repro.apps.shuffle.mpi_impl import shuffle_mpi_program
from repro.config import KB, MachineConfig
from repro.obs.cli import add_observation_args, observed, report

_MODELS = ("ampi", "openmpi", "charm4py")

#: CLI ablation defaults: plausible Summit-scale first-touch charges
#: (cuIpcOpenMemHandle / ibv_reg_mr-shaped, tens of microseconds).
DEFAULT_MAPPING_COST = 20e-6
DEFAULT_EP_SETUP_COST = 10e-6


def run_shuffle(
    model: str = "ampi",
    nodes: int = 2,
    rounds: int = 3,
    chunk: int = 64 * KB,
    seed: int = 0,
    pool: Optional[bool] = None,
    mapping_cost: Optional[float] = None,
    ep_setup_cost: Optional[float] = None,
    max_endpoints: Optional[int] = None,
    config: Optional[MachineConfig] = None,
    session=None,
) -> ShuffleResult:
    """Run one shuffle and return its result.

    One rank per GPU (``nodes * gpus_per_node`` ranks, so ``n*(n-1)``
    directed pairs).  ``pool`` / ``mapping_cost`` / ``ep_setup_cost`` /
    ``max_endpoints`` override the machine config when given; pass a
    pre-built :class:`repro.api.Session` via ``session`` to run on it
    instead (its config wins, as for the other app drivers).
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; pick from {_MODELS}")
    if session is not None:
        cfg = session.config
    else:
        cfg = config if config is not None else MachineConfig.summit(nodes=nodes)
        if pool is not None:
            cfg = cfg.with_pool(pool)
        ucx = {}
        if mapping_cost is not None:
            ucx["mapping_cost"] = mapping_cost
        if ep_setup_cost is not None:
            ucx["ep_setup_cost"] = ep_setup_cost
        if max_endpoints is not None:
            ucx["max_endpoints"] = max_endpoints
        if ucx:
            cfg = cfg.with_ucx(**ucx)
    plan = ShufflePlan(
        n_ranks=cfg.topology.total_gpus, rounds=rounds, chunk=chunk, seed=seed
    )
    if model == "charm4py":
        return run_charm4py_shuffle(cfg, plan, session=session)
    sess = session if session is not None else (
        api.session(cfg).model(model).ranks(plan.n_ranks).build()
    )
    collector = ShuffleCollector(plan, model)
    done = sess.launch(shuffle_mpi_program, plan, collector)
    sess.run_until(done, max_events=500_000_000)
    return collector.finalize(sess.now)


def _print_result(result: ShuffleResult, label: str) -> None:
    plan = result.plan
    print(f"# shuffle {result.model} [{label}]: {plan.n_ranks} ranks, "
          f"{plan.pairs} pairs, {plan.rounds} rounds, "
          f"chunk ~{plan.chunk // 1024} KB")
    print(f"  total time      : {result.total_time * 1e3:10.3f} ms")
    for rnd, t in enumerate(result.round_times):
        print(f"  round {rnd} time    : {t * 1e3:10.3f} ms")
    print(f"  bytes moved     : {result.bytes_moved}")
    print(f"  chunks moved    : {result.chunks_moved}")
    print(f"  eff. bandwidth  : {result.effective_bandwidth / 1e9:10.3f} GB/s")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Dask-style GPU dataframe shuffle (simulated)")
    parser.add_argument("model", nargs="?", choices=sorted(_MODELS),
                        default="ampi")
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--chunk", type=int, default=64 * KB,
                        help="nominal partition size in bytes (chunks vary "
                             "deterministically in [chunk/2, chunk])")
    parser.add_argument("--seed", type=int, default=0)
    pool_group = parser.add_mutually_exclusive_group()
    pool_group.add_argument("--pool", dest="pool", action="store_true",
                            default=True,
                            help="route device allocation through the slab "
                                 "pool (default)")
    pool_group.add_argument("--no-pool", dest="pool", action="store_false",
                            help="direct cudaMalloc/cudaFree per chunk")
    parser.add_argument("--mapping-cost", type=float,
                        default=DEFAULT_MAPPING_COST,
                        help="first-touch per-(buffer, peer) mapping charge "
                             "in seconds (0 disables the model)")
    parser.add_argument("--ep-setup-cost", type=float,
                        default=DEFAULT_EP_SETUP_COST,
                        help="lazy endpoint connection-setup charge in "
                             "seconds (0 disables)")
    parser.add_argument("--max-endpoints", type=int, default=None,
                        help="per-worker endpoint cap (LRU close beyond it)")
    parser.add_argument("--ablation", action="store_true",
                        help="run pool-on AND pool-off on the same plan and "
                             "print the amortisation gap")
    add_observation_args(parser)
    args = parser.parse_args(argv)

    common = dict(
        model=args.model, nodes=args.nodes, rounds=args.rounds,
        chunk=args.chunk, seed=args.seed, mapping_cost=args.mapping_cost,
        ep_setup_cost=args.ep_setup_cost, max_endpoints=args.max_endpoints,
    )

    if args.ablation:
        pooled = run_shuffle(pool=True, **common)
        direct = run_shuffle(pool=False, **common)
        _print_result(pooled, "pool")
        _print_result(direct, "direct")
        if pooled.total_time > 0:
            print(f"# pool speedup: "
                  f"{direct.total_time / pooled.total_time:.2f}x "
                  f"(direct {direct.total_time * 1e3:.3f} ms vs "
                  f"pool {pooled.total_time * 1e3:.3f} ms)")
        return

    sess = None
    plain_cfg = MachineConfig.summit(nodes=args.nodes).with_pool(args.pool).with_ucx(
        mapping_cost=args.mapping_cost,
        ep_setup_cost=args.ep_setup_cost,
        max_endpoints=args.max_endpoints,
    )
    cfg = observed(plain_cfg, args)
    if cfg is not plain_cfg:
        if args.model == "charm4py":
            sess = api.session(cfg).model("charm4py").build()
        else:
            sess = (api.session(cfg).model(args.model)
                    .ranks(cfg.topology.total_gpus).build())
    result = run_shuffle(pool=args.pool, session=sess, **common)
    _print_result(result, "pool" if args.pool else "direct")
    if sess is not None:
        report(sess, args)

if __name__ == "__main__":
    main()
