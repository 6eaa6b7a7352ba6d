"""Shuffle driver: one entry point over the three models, plus the CLI.

``run_shuffle`` runs one all-to-all shuffle and returns a
:class:`~repro.apps.shuffle.common.ShuffleResult`; the ``repro-shuffle``
console script wraps it and adds the pool-on vs pool-off ablation that
motivates the pooled allocator (same machine, same plan, only the
allocator and first-touch amortisation differ).
"""

from __future__ import annotations

from typing import Optional

import repro.api as api
from repro.apps.shuffle.common import ShuffleCollector, ShufflePlan, ShuffleResult
from repro.config import KB, MachineConfig, add_override_arg

_MODELS = ("ampi", "openmpi", "charm4py")

#: What the CLI applies on top of Summit before the user's ``--override``:
#: the slab pool, and plausible Summit-scale first-touch charges
#: (cuIpcOpenMemHandle / ibv_reg_mr-shaped, tens of microseconds) so the
#: ablation exercises the cost model out of the box.
DEMO_OVERRIDES = {
    "memory.allocator": "pool",
    "ucx.mapping_cost": 20e-6,
    "ucx.ep_setup_cost": 10e-6,
}


def run_shuffle(
    model: str = "ampi",
    nodes: int = 2,
    rounds: int = 3,
    chunk: int = 64 * KB,
    seed: int = 0,
    config: Optional[MachineConfig] = None,
    session=None,
) -> ShuffleResult:
    """Run one shuffle and return its result.

    One rank per GPU (``nodes * gpus_per_node`` ranks, so ``n*(n-1)``
    directed pairs).  Pass a pre-built :class:`repro.api.Session` via
    ``session`` to run on it instead (its config wins, as for the other app
    drivers).
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; pick from {_MODELS}")
    sess = session if session is not None else api.session(
        config if config is not None else MachineConfig.summit(nodes=nodes)
    ).model(model).build()
    plan = ShufflePlan(
        n_ranks=sess.config.topology.total_gpus, rounds=rounds, chunk=chunk,
        seed=seed,
    )
    # import the model's program only: an MPI shuffle loads no Charm4py
    if model == "charm4py":
        from repro.apps.shuffle.charm4py_impl import run_charm4py_shuffle

        return run_charm4py_shuffle(sess, plan)
    from repro.apps.shuffle.mpi_impl import shuffle_mpi_program

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
    import argparse

    from repro.obs.cli import add_observation_args, observed, report

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
    parser.add_argument("--ablation", action="store_true",
                        help="run pool-on AND pool-off on the same plan and "
                             "print the amortisation gap")
    add_override_arg(parser)
    add_observation_args(parser)
    args = parser.parse_args(argv)

    cfg = (MachineConfig.summit(nodes=args.nodes)
           .override(DEMO_OVERRIDES).override(*args.override))
    common = dict(model=args.model, rounds=args.rounds, chunk=args.chunk,
                  seed=args.seed)

    if args.ablation:
        pooled = run_shuffle(config=cfg.with_pool(True), **common)
        direct = run_shuffle(config=cfg.with_pool(False), **common)
        _print_result(pooled, "pool")
        _print_result(direct, "direct")
        if pooled.total_time > 0:
            print(f"# pool speedup: "
                  f"{direct.total_time / pooled.total_time:.2f}x "
                  f"(direct {direct.total_time * 1e3:.3f} ms vs "
                  f"pool {pooled.total_time * 1e3:.3f} ms)")
        return

    plain_cfg, cfg = cfg, observed(cfg, args)
    sess = api.session(cfg).model(args.model).build()
    result = run_shuffle(session=sess, **common)
    _print_result(result, cfg.memory.allocator)
    if cfg is not plain_cfg:
        report(sess, args)

if __name__ == "__main__":
    main()
