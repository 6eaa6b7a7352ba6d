"""Sweep runner and CLI for the OSU benchmarks.

Latency (paper Figs. 10-11) is half the averaged ping-pong round trip after
warm-up; bandwidth (Figs. 12-13) streams ``window`` non-blocking sends per
acknowledgement.  ``-D`` hands device buffers to the communication calls,
``-H`` stages them through host memory with ``cudaMemcpy`` and
``cudaStreamSynchronize`` (Fig. 8's upper branch).  Each model's programs
live in their own module, and a run imports its own model's only.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Sequence, Tuple

import repro.api as api
from repro.config import KB, MachineConfig, MB, add_override_arg

#: The OSU message-size ladder used in the paper's figures: 1 B to 4 MB.
OSU_SIZES: List[int] = [1 << i for i in range(23)]  # 1 ... 4 MiB

MODELS = ("charm", "ampi", "openmpi", "charm4py")

#: Messages in flight per bandwidth loop.
WINDOW = 64

#: model -> (the module of its programs, the name prefix of its runners)
_PROGRAMS = {
    "charm": ("charm_impl", "charm"),
    "ampi": ("mpi_impl", "mpi"),
    "openmpi": ("mpi_impl", "mpi"),
    "charm4py": ("charm4py_impl", "charm4py"),
}


def _runner(model: str, benchmark: str):
    """``model``'s runner of ``benchmark``, importing its programs only."""
    if model not in _PROGRAMS:
        raise ValueError(f"unknown model {model!r}; pick from {MODELS}")
    module, prefix = _PROGRAMS[model]
    return getattr(importlib.import_module(f"repro.apps.osu.{module}"),
                   f"{prefix}_{benchmark}")


def intra_node_pair(config: MachineConfig) -> Tuple[int, int]:
    """Two GPUs on the same socket of node 0 (the paper's intra-node runs)."""
    return (0, 1)


def inter_node_pair(config: MachineConfig) -> Tuple[int, int]:
    """GPU 0 of node 0 and GPU 0 of node 1."""
    return (0, config.topology.gpus_per_node)


def _session(model: str, config: Optional[MachineConfig]) -> api.Session:
    """A fresh session of ``model`` on ``config`` (default: 2-node Summit)."""
    cfg = config if config is not None else MachineConfig.summit(nodes=2)
    return api.session(cfg).model(model).build()


def _pair(config: MachineConfig, placement: str) -> Tuple[int, int]:
    return intra_node_pair(config) if placement == "intra" else inter_node_pair(config)


def run_latency(
    model: str,
    size: int,
    placement: str = "intra",
    gpu_aware: bool = True,
    config: Optional[MachineConfig] = None,
    iters: int = 20,
    skip: int = 4,
    session=None,
) -> float:
    """One latency point; returns one-way latency in seconds.

    Pass a pre-built :class:`repro.api.Session` (e.g. with tracing enabled)
    to run on it instead of constructing a fresh machine."""
    run = _runner(model, "latency")
    sess = session if session is not None else _session(model, config)
    return run(sess, size, _pair(sess.config, placement), gpu_aware, iters, skip)


def run_bandwidth(
    model: str,
    size: int,
    placement: str = "intra",
    gpu_aware: bool = True,
    config: Optional[MachineConfig] = None,
    loops: int = 4,
    skip: int = 1,
    window: int = WINDOW,
    session=None,
) -> float:
    """One bandwidth point; returns bytes/second."""
    run = _runner(model, "bandwidth")
    sess = session if session is not None else _session(model, config)
    return run(sess, size, _pair(sess.config, placement), gpu_aware, loops, skip,
               window)


def run_latency_sweep(
    model: str,
    placement: str = "intra",
    gpu_aware: bool = True,
    sizes: Sequence[int] = OSU_SIZES,
    config: Optional[MachineConfig] = None,
    iters: int = 20,
    skip: int = 4,
) -> Dict[int, float]:
    return {
        s: run_latency(model, s, placement, gpu_aware, config, iters, skip)
        for s in sizes
    }


def run_bandwidth_sweep(
    model: str,
    placement: str = "intra",
    gpu_aware: bool = True,
    sizes: Sequence[int] = OSU_SIZES,
    config: Optional[MachineConfig] = None,
    loops: int = 4,
    skip: int = 1,
    window: int = WINDOW,
) -> Dict[int, float]:
    return {
        s: run_bandwidth(model, s, placement, gpu_aware, config, loops, skip, window)
        for s in sizes
    }


def _fmt_size(size: int) -> str:
    if size >= MB:
        return f"{size // MB}M"
    if size >= KB:
        return f"{size // KB}K"
    return str(size)


def main(argv: Optional[List[str]] = None) -> None:
    import argparse

    from repro.obs.cli import add_observation_args, observed, report

    parser = argparse.ArgumentParser(description="OSU micro-benchmarks (simulated)")
    parser.add_argument("benchmark", choices=["latency", "bandwidth"])
    parser.add_argument("model", choices=list(MODELS))
    parser.add_argument("--placement", choices=["intra", "inter"], default="intra")
    parser.add_argument("--host-staging", action="store_true",
                        help="run the -H variant instead of GPU-aware -D")
    parser.add_argument("--max-size", type=int, default=4 * MB)
    add_override_arg(parser)
    add_observation_args(parser, run="the largest-size run")
    args = parser.parse_args(argv)

    cfg = MachineConfig.summit(nodes=2).override(*args.override)

    sizes = [s for s in OSU_SIZES if s <= args.max_size]
    variant = "H" if args.host_staging else "D"
    label = f"{args.model}-{variant} ({args.placement}-node)"
    if cfg.multirail.enabled:
        label += " +multirail"
    if args.benchmark == "latency":
        series = run_latency_sweep(
            args.model, args.placement, not args.host_staging, sizes, config=cfg
        )
        print(f"# OSU latency: {label}")
        print(f"{'size':>8}  {'latency (us)':>12}")
        for s, v in series.items():
            print(f"{_fmt_size(s):>8}  {v * 1e6:12.2f}")
    else:
        series = run_bandwidth_sweep(
            args.model, args.placement, not args.host_staging, sizes, config=cfg
        )
        print(f"# OSU bandwidth: {label}")
        print(f"{'size':>8}  {'bandwidth (MB/s)':>16}")
        for s, v in series.items():
            print(f"{_fmt_size(s):>8}  {v / 1e6:16.2f}")

    scfg = observed(cfg, args)
    if scfg is not cfg or cfg.faults is not None:
        sess = api.session(scfg).model(args.model).build()
        if args.benchmark == "latency":
            run_latency(args.model, sizes[-1], args.placement,
                        not args.host_staging, session=sess)
        else:
            run_bandwidth(args.model, sizes[-1], args.placement,
                          not args.host_staging, session=sess)
        report(sess, args, f" ({_fmt_size(sizes[-1])} run)")


if __name__ == "__main__":
    main()
