"""Multirail ablation: the Fig. 12 sweep with striping on vs off.

The multi-path claim pinned as a benchmark: with multirail enabled, the
intra-node GPU-aware bandwidth curve breaks through the single-NVLink-rail
ceiling at large messages (the alternate-brick/host-memory sideband adds
its bandwidth under graph-batched chunk launches), and the inter-node
curve rides both NIC rails.  Multirail-off curves must be bit-identical
to the seed Fig. 12 sweep (guarded by ``test_fig12_bw_intra.py``).
"""

import pytest

from repro.bench import figures
from repro.config import MB, MachineConfig

#: Fig. 12 single-rail ceiling: one NVLink brick (GB/s).
NVLINK_CEILING_GBS = 42.1

#: Striping engages from MultirailConfig.min_bytes (1 MB) upward.
STRIPED_SIZES = [1 * MB, 2 * MB, 4 * MB]


def _mb_per_s(series, model, size):
    return series[f"{model}-D"].at(size)


def test_multirail_fig12_sweep_beats_single_rail(benchmark, osu_sizes):
    sizes = sorted(set(osu_sizes) | set(STRIPED_SIZES))
    cfg_off = MachineConfig.summit(nodes=2)
    cfg_on = cfg_off.override({"multirail.enabled": True})

    def sweep():
        off = figures.fig12(sizes=sizes, config=cfg_off, quiet=True)
        on = figures.fig12(sizes=sizes, config=cfg_on, quiet=True)
        return off, on

    off, on = benchmark.pedantic(sweep, rounds=1, iterations=1)

    for model in ("charm", "ampi"):
        for size in STRIPED_SIZES:
            bw_off = _mb_per_s(off, model, size) / 1e3  # MB/s -> GB/s
            bw_on = _mb_per_s(on, model, size) / 1e3
            # never below the single-rail curve, and above the NVLink-only
            # ceiling at every >= 1 MB point
            assert bw_on >= bw_off, (model, size)
            assert bw_on > NVLINK_CEILING_GBS, (model, size)
        # the 4 MB peak is a real striping win, not a tie
        assert _mb_per_s(on, model, 4 * MB) > 1.1 * _mb_per_s(off, model, 4 * MB)

    # charm4py is software-overhead-bound below the ceiling; striping must
    # still help at the peak
    assert _mb_per_s(on, "charm4py", 4 * MB) > _mb_per_s(off, "charm4py", 4 * MB)

    # below the eligibility floor the curves coincide exactly
    for model in ("charm", "ampi", "charm4py"):
        for size in sizes:
            if size < 1 * MB:
                assert _mb_per_s(on, model, size) == _mb_per_s(off, model, size)


def test_multirail_fig13_inter_node_dual_rail(benchmark, osu_sizes):
    sizes = sorted(set(osu_sizes) | {4 * MB})
    cfg_off = MachineConfig.summit(nodes=2)
    cfg_on = cfg_off.override({"multirail.enabled": True})

    def sweep():
        off = figures.fig13(sizes=sizes, config=cfg_off, quiet=True)
        on = figures.fig13(sizes=sizes, config=cfg_on, quiet=True)
        return off, on

    off, on = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for model in ("charm", "ampi"):
        # dual 9.32 GB/s NIC rails: the striped peak approaches 2x
        assert _mb_per_s(on, model, 4 * MB) > 1.7 * _mb_per_s(off, model, 4 * MB)
