"""The Summit calibration: anchors, procedure, and a self-check.

The absolute timings of this reproduction come from `repro/config.py`'s
constants, tuned once against the paper's published numbers.  This module
records the *procedure* (so the calibration is reproducible and auditable)
and provides :func:`check_anchors`, which re-measures every anchor on the
current model and reports drift — run it after touching any constant:

    python -m repro.bench.calibration

Calibration procedure (as performed; see EXPERIMENTS.md for outcomes):

1. **Link rates** — set NVLink/X-Bus/NIC effective bandwidths so the 4 MB
   GPU-aware bandwidth points land on §IV-B2's peaks (44.7/45.4 GB/s
   intra, 10 GB/s inter).  Effective rates sit below theoretical peaks
   (42.1 GiB/s vs 50 GB/s NVLink, ~10 GB/s vs 12.5 GB/s EDR per rail).
2. **CUDA fixed costs** — memcpy launch + stream sync ≈ 7.5 μs per staged
   hop, set so the eager-protocol speedups of Table I (4.4x/3.6x/1.9x
   intra) emerge from the host-staging variants.
3. **Per-model software overheads** — Charm++ sub-μs dispatch; AMPI's
   ~5 μs of non-UCX work (paper: ~8 μs; §IV-B1); OpenMPI ~0.3 μs per
   side; Charm4py several μs of interpreter/Cython cost per call plus
   ~5 GB/s serialisation.
4. **Host memory copies** — 17 GiB/s per stream, one concurrent stream per
   node: reproduces both the single-pair OSU-H curves and (approximately)
   the 6-GPU Jacobi3D host-staging contention.
5. **Quirks** — the AMPI-H 128 KB dip (§IV-B2) as a pinning-threshold
   artifact; the GDRCopy-detection cliff (§IV-B1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.bench.paper import ANATOMY, PEAK_BW, TABLE1
from repro.config import MachineConfig, MB


@dataclass(frozen=True)
class Anchor:
    """One calibration anchor: what we measure, what the paper reports."""

    name: str
    paper_value: float
    unit: str
    rel_tolerance: float
    measure: Callable[[], float]


def _anchors() -> List[Anchor]:
    from repro.apps.osu import run_bandwidth, run_latency

    cfg = MachineConfig.summit(nodes=2)

    def bw(model, placement):
        return lambda: run_bandwidth(model, 4 * MB, placement, True, cfg) / 1e9

    def eager_speedup(model):
        def f():
            h = run_latency(model, 8, "intra", False, cfg)
            d = run_latency(model, 8, "intra", True, cfg)
            return h / d

        return f

    def anatomy_outside_ucx():
        from repro.bench.figures import ampi_overhead_anatomy

        return ampi_overhead_anatomy(quiet=True)["ampi_outside_ucx_us"]

    peaks = [Anchor(f"{model} {placement} peak bw", PEAK_BW[model][placement],
                    "GB/s", 0.15, bw(model, placement))
             for model, placement in (("charm", "intra"), ("ampi", "intra"),
                                      ("charm4py", "intra"), ("charm", "inter"),
                                      ("charm4py", "inter"))]
    eager = [Anchor(f"{model} eager speedup", TABLE1[model]["eager_intra"],
                    "x", 0.35, eager_speedup(model))
             for model in ("charm", "ampi", "charm4py")]
    return peaks + eager + [
        Anchor("ampi non-UCX overhead", ANATOMY["ampi_outside_ucx_us"], "us",
               0.6, anatomy_outside_ucx),
    ]


@dataclass
class AnchorResult:
    anchor: Anchor
    measured: float

    @property
    def within_tolerance(self) -> bool:
        return (
            abs(self.measured - self.anchor.paper_value)
            <= self.anchor.rel_tolerance * self.anchor.paper_value
        )


def check_anchors(quiet: bool = False) -> List[AnchorResult]:
    """Re-measure every calibration anchor; returns the results."""
    results = [AnchorResult(a, a.measure()) for a in _anchors()]
    if not quiet:
        print(f"{'anchor':>26} {'paper':>8} {'measured':>9} {'tol':>6} {'status':>8}")
        for r in results:
            status = "ok" if r.within_tolerance else "DRIFTED"
            print(
                f"{r.anchor.name:>26} {r.anchor.paper_value:>8.2f} "
                f"{r.measured:>9.2f} {r.anchor.rel_tolerance:>5.0%} {status:>8}"
            )
    return results


def main() -> None:
    results = check_anchors()
    drifted = [r for r in results if not r.within_tolerance]
    if drifted:
        raise SystemExit(f"{len(drifted)} calibration anchor(s) drifted")
    print("all calibration anchors hold")


if __name__ == "__main__":
    main()
