"""GDRCopy: CPU-driven low-latency copies between host and GPU BAR1 windows.

The paper (§IV-B1) stresses that UCX *must* find GDRCopy to achieve low
small-message GPU latency — without it, UCX stages small device messages
through ``cudaMemcpy``, paying launch/sync overheads on both sides.  This
module provides the cheap path; :class:`repro.config.UcxConfig` decides
whether it is available.
"""

from __future__ import annotations

from typing import Optional

from repro.config import UcxConfig
from repro.hardware.memory import Buffer
from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent


class GdrCopy:
    """Synchronous (CPU-driven) small-message device<->host copies."""

    def __init__(self, sim: Simulator, cfg: UcxConfig) -> None:
        self.sim = sim
        self.cfg = cfg
        self.copies = 0
        # fault injection can fail the library probe at context init even
        # when the config says GDRCopy is present (FaultPlan.fail_gdrcopy_probe)
        self.forced_unavailable = False

    @property
    def available(self) -> bool:
        return self.cfg.gdrcopy_enabled and not self.forced_unavailable

    def copy_time(self, size: int) -> float:
        """Time for one CPU-driven BAR1 copy of ``size`` bytes."""
        return self.cfg.gdrcopy_latency + size / self.cfg.gdrcopy_bandwidth

    def copy(self, dst: Buffer, src: Buffer, nbytes: Optional[int] = None) -> SimEvent:
        """Perform the copy; completion event fires after :meth:`copy_time`.

        GDRCopy is meant for small transfers only; the UCX protocol layer
        enforces the eager threshold, this class just refuses absurd sizes.
        """
        if not self.available:
            raise RuntimeError("GDRCopy not detected (ucx.gdrcopy_enabled=False)")
        n = nbytes if nbytes is not None else min(dst.size, src.size)
        self.copies += 1
        ev = SimEvent(self.sim, name="gdrcopy")

        def _done() -> None:
            dst.copy_from(src, n)
            ev.succeed(None)

        self.sim.call_later(self.copy_time(n), _done)
        return ev
