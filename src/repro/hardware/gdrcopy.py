"""GDRCopy: CPU-driven low-latency copies between host and GPU BAR1 windows.

The paper (§IV-B1) stresses that UCX *must* find GDRCopy to achieve low
small-message GPU latency — without it, UCX stages small device messages
through ``cudaMemcpy``, paying launch/sync overheads on both sides.  This
module provides the cheap path; :class:`repro.config.UcxConfig` decides
whether it is available.
"""

from __future__ import annotations

from repro.config import UcxConfig


class GdrCopy:
    """Synchronous (CPU-driven) small-message device<->host copies."""

    def __init__(self, cfg: UcxConfig) -> None:
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
