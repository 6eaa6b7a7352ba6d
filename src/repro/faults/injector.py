"""The runtime half of fault injection: plan in, seeded decisions out.

One :class:`FaultInjector` is built per :class:`~repro.hardware.topology.
Machine` when its config carries a non-empty :class:`~repro.faults.plan.
FaultPlan`.  The UCP worker consults it per outgoing frame
(:meth:`frame_fault`), the link layer per bulk transfer
(:meth:`bandwidth_factor`), and the UCP context once at startup for the
forced capability failures.

All randomness comes from ``random.Random(plan.seed)`` consumed in
simulated event order — the simulator is deterministic, so the decision
stream is too.  Counters go through ``tracer.count`` (always-on metrics),
so fault statistics appear in ``Session.metrics_snapshot()`` whether or
not tracing is enabled, identically in both modes.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.ucx.constants import CORRUPT, DROP, STALL

__all__ = ["FaultInjector"]


class FaultInjector:
    """Seeded per-run fault decision engine (see module docstring)."""

    def __init__(self, plan: FaultPlan, tracer) -> None:
        if plan.empty:
            raise ValueError("empty FaultPlan builds no injector by contract")
        self.plan = plan
        self.tracer = tracer
        self.rng = random.Random(plan.seed)
        # per-rule hit budgets (index-aligned with plan.link_rules)
        self._hits = [0] * len(plan.link_rules)

    # -- frame faults (wire layer) ---------------------------------------------
    def frame_fault(
        self, src: int, dst: int, kind: str, now: float
    ) -> Optional[Tuple[str, float]]:
        """Decide the fate of one frame attempt from worker ``src`` to
        worker ``dst``.  Returns ``None`` (deliver normally) or
        ``(verb, stall_seconds)`` with verb in drop/corrupt/stall.  Rules
        are consulted in plan order; the first hit wins.  Draws happen
        only for rules that match, keeping unrelated traffic's absence of
        draws stable when a plan adds a narrow rule."""
        for i, rule in enumerate(self.plan.link_rules):
            if not rule.applies(src, dst, kind, now):
                continue
            if rule.max_faults and self._hits[i] >= rule.max_faults:
                continue
            verdict = None
            if rule.drop_p and self.rng.random() < rule.drop_p:
                verdict = (DROP, 0.0)
            elif rule.corrupt_p and self.rng.random() < rule.corrupt_p:
                verdict = (CORRUPT, 0.0)
            elif rule.stall_p and self.rng.random() < rule.stall_p:
                verdict = (STALL, rule.stall_seconds)
            if verdict is not None:
                self._hits[i] += 1
                self.tracer.count("fault", verdict[0])
                return verdict
        return None

    # -- retry schedule ----------------------------------------------------------
    @property
    def max_retries(self) -> int:
        return self.plan.max_retries

    def retry_wait(self, attempt: int) -> float:
        """Backoff before retransmission number ``attempt + 1``."""
        return self.plan.retry_timeout * (self.plan.retry_backoff ** attempt)

    # -- degraded bandwidth (link layer) ----------------------------------------
    def bandwidth_factor(self, link_name: str, now: float) -> float:
        """Effective bandwidth multiplier for ``link_name`` at ``now``
        (the most degraded matching window wins; 1.0 = unimpaired)."""
        factor = 1.0
        for w in self.plan.bandwidth_windows:
            if w.active(link_name, now) and w.factor < factor:
                factor = w.factor
        return factor

    def link_down(self, link_name: str, now: float) -> bool:
        """True when a factor-0.0 window holds the link down at ``now``
        (the rail planner's usability probe)."""
        return self.bandwidth_factor(link_name, now) <= 0.0

    # -- forced capability failures ----------------------------------------------
    def ipc_open_fails(self) -> bool:
        """Every CUDA-IPC handle open fails (rendezvous falls back to
        pipelined host staging); counted per affected transfer."""
        if self.plan.fail_ipc_open:
            self.tracer.count("fault", "ipc_open_failed")
            return True
        return False

    def gdrcopy_probe_fails(self) -> bool:
        """The one-shot startup probe: UCX "fails to find" GDRCopy."""
        return self.plan.fail_gdrcopy_probe
