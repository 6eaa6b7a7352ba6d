"""Congestion attribution: the "network weather" report over telemetry.

Where the critical-path analyzer (:mod:`repro.obs.critical_path`) blames
the layers of one worst-case message, this module ranks the *shared
resources* the whole run fought over: which links accumulated the most
acquisition-wait time, which span categories were doing the waiting,
when each link sat at full occupancy (saturation windows), and whether
the endpoint LRU is thrashing (evicting about as fast as it connects).

Everything here is read from the fold of the telemetry record
(:class:`repro.obs.timeline.Telemetry`) — building the report never
touches the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "LinkCongestion",
    "CongestionReport",
    "congestion_report",
]

#: evictions below this are warm-up noise, not thrash
_THRASH_MIN_EVICTIONS = 8
#: thrash = evictions at least this fraction of connects
_THRASH_EVICT_RATIO = 0.5


@dataclass
class LinkCongestion:
    """Per-link contention facts for one run."""

    name: str
    busy_time: float            # seconds >=1 slot held (bulk transfers)
    busy_frac: float            # busy_time / run duration
    wait_time: float            # total acquisition-wait charged to this link
    wait_count: int             # number of waits this link blocked
    transfers: int              # total acquisitions
    waiters: Dict[str, float] = field(default_factory=dict)
    saturated_time: float = 0.0
    saturation_windows: List[Tuple[float, float]] = field(default_factory=list)
    saturation_truncated: bool = False


@dataclass
class CongestionReport:
    duration: float             # simulated seconds covered
    links: List[LinkCongestion]         # every link with any activity
    top_contended: List[LinkCongestion]  # wait_time > 0, ranked
    endpoint_thrash: Dict[str, float]
    retransmits: int

    def format(self, top_n: int = 5) -> str:
        lines = [f"# congestion report over {self.duration * 1e3:.3f} ms "
                 f"simulated"]
        top = self.top_contended[:top_n]
        if not top:
            lines.append("  no acquisition waits recorded — links never "
                         "contended")
        else:
            lines.append(f"  top contended links ({len(top)} of "
                         f"{len(self.top_contended)} with waits):")
            for lc in top:
                lines.append(
                    f"    {lc.name:24s} wait {lc.wait_time * 1e6:10.1f} us "
                    f"({lc.wait_count} waits)  busy {lc.busy_frac * 100:5.1f}% "
                    f" saturated {lc.saturated_time * 1e6:10.1f} us "
                    f"in {len(lc.saturation_windows)}"
                    f"{'+' if lc.saturation_truncated else ''} windows")
                for cat, t in sorted(lc.waiters.items(),
                                     key=lambda kv: (-kv[1], kv[0])):
                    lines.append(f"      waited-on by {cat:16s} "
                                 f"{t * 1e6:10.1f} us")
        th = self.endpoint_thrash
        if th["thrashing"]:
            lines.append(
                f"  endpoint LRU THRASHING: {int(th['evictions'])} evictions "
                f"vs {int(th['connects'])} connects "
                f"({th['eviction_rate']:.0f}/s vs {th['connect_rate']:.0f}/s)")
        else:
            lines.append(
                f"  endpoint LRU healthy: {int(th['evictions'])} evictions vs "
                f"{int(th['connects'])} connects")
        if self.retransmits:
            lines.append(f"  fault layer: {self.retransmits} retransmits")
        return "\n".join(lines)


def congestion_report(tracer, top_n: int = 5) -> CongestionReport:
    """Build a :class:`CongestionReport` from a session's tracer.

    Requires telemetry to have been enabled for the run
    (``SessionBuilder.telemetry()`` / the ``telemetry`` config field).
    """
    telem = tracer.timeline
    if not telem.enabled:
        raise RuntimeError(
            "telemetry was not enabled for this run; build the session "
            "with .telemetry() (or pass --timeline-out/--congestion on "
            "the CLI) and re-run")
    now = telem.sim.now
    duration = now if now > 0 else 0.0
    taken, saturation = telem.links, telem.saturation

    # a link is waited on or saturated only while a transfer holds it
    links: List[LinkCongestion] = []
    for name in sorted(taken):
        (_held, busy, since, transfers, wait_time, wait_count,
         waiters) = taken[name]
        if since is not None:
            busy += now - since
        # the run's busy share, capped at 1, back in seconds
        busy = (min(1.0, busy / now) if now > 0 else 0.0) * duration
        sat = saturation.get(name, {})
        links.append(LinkCongestion(
            name=name,
            busy_time=busy,
            busy_frac=busy / duration if duration else 0.0,
            wait_time=wait_time,
            wait_count=wait_count,
            transfers=transfers,
            waiters=dict(waiters),
            saturated_time=sat.get("time", 0.0),
            saturation_windows=list(sat.get("windows", [])),
            saturation_truncated=sat.get("truncated", False),
        ))
    links.sort(key=lambda lc: (-lc.wait_time, -lc.busy_time, lc.name))
    top = [lc for lc in links if lc.wait_time > 0.0][:max(top_n, 0)]

    metrics = tracer.metrics
    evictions = metrics.counter("ucx", "ep_evicted")
    connects = metrics.counter("ucx", "ep_connect")
    thrash = {
        "evictions": float(evictions),
        "connects": float(connects),
        "eviction_rate": evictions / duration if duration else 0.0,
        "connect_rate": connects / duration if duration else 0.0,
        "thrashing": bool(
            evictions >= _THRASH_MIN_EVICTIONS
            and evictions >= _THRASH_EVICT_RATIO * max(connects, 1)),
    }
    return CongestionReport(
        duration=duration,
        links=links,
        top_contended=top,
        endpoint_thrash=thrash,
        retransmits=metrics.counter("fault", "retransmit"),
    )
