"""Resource-telemetry timelines: bounded time-series over simulated time.

While spans and flight records answer "where did this one message spend
its time", the telemetry subsystem answers "what was the system doing
over time": per-link busy fraction and in-flight bytes, match-queue
depths, simulator agenda occupancy, pool occupancy/fragmentation,
endpoint-table churn and retransmit counts — each sampled into a
:class:`TimeSeries` ring buffer whose memory stays O(capacity) no matter
how long the run is.

Decimation contract
-------------------
A series of capacity ``C`` accepts every ``stride``-th offered sample
(``stride`` starts at 1).  When the retained buffer would exceed ``C``
points it drops every other retained point (``times[::2]``) and doubles
``stride``.  Because retained points always sit at offered-indices that
are multiples of ``stride``, halving keeps exactly the points at
multiples of the *new* stride — so the buffer is a uniform subsample of
everything offered so far, the first point is never dropped, and two
identical runs decimate identically.  The most recent offered sample is
additionally remembered out-of-band and appended by :meth:`points`, so
the last value is never lost either.  Exact ``count/min/max/mean`` are
tracked over *all* offered samples; percentiles are computed over the
retained subsample.

Determinism contract (same as tracing / flight recording, enforced by
``tests/test_obs_golden.py`` and ``tests/test_soak_telemetry.py``):
telemetry code never calls ``sim.schedule``, never changes a modeled
delay, and never feeds back into any decision the simulation makes —
enabling it cannot perturb fingerprints by a single bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_CAPACITY",
    "TimeSeries",
    "Telemetry",
    "timeline_dict",
]

DEFAULT_CAPACITY = 512


class TimeSeries:
    """One bounded series of ``(time, value)`` samples with deterministic
    halve-resolution-on-full decimation."""

    __slots__ = ("name", "unit", "capacity", "times", "values", "stride",
                 "offered", "vmin", "vmax", "vsum", "_last_t", "_last_v")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY,
                 unit: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.unit = unit
        self.capacity = capacity
        self.times: List[float] = []
        self.values: List[float] = []
        self.stride = 1
        self.offered = 0          # samples offered (retained or not)
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.vsum = 0.0
        self._last_t = 0.0
        self._last_v = 0.0

    def sample(self, t: float, v: float) -> None:
        idx = self.offered
        self.offered = idx + 1
        if self.vmin is None or v < self.vmin:
            self.vmin = v
        if self.vmax is None or v > self.vmax:
            self.vmax = v
        self.vsum += v
        self._last_t = t
        self._last_v = v
        if idx % self.stride:
            return
        self.times.append(t)
        self.values.append(v)
        if len(self.times) > self.capacity:
            self.times = self.times[::2]
            self.values = self.values[::2]
            self.stride *= 2

    def __len__(self) -> int:
        return len(self.times)

    def points(self) -> List[Tuple[float, float]]:
        """Retained points plus the most recent offered sample (if it was
        decimated away)."""
        pts = list(zip(self.times, self.values))
        if self.offered and (
            not pts or pts[-1] != (self._last_t, self._last_v)
        ):
            pts.append((self._last_t, self._last_v))
        return pts

    @property
    def mean(self) -> float:
        return self.vsum / self.offered if self.offered else 0.0

    def percentile(self, q: float) -> float:
        """Percentile over the retained subsample (nearest-rank)."""
        pts = self.points()
        if not pts:
            return 0.0
        vals = sorted(v for _, v in pts)
        rank = min(len(vals) - 1, int(q * (len(vals) - 1) + 0.5))
        return vals[rank]

    def stats(self) -> Dict[str, float]:
        return {
            "count": self.offered,
            "retained": len(self.times),
            "min": self.vmin if self.vmin is not None else 0.0,
            "max": self.vmax if self.vmax is not None else 0.0,
            "mean": self.mean,
            "p99": self.percentile(0.99),
            "last": self._last_v if self.offered else 0.0,
        }


class Telemetry:
    """Registry of named :class:`TimeSeries` plus the aggregates the
    congestion report is built from.

    Disabled by default.  Nothing outside ``repro.obs`` calls ``sample``
    or ``bump``: message-path code goes through the tracer (``count`` /
    ``stage`` feed the cumulative series of
    :data:`repro.obs.stages.COUNTER_SERIES`, ``gauge`` and ``queue_probe``
    the resource sizes), and the resource probes below are installed once by
    ``hardware/topology.py`` as ``None``-when-off callables.
    """

    def __init__(self, sim, enabled: bool = False,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.sim = sim
        self.enabled = enabled
        self.capacity = capacity
        self.series: Dict[str, TimeSeries] = {}
        #: the Tracer's ambient span stack (wired by Tracer.__init__) —
        #: used to attribute link waits to the span category that blocked.
        self.ambient_stack: Optional[list] = None
        # congestion-attribution aggregates, all bounded by link count
        self.link_wait_time: Dict[str, float] = {}
        self.link_wait_count: Dict[str, int] = {}
        self.link_waiters: Dict[str, Dict[str, float]] = {}
        self.links: Dict[str, object] = {}   # name -> hardware Resource
        self.saturation: Dict[str, Dict] = {}
        self._sat_since: Dict[str, float] = {}
        self._sat_window_cap = 64
        self._inflight: Dict[str, int] = {}
        self._inflight_total = 0
        self._counts: Dict[str, float] = {}
        self._queue_totals: Dict[str, int] = {}
        self._pool_state: Dict[int, Tuple[int, int, int]] = {}

    # -- core sampling -------------------------------------------------------
    def _series(self, name: str, unit: str) -> TimeSeries:
        ts = self.series.get(name)
        if ts is None:
            ts = self.series[name] = TimeSeries(name, self.capacity, unit)
        return ts

    def sample(self, name: str, value: float, unit: str = "") -> None:
        if not self.enabled:
            return
        self._series(name, unit).sample(self.sim.now, value)

    def bump(self, name: str, n: float = 1) -> None:
        """Cumulative counter sampled as a monotone series (evictions,
        connects, retransmits)."""
        if not self.enabled:
            return
        total = self._counts.get(name, 0) + n
        self._counts[name] = total
        self._series(name, "count").sample(self.sim.now, total)

    def counter(self, name: str) -> float:
        return self._counts.get(name, 0)

    # -- probe factories (wired once, each call-site pays one None-check) ----
    def queue_probe(self, name: str) -> Callable[[int], None]:
        """Returns ``probe(delta)`` maintaining and sampling the depth of
        the named queue (shared total per name across queue instances)."""
        def probe(delta: int) -> None:
            totals = self._queue_totals
            depth = totals.get(name, 0) + delta
            totals[name] = depth
            self._series(name, "items").sample(self.sim.now, depth)

        return probe

    def engine_probe(self, sim) -> Callable[[], None]:
        def probe() -> None:
            self._series("engine.pending_events", "events").sample(
                sim.now, sim.pending_events)

        return probe

    def pool_probe(self, gpu: int) -> Callable[[int, int, int], None]:
        """Returns ``probe(live_bytes, slab_bytes, slabs)`` aggregating all
        instrumented pools into machine-wide occupancy series."""
        state = self._pool_state

        def probe(live_bytes: int, slab_bytes: int, slabs: int) -> None:
            state[gpu] = (live_bytes, slab_bytes, slabs)
            live = slab = n = 0
            for lb, sb, ns in state.values():
                live += lb
                slab += sb
                n += ns
            self.sample("pool.occupancy_bytes", live, "bytes")
            self.sample("pool.slab_bytes", slab, "bytes")
            self.sample("pool.slabs", n, "slabs")
            frag = 1.0 - live / slab if slab else 0.0
            self.sample("pool.fragmentation", frag, "frac")

        return probe

    # -- link instrumentation (called from hardware/links.py) ----------------
    def ambient_category(self) -> str:
        stack = self.ambient_stack
        if stack:
            return stack[-1].category or "untraced"
        return "untraced"

    def link_acquired(self, links, size: int, waited: float,
                      blocker: Optional[str], category: str) -> None:
        now = self.sim.now
        if waited > 0.0 and blocker is not None:
            self.link_wait_time[blocker] = (
                self.link_wait_time.get(blocker, 0.0) + waited)
            self.link_wait_count[blocker] = (
                self.link_wait_count.get(blocker, 0) + 1)
            by_cat = self.link_waiters.setdefault(blocker, {})
            by_cat[category] = by_cat.get(category, 0.0) + waited
            self.sample("net.acq_wait_us", waited * 1e6, "us")
        self._inflight_total += size
        self.sample("net.inflight_bytes", self._inflight_total, "bytes")
        inflight = self._inflight
        for link in links:
            name = link.name
            self.links.setdefault(name, link)
            infl = inflight.get(name, 0) + size
            inflight[name] = infl
            self.sample(f"link.{name}.busy", link.utilisation(), "frac")
            self.sample(f"link.{name}.inflight", infl, "bytes")
            if link.in_use >= link.capacity and name not in self._sat_since:
                self._sat_since[name] = now

    def link_released(self, links, size: int) -> None:
        """Called just *before* the links are released (a release wakes the
        parked transfers synchronously and they may re-acquire)."""
        now = self.sim.now
        self._inflight_total -= size
        self.sample("net.inflight_bytes", self._inflight_total, "bytes")
        inflight = self._inflight
        for link in links:
            name = link.name
            infl = inflight.get(name, 0) - size
            inflight[name] = infl
            self.sample(f"link.{name}.busy", link.utilisation(), "frac")
            self.sample(f"link.{name}.inflight", infl, "bytes")
            if link.in_use - 1 < link.capacity:
                start = self._sat_since.pop(name, None)
                if start is not None:
                    self._close_saturation(self.saturation, name, start, now)

    def _close_saturation(self, saturation: Dict[str, Dict], name: str,
                          start: float, end: float) -> None:
        """Record the window ``[start, end]`` of link ``name`` in
        ``saturation`` (the live records, or the copy a view closes)."""
        rec = saturation.setdefault(
            name, {"time": 0.0, "count": 0, "windows": [],
                   "truncated": False})
        rec["time"] += end - start
        wins = rec["windows"]
        if wins and wins[-1][1] == start:
            # back-to-back handoff at full occupancy: extend, don't split
            wins[-1] = (wins[-1][0], end)
        elif len(wins) < self._sat_window_cap:
            wins.append((start, end))
            rec["count"] += 1
        else:
            rec["truncated"] = True
            rec["count"] += 1

    def saturation_view(self) -> Dict[str, Dict]:
        """Saturation records with any still-open window closed against
        ``sim.now`` by the rule that closes it for real, on a copy."""
        out = {k: {"time": v["time"], "count": v["count"],
                   "windows": list(v["windows"]),
                   "truncated": v["truncated"]}
               for k, v in self.saturation.items()}
        now = self.sim.now
        for name, start in self._sat_since.items():
            self._close_saturation(out, name, start, now)
        return out


def timeline_dict(telemetry: Telemetry) -> Dict:
    """JSON-ready view of every series (what ``--timeline-out`` writes and
    ``python -m repro.bench.timeline summary`` reads)."""
    return {
        "enabled": telemetry.enabled,
        "now": telemetry.sim.now,
        "capacity": telemetry.capacity,
        "series": {
            name: {
                "unit": ts.unit,
                "stats": ts.stats(),
                "points": [[t, v] for t, v in ts.points()],
            }
            for name, ts in sorted(telemetry.series.items())
        },
    }
