"""The live ring-buffer time series, kept as a test oracle.

Before telemetry became a fold over one record (``repro.obs.timeline``),
every series was a :class:`TimeSeries` that decimated as it went: a series
of capacity ``C`` accepted every ``stride``-th offered sample (``stride``
starts at 1); when the retained buffer would exceed ``C`` points it dropped
every other retained point (``times[::2]``) and doubled ``stride``.  Retained
points always sit at offered-indices that are multiples of ``stride``, so the
buffer is a uniform subsample of everything offered so far; the most recent
offered sample is remembered out-of-band and appended by :meth:`points`.
Exact ``count/min/max/mean`` are tracked over every offered sample.

This is its original spelling; ``tests/test_timeline.py`` offers seeded
streams to it and to the read-time fold and requires the same points and
statistics, float for float.  Like ``reference_engine`` it is never
imported by the runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class TimeSeries:
    """One bounded series of ``(time, value)`` samples with deterministic
    halve-resolution-on-full decimation."""

    __slots__ = ("name", "unit", "capacity", "times", "values", "stride",
                 "offered", "vmin", "vmax", "vsum", "_last_t", "_last_v")

    def __init__(self, name: str, capacity: int = 512,
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
