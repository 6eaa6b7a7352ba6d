"""Typed metrics registry: counters, histograms, per-layer time.

Counters are a plain dict keyed by the ``(category, event)`` tuple (no
f-string formatting or ``Counter`` hashing per event); the tracer's
``count``/``stage`` entries increment :attr:`MetricsRegistry.counts`
directly, and the dotted-key :class:`collections.Counter` view is built on
read (end of run).

On top of the counters the registry adds the typed instruments the
observability subsystem needs:

* **histograms** — fixed bucket ladders for message sizes
  (:data:`SIZE_BUCKETS`, the OSU power-of-two ladder) and latencies
  (:data:`LATENCY_BUCKETS`, a 1-2-5 ladder in seconds);
* **per-category simulated time** — the modeled CPU cost each layer charges
  (:meth:`MetricsRegistry.add_time`), which is how the §IV-B1 overhead
  anatomy attributes AMPI time *outside* UCX from one traced run.

Everything is observation-only: no method touches the simulator, so metrics
can never perturb simulated clocks or event ordering.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Dict, List, Sequence, Tuple

#: Message-size ladder (bytes): the OSU sweep's powers of two, 1 B .. 4 MiB.
#: Values above the last bound land in the implicit +inf bucket.
SIZE_BUCKETS: Tuple[int, ...] = tuple(1 << i for i in range(23))

#: Latency ladder (seconds): 1-2-5 steps from 0.5 us to 10 ms.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    us * 1e-6
    for us in (0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000)
)


class Histogram:
    """Fixed-bucket histogram: ``bounds`` are inclusive upper edges in
    ascending order, plus an implicit overflow bucket."""

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Counters, histograms and per-layer time for one simulation."""

    def __init__(self) -> None:
        #: (category, event) -> count; the per-message hot path writes here
        self.counts: Dict[Tuple[str, str], int] = {}
        self._histograms: Dict[str, Histogram] = {}
        # category -> modeled simulated seconds charged by that layer
        self._times: Dict[str, float] = {}

    # -- counters (hot path) -------------------------------------------------
    def inc(self, category: str, event: str, n: int = 1) -> None:
        key = (category, event)
        counts = self.counts
        counts[key] = counts.get(key, 0) + n

    def counter(self, category: str, event: str) -> int:
        return self.counts.get((category, event), 0)

    @property
    def counters(self) -> Counter:
        """Counter view keyed ``"category.event"`` (built on each read)."""
        return Counter({f"{c}.{e}": n for (c, e), n in self.counts.items()})

    # -- histograms -------------------------------------------------------------
    def histogram(self, name: str, bounds: Sequence[float] = SIZE_BUCKETS) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds)
        return hist

    def observe(
        self, name: str, value: float, bounds: Sequence[float] = SIZE_BUCKETS
    ) -> None:
        self.histogram(name, bounds).observe(value)

    # -- per-layer time ----------------------------------------------------------
    def add_time(self, category: str, seconds: float) -> None:
        times = self._times
        times[category] = times.get(category, 0.0) + seconds

    def time_in(self, category: str) -> float:
        return self._times.get(category, 0.0)

    # -- export -------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-dict snapshot (the stable export format; JSON-serialisable)."""
        return {
            "counters": {f"{c}.{e}": n for (c, e), n in self.counts.items()},
            "histograms": {n: h.snapshot() for n, h in self._histograms.items()},
            "time_by_category": dict(self._times),
        }

    def reset(self) -> None:
        self.counts.clear()
        self._histograms.clear()
        self._times.clear()
