"""Typed metrics registry: counters, histograms, per-layer time.

Counters are a plain dict keyed by the ``(category, event)`` tuple (no
f-string formatting or ``Counter`` hashing per event); the tracer's
``count``/``stage`` entries increment :attr:`MetricsRegistry.counts`
directly, and the dotted-key :class:`collections.Counter` view is built on
read (end of run).

On top of the counters the registry adds the typed instruments the
observability subsystem needs, both folded from the tracer's record when read
(:mod:`repro.obs.tracing`; :meth:`MetricsRegistry.snapshot` calls ``fold``
first):

* **histograms** — fixed bucket ladders for message sizes
  (:data:`SIZE_BUCKETS`, the OSU power-of-two ladder) and latencies
  (:data:`LATENCY_BUCKETS`, a 1-2-5 ladder in seconds);
* **per-category simulated time** — the modeled CPU cost each layer charges
  (:attr:`MetricsRegistry.times`), which is how the §IV-B1 overhead anatomy
  attributes AMPI time *outside* UCX from one traced run.

Everything is observation-only: no method touches the simulator, so metrics
can never perturb simulated clocks or event ordering.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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

    def snapshot(self) -> Dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Counters, histograms and per-layer time for one simulation."""

    def __init__(self, fold: Optional[Callable[[], None]] = None) -> None:
        #: (category, event) -> count; the per-message hot path writes here
        self.counts: Dict[Tuple[str, str], int] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: category -> modeled simulated seconds charged by that layer
        self.times: Dict[str, float] = {}
        self._fold = fold

    # -- counters (hot path) -------------------------------------------------
    def counter(self, category: str, event: str) -> int:
        return self.counts.get((category, event), 0)

    @property
    def counters(self) -> Counter:
        """Counter view keyed ``"category.event"`` (built on each read)."""
        return Counter({f"{c}.{e}": n for (c, e), n in self.counts.items()})

    # -- histograms -------------------------------------------------------------
    def observe_all(
        self, observations: Iterable[Tuple[str, Sequence[float], float]]
    ) -> None:
        """Add each ``(histogram, bounds, value)`` in order; a histogram is
        created, with ``bounds``, at its first value."""
        histograms = self._histograms
        for name, bounds, value in observations:
            hist = histograms.get(name)
            if hist is None:
                hist = histograms[name] = Histogram(name, bounds)
            hist.counts[bisect_left(hist.bounds, value)] += 1
            hist.count += 1
            hist.total += value

    # -- export -------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-dict snapshot (the stable export format; JSON-serialisable)."""
        if self._fold is not None:
            self._fold()
        return {
            "counters": {f"{c}.{e}": n for (c, e), n in self.counts.items()},
            "histograms": {n: h.snapshot() for n, h in self._histograms.items()},
            "time_by_category": dict(self.times),
        }
