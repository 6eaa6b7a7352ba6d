"""Resource telemetry: one append-only record of rows, folded into time
series when read.

Spans and flight records answer "where did this one message spend its
time"; telemetry answers "what was the system doing over time": per-link
busy fraction and in-flight bytes, match-queue depths, agenda and pool
occupancy, endpoint churn, retransmits.  With telemetry on, each resource
event appends one plain tuple to :attr:`Telemetry.rows` and does nothing
else:

- ``("sample", t, name, value, unit)``: a gauge, or the engine's agenda
  size every 256th event;
- ``("add", t, name, n, unit)``: a running total moves by ``n`` (a counter
  series of :data:`repro.obs.stages.COUNTER_SERIES`, or the depth of the
  match queues of one name);
- ``("pool", t, gpu, live_bytes, slab_bytes, slabs)``: a pool after an
  alloc or a free;
- ``("park", t, key, link_name, ambient)``: bulk transfer ``key`` (its
  ``id``) found a link busy, under ambient span row ``ambient`` (or None);
- ``("grant", t, links, size, key)``: it took its links;
  ``("release", t, links, size)``, then ``("free", t, link)`` per link: it
  gives them back (a free wakes the transfers parked there at once).

Only a bulk transfer takes a ``Link``, so the grant and free rows fix each
link's occupancy, busy time (while at least one slot is held) and grants:
the fold keeps them, nothing on the link does.  A read folds every row,
with no Python call per row, and the fold is kept until a row is added or
the clock moves; the rows are kept for the session's life (O(rows), as the
span record is until its fold).

A series offered ``n`` samples retains every ``stride``-th from the first,
``stride`` the smallest power of two for which ``(n - 1) // stride + 1 <=
capacity``; :meth:`Series.points` adds the last sample when it was dropped.
That is what a ring buffer halving its resolution on overflow retains
(``tests/oracles/ring_series.py``).  ``count/min/max/mean`` are exact over
every sample, the percentile is over the retained points.

Telemetry never schedules, never changes a modeled delay and never feeds a
decision back (``tests/test_obs_golden.py``, ``tests/test_soak_telemetry.py``).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Dict, List, Optional, Tuple

__all__ = ["DEFAULT_CAPACITY", "Series", "Telemetry", "timeline_dict"]

DEFAULT_CAPACITY = 512


class Series:
    """One folded series: every offered sample's count, min, max, sum and
    last ``(time, value)``, and the retained ``times``/``values``."""

    __slots__ = ("unit", "times", "values", "stride", "offered", "vmin",
                 "vmax", "vsum", "last")

    def points(self) -> List[Tuple[float, float]]:
        """The retained points, and the last sample if it was dropped."""
        pts = list(zip(self.times, self.values))
        if pts[-1] != self.last:
            pts.append(self.last)
        return pts

    @property
    def mean(self) -> float:
        return self.vsum / self.offered

    def percentile(self, q: float) -> float:
        """Percentile over the retained points (nearest-rank)."""
        vals = sorted(v for _, v in self.points())
        return vals[min(len(vals) - 1, int(q * (len(vals) - 1) + 0.5))]

    def stats(self) -> Dict[str, float]:
        return {
            "count": self.offered,
            "retained": len(self.times),
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "p99": self.percentile(0.99),
            "last": self.last[1],
        }


class Telemetry:
    """The telemetry record of one machine and the fold that reads it.

    The tracer owns it and, only while telemetry is on, sets
    ``sim.telemetry`` to it: the engine, a bulk transfer, a recording pool
    and a recording match queue append their rows through that handle; the
    tracer appends the counter and gauge rows.
    """

    #: saturation windows kept per link; later ones are only counted
    _sat_window_cap = 64

    def __init__(self, sim, enabled: bool = False,
                 capacity: int = DEFAULT_CAPACITY, stack: list = ()) -> None:
        self.sim = sim
        self.enabled = enabled
        self.capacity = capacity
        self.rows: List[tuple] = []
        self.stack = stack   # the tracer's ambient span rows
        self._folded: Optional[tuple] = None   # ((rows, now, capacity), fold)

    @property
    def series(self) -> Dict[str, Series]:
        """Every series, by name."""
        return self._fold()[0]

    @property
    def links(self) -> Dict[str, list]:
        """Per link a bulk transfer took: ``[slots held, busy time, busy
        since or None, grants, wait time, waits, {span category: wait
        time}]``, the waits those of the granted transfers that last parked
        on it."""
        return self._fold()[1]

    @property
    def saturation(self) -> Dict[str, Dict]:
        """Per link: its time at full occupancy and its windows (one still
        open is closed at ``sim.now``)."""
        return self._fold()[2]

    def counter(self, name: str) -> float:
        """The running total of counter series ``name``."""
        series = self.series.get(name)
        return series.last[1] if series is not None else 0

    def _fold(self) -> tuple:
        """``(series, links, saturation)`` over every row so far."""
        key = (len(self.rows), self.sim.now, self.capacity)
        if self._folded is not None and self._folded[0] == key:
            return self._folded[1]
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        samples: List[tuple] = []   # (name, unit, time, value)
        totals: Dict[str, float] = {}
        pools: Dict[int, tuple] = {}
        links: Dict[str, list] = {}
        inflight: Dict[str, int] = {}
        inflight_total = 0
        parked: Dict[int, list] = {}    # key -> [first park, link, ambient]
        sat_since: Dict[str, float] = {}
        closed: List[tuple] = []        # saturation windows, as they close
        for row in self.rows:
            kind, t = row[0], row[1]
            if kind == "sample":
                samples.append((row[2], row[4], t, row[3]))
            elif kind == "add":
                total = totals[row[2]] = totals.get(row[2], 0) + row[3]
                samples.append((row[2], row[4], t, total))
            elif kind == "pool":
                pools[row[2]] = row[3:]
                live = slab = n = 0
                for lb, sb, ns in pools.values():
                    live += lb
                    slab += sb
                    n += ns
                frag = 1.0 - live / slab if slab else 0.0
                samples += (("pool.occupancy_bytes", "bytes", t, live),
                            ("pool.slab_bytes", "bytes", t, slab),
                            ("pool.slabs", "slabs", t, n),
                            ("pool.fragmentation", "frac", t, frag))
            elif kind == "park":
                if row[2] in parked:
                    parked[row[2]][1] = row[3]
                else:
                    parked[row[2]] = [t, row[3], row[4]]
            elif kind == "free":
                state = links[row[2].name]
                state[0] -= 1
                if state[0] == 0:
                    state[1] += t - state[2]
                    state[2] = None
            else:   # "grant" (its links taken) or "release" (not yet freed)
                ordered, size = row[2], row[3]
                granted = kind == "grant"
                if granted:
                    for link in ordered:
                        state = links.setdefault(
                            link.name, [0, 0.0, None, 0, 0.0, 0, {}])
                        state[0] += 1
                        state[3] += 1
                        if state[2] is None:
                            state[2] = t
                    first = parked.pop(row[4], None)
                    if first is not None and t > first[0]:
                        waited = t - first[0]
                        ambient = first[2]
                        cat = (ambient[2].span[0] if ambient else None
                               ) or "untraced"
                        # the link it last parked on: a transfer held it then
                        blocker = links[first[1]]
                        blocker[4] += waited
                        blocker[5] += 1
                        blocker[6][cat] = blocker[6].get(cat, 0.0) + waited
                        samples.append(("net.acq_wait_us", "us", t,
                                        waited * 1e6))
                else:
                    size = -size
                inflight_total += size
                samples.append(("net.inflight_bytes", "bytes", t,
                                inflight_total))
                for link in ordered:
                    name = link.name
                    in_use, busy, since = links[name][:3]
                    if since is not None:
                        busy += t - since
                    infl = inflight[name] = inflight.get(name, 0) + size
                    samples += ((f"link.{name}.busy", "frac", t,
                                 min(1.0, busy / t) if t > 0 else 0.0),
                                (f"link.{name}.inflight", "bytes", t, infl))
                    if granted:
                        if in_use >= link.capacity and name not in sat_since:
                            sat_since[name] = t
                    elif name in sat_since:   # a release frees a slot
                        closed.append((name, sat_since.pop(name), t))
        closed += [(name, start, self.sim.now)
                   for name, start in sat_since.items()]
        fold = (self._series(samples), links, self._saturation(closed))
        self._folded = (key, fold)
        return fold

    def _series(self, samples: List[tuple]) -> Dict[str, Series]:
        grouped: Dict[str, tuple] = {}   # name -> (unit, times, values)
        for name, unit, t, v in samples:
            if name not in grouped:
                grouped[name] = (unit, [], [])
            grouped[name][1].append(t)
            grouped[name][2].append(v)
        out: Dict[str, Series] = {}
        for name, (unit, times, values) in grouped.items():
            n = len(times)
            stride = 1
            while (n - 1) // stride >= self.capacity:
                stride *= 2
            # object.__new__: Series() would be a Python call per series
            ts = out[name] = object.__new__(Series)
            ts.unit, ts.stride, ts.offered = unit, stride, n
            ts.times, ts.values = times[::stride], values[::stride]
            ts.vmin, ts.vmax = min(values), max(values)
            # a running sum, left to right (``sum`` of floats is compensated
            # from Python 3.12)
            ts.vsum = reduce(add, values, 0.0)
            ts.last = (times[-1], values[-1])
        return out

    def _saturation(self, closed: List[tuple]) -> Dict[str, Dict]:
        saturation: Dict[str, Dict] = {}
        for name, start, end in closed:
            rec = saturation.setdefault(name, {
                "time": 0.0, "count": 0, "windows": [], "truncated": False})
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
        return saturation


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
