"""Critical-path extraction and layer-blame over the span tree.

The span tree records *what* each layer was doing; this module answers
*which layer the wall clock was waiting on*.  The model: at any simulated
instant the latency-critical work is the **deepest** span active at that
instant, where "deepest" is the span that started last (ties broken by
span id, i.e. creation order) — a child span always starts at or after
its parent, so the most recently started active span is the innermost
operation actually progressing the transfer.  Instants covered by no
span are blamed on ``uninstrumented`` (modeled scheduling/handler delays
that carry no span of their own).

The sweep produces a sequence of :class:`Segment` s — the critical chain
— and folds them into a per-layer blame report:

========================  =====================================================
layer                     span sources
========================  =====================================================
``model``                 ampi / openmpi / charm / charm4py API spans
``machine``               machine layer (``Lrts*Device``, host message hand-off)
``ucx_protocol``          ucp tag send/recv, eager copies, rendezvous driving
``matching``              ``ucx.match`` tag-matching spans
``host_metadata``         converse spans + the AM path that carries metadata
                          (``am_send`` + its wire/fetch time)
``link``                  bulk data wire time (``link`` spans)
``fault_recovery``        retransmit backoff waits (``fault`` spans)
``collective``            device-collective root spans (``coll``)
``coll_intra``            intra-node ops of device collectives (``coll.intra``)
``coll_inter``            inter-node ops of device collectives (``coll.inter``)
``uninstrumented``        gaps covered by no span
========================  =====================================================

Pure analysis: reads the tracer, never schedules events, never mutates
spans.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Segment", "CriticalPathReport", "critical_path", "layer_of"]


def layer_of(category: str, name: str) -> str:
    """Map a span's (category, name) to a blame layer."""
    if category == "fault":
        # retransmit backoff waits and other injected-fault recovery time
        return "fault_recovery"
    if category == "link":
        return "host_metadata" if name in ("am_wire", "am_fetch") else "link"
    if category == "ucx" and name == "am_send":
        return "host_metadata"
    if category == "ucx.match":
        return "matching"
    if category == "ucx" or category.startswith("ucx."):
        return "ucx_protocol"
    if category == "machine":
        return "machine"
    if category == "converse":
        return "host_metadata"
    if category == "coll.intra":
        return "coll_intra"
    if category == "coll.inter":
        return "coll_inter"
    if category == "coll":
        return "collective"
    if category in ("ampi", "openmpi", "charm", "charm4py", "osu", "jacobi3d"):
        return "model"
    return "other"


@dataclass(frozen=True)
class Segment:
    """One link of the critical chain: ``[start, end)`` blamed on one span."""

    start: float
    end: float
    layer: str
    category: str
    name: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathReport:
    """Critical chain over ``[t0, t1]`` plus the per-layer blame totals."""

    t0: float
    t1: float
    segments: List[Segment]
    blame: Dict[str, float]

    @property
    def total(self) -> float:
        return self.t1 - self.t0

    def format(self, unit: float = 1e-6, unit_name: str = "us") -> str:
        """Human-readable blame table (largest share first)."""
        lines = [
            f"critical path over [{self.t0 / unit:.2f}, {self.t1 / unit:.2f}] "
            f"{unit_name} ({self.total / unit:.2f} {unit_name}, "
            f"{len(self.segments)} segments)"
        ]
        total = self.total or 1.0
        for layer, secs in sorted(self.blame.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(
                f"  {layer:<15} {secs / unit:>10.2f} {unit_name}  "
                f"({100.0 * secs / total:5.1f}%)"
            )
        return "\n".join(lines)


def critical_path(tracer, t0: Optional[float] = None,
                  t1: Optional[float] = None) -> CriticalPathReport:
    """Extract the critical chain from ``tracer``'s spans over ``[t0, t1]``
    (defaulting to the full recorded window) and blame it per layer.

    Spans still open are treated as extending to ``t1``.  Raises
    :class:`ValueError` when no spans were recorded (tracing disabled).
    """
    spans = tracer.spans
    if not spans:
        raise ValueError(
            "critical_path: no spans recorded — build the session with "
            "tracing enabled (builder.trace() / the trace config field)"
        )
    if t0 is None:
        t0 = min(s.start for s in spans)
    if t1 is None:
        t1 = max(
            max((s.end_time for s in spans if s.end_time is not None),
                default=t0),
            max(s.start for s in spans),
        )
    if t1 < t0:
        raise ValueError(f"critical_path: empty window [{t0}, {t1}]")

    # clamp spans to the window; open spans extend to t1
    intervals: List[Tuple[float, float, object]] = []
    boundaries = {t0, t1}
    for s in spans:
        end = s.end_time if s.end_time is not None else t1
        start = max(s.start, t0)
        end = min(end, t1)
        if end <= start:
            continue
        intervals.append((start, end, s))
        boundaries.add(start)
        boundaries.add(end)
    times = sorted(boundaries)

    # sweep: between two adjacent boundaries the active set is constant, and
    # every active span covers the whole sub-interval (boundaries include all
    # starts and ends).  A max-heap on (start, sid) yields the deepest one;
    # spans whose end has passed are lazily discarded.
    intervals.sort(key=lambda iv: (iv[0], iv[2].sid))
    heap: List[Tuple[float, int, float, object]] = []  # (-start, -sid, end, span)
    segments: List[Segment] = []
    blame: Dict[str, float] = {}
    idx = 0
    n = len(intervals)
    for a, b in zip(times, times[1:]):
        while idx < n and intervals[idx][0] <= a:
            start, end, s = intervals[idx]
            heapq.heappush(heap, (-start, -s.sid, end, s))
            idx += 1
        while heap and heap[0][2] <= a:
            heapq.heappop(heap)
        if heap:
            s = heap[0][3]
            layer = layer_of(s.category, s.name)
            category, name = s.category, s.name
        else:
            layer, category, name = "uninstrumented", "", ""
        blame[layer] = blame.get(layer, 0.0) + (b - a)
        last = segments[-1] if segments else None
        if (last is not None and last.end == a
                and (last.layer, last.category, last.name) == (layer, category, name)):
            segments[-1] = Segment(last.start, b, layer, category, name)
        else:
            segments.append(Segment(a, b, layer, category, name))
    return CriticalPathReport(t0=t0, t1=t1, segments=segments, blame=blame)
