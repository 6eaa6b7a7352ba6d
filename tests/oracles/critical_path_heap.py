"""The heap sweep of ``repro.obs.critical_path``, kept as a test oracle.

Before the stack sweep, ``critical_path`` kept the active spans in a
lazy-deletion max-heap keyed on ``(start, sid)``, looked ``layer_of`` up at
every boundary and rebuilt the frozen ``Segment`` at every merge.  This is
that function, moved here verbatim so ``tests/test_critical_path_stack.py``
can require the same ``blame`` (keys, insertion order, float values) and the
same ``segments``.  Like ``reference_engine`` it is never imported by the
runtime.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.obs.critical_path import CriticalPathReport, Segment, layer_of


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
