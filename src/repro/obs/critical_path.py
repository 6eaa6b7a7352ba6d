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
— and folds them into a per-layer blame report.  It is one linear pass
after a sort: the spans, clamped to the window, are pushed in ``(start,
sid)`` order onto a plain stack, and the top of the stack is the deepest
active span (see :func:`critical_path` for why a stack suffices), so the
sweep is O(S + B) for S spans and B boundaries once both are sorted.
``layer_of`` runs once per distinct ``(category, name)``:

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

    def format(self) -> str:
        """Human-readable blame table in microseconds (largest share first)."""
        lines = [
            f"critical path over [{self.t0 / 1e-6:.2f}, {self.t1 / 1e-6:.2f}] "
            f"us ({self.total / 1e-6:.2f} us, {len(self.segments)} segments)"
        ]
        total = self.total or 1.0
        for layer, secs in sorted(self.blame.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(
                f"  {layer:<15} {secs / 1e-6:>10.2f} us  "
                f"({100.0 * secs / total:5.1f}%)"
            )
        return "\n".join(lines)


def critical_path(tracer, t0: Optional[float] = None,
                  t1: Optional[float] = None) -> CriticalPathReport:
    """Extract the critical chain from ``tracer``'s spans over ``[t0, t1]``
    (defaulting to the full recorded window) and blame it per layer.

    Spans still open are treated as extending to ``t1``.  Raises
    :class:`ValueError` when no spans were recorded (tracing disabled).

    Between two adjacent boundaries (every clamped start and end, plus
    ``t0`` and ``t1``) the active set is constant and every active span
    covers the whole sub-interval.  The deepest active span is the one with
    the largest ``(start, sid)``.  The spans are pushed in ascending
    ``(start, sid)`` order, so each push has the largest key so far, and the
    most recently pushed span not yet popped is the one a max-heap on that
    key would have on top: a plain stack is that heap, with spans whose end
    has passed discarded from the top.  This holds only while spans are
    pushed in priority order with the clamped ``start`` as the leading key;
    a different tie-break among equal starts (say, the earlier end first)
    must go into the sort key, ahead of ``sid``, and not into the pops.
    """
    spans = tracer.spans
    if not spans:
        raise ValueError(
            "critical_path: no spans recorded — build the session with "
            "tracing enabled (builder.trace() / the trace config field)"
        )
    if t0 is None:
        t0 = min([s.start for s in spans])
    if t1 is None:
        t1 = max(
            max([s.end_time for s in spans if s.end_time is not None],
                default=t0),
            max([s.start for s in spans]),
        )
    if t1 < t0:
        raise ValueError(f"critical_path: empty window [{t0}, {t1}]")

    # clamp spans to the window (open spans extend to t1) as plain
    # (start, sid, end, (layer, category, name)) tuples: sids are unique, so
    # sorting the tuples sorts by (start, sid)
    shapes: Dict[Tuple[str, str], Tuple[str, str, str]] = {}
    intervals: List[Tuple[float, int, float, Tuple[str, str, str]]] = []
    boundaries = {t0, t1}
    for s in spans:
        end = s.end_time
        if end is None or t1 < end:
            end = t1
        start = s.start
        if t0 > start:
            start = t0
        if end <= start:
            continue
        category, name = s.category, s.name
        shape = shapes.get((category, name))
        if shape is None:
            shape = shapes[category, name] = (
                layer_of(category, name), category, name)
        intervals.append((start, s.sid, end, shape))
        boundaries.add(start)
        boundaries.add(end)
    times = sorted(boundaries)
    intervals.sort()

    # sweep; a segment is [start, end, shape] while it can still grow
    uninstrumented = ("uninstrumented", "", "")
    stack: List[Tuple[float, int, float, Tuple[str, str, str]]] = []
    runs: List[list] = []
    last: Optional[list] = None
    blame: Dict[str, float] = {}
    idx = 0
    n = len(intervals)
    a = times[0]
    for b in times[1:]:
        while idx < n and intervals[idx][0] <= a:
            stack.append(intervals[idx])
            idx += 1
        while stack and stack[-1][2] <= a:
            stack.pop()
        shape = stack[-1][3] if stack else uninstrumented
        layer = shape[0]
        blame[layer] = blame.get(layer, 0.0) + (b - a)
        # equal shapes are the same memoized tuple
        if last is not None and last[2] is shape:
            last[1] = b
        else:
            last = [a, b, shape]
            runs.append(last)
        a = b
    segments = [Segment(start, end, *shape) for start, end, shape in runs]
    return CriticalPathReport(t0=t0, t1=t1, segments=segments, blame=blame)
