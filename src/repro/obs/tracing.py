"""Span-tree tracing: recording appends rows, the span tree is folded on read.

While tracing, recording appends plain tuples to one record and does nothing
else: a span row ``(sid, parent_sid, stage, start, attrs, more, cost)`` (the
stage-table row, :mod:`repro.obs.stages`, names the span and its ``attrs``;
``more`` is a dict of further attributes, ``cost`` the time charged to
``stage.charge``), an end row ``(span_row, time)`` or a charge row ``(layer,
seconds)``.  The span row is the handle a site keeps, for ``tracer.end(sp)``,
``with tracer.under(sp):`` (the ambient parent inside a later callback) or
``parent=sp``; ``scope`` (lexical nesting), ``span`` (outside the stage table)
and ``handle`` hand out ones that end themselves.

:attr:`Tracer.spans` and ``metrics.snapshot()`` fold the record when read, in
record order (the order the per-layer sums, histogram sums and dict keys are
pinned in), and consume the rows they fold: a later read folds what came since.

:meth:`Tracer.stage` is the hot path's one door into observation: it feeds
the always-on counter, the record (``trace``), the stage log flight records
are folded from (``flight``, :mod:`repro.obs.flight`) and the telemetry
record (``telemetry``, :mod:`repro.obs.timeline`).  Sites name no recorder
and test no switch.

Determinism contract (enforced by ``tests/test_obs_golden.py``): observation
code never calls ``sim.schedule``, never changes a modeled delay, and the
per-event counters are incremented identically whatever is switched on.

What an unobserved run pays: ``stage`` and ``scope`` are one Python call
each, which increments the stage's counter (counters are in every
fingerprint), tests one boolean and returns ``None`` or :data:`NULL_SPAN`.
A stage with no counter is reported through ``note``, which with nothing
switched on is an instance attribute bound to a C callable
(:data:`_IGNORE`); while ``trace`` is off, so are ``end``, ``charge`` and
``under`` (:data:`_NO_PARENT`), and the ``with`` block and ``end()`` of
:data:`NULL_SPAN` are C calls too.  Sites call all of them unconditionally;
none of them runs Python code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import LATENCY_BUCKETS, SIZE_BUCKETS, MetricsRegistry
from repro.obs.stages import COUNTER_SERIES, Stage
from repro.obs.timeline import Telemetry

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
]


#: A C callable that takes any arguments, positional or keyword, and returns
#: ``None``: the empty tuple's ``__init__``, which is ``object.__init__``,
#: and that ignores its arguments for a type with its own ``__new__``.  A
#: door that does nothing and runs no Python code.
_IGNORE = ().__init__


class _Null(tuple):
    """The empty row ``span``/``scope``/``handle``/``under`` return when
    there is no span: falsy; ``end()`` or a ``with`` block does nothing, by
    :data:`_IGNORE` (whose ``None`` as ``__exit__`` lets an exception
    through)."""

    __slots__ = ()

    __enter__ = __exit__ = end = _IGNORE


NULL_SPAN = _Null()

#: What ``under`` is while nothing traces: a span handle is then ``None``
#: (from ``stage``) or :data:`NULL_SPAN` (from ``span``/``handle``).
_NO_PARENT = dict.fromkeys((None, NULL_SPAN), NULL_SPAN).get

_SPAN_ROW = 7   # the fields of a span row; a _Scope adds its tracer and a flag


class _Scope(tuple):
    """A span row plus its tracer and whether leaving a ``with`` block ends
    the span; inside the block it is the ambient parent.  What ``span``,
    ``scope``, ``handle`` (which end it) and ``under`` (which does not)
    return while tracing.  A tuple, so that making one is no Python call."""

    __slots__ = ()

    def end(self) -> None:
        tracer = self[_SPAN_ROW]
        tracer._record.append((self, tracer.sim.now))

    def __enter__(self) -> "_Scope":
        self[_SPAN_ROW]._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        tracer, ends = self[_SPAN_ROW:]
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        if ends:
            tracer._record.append((self, tracer.sim.now))


class Span:
    """A node of the folded span tree: ``[start, end_time]`` in simulated
    seconds (``end_time`` ``None`` while open), linked by ``parent_sid``."""

    __slots__ = ("sid", "parent_sid", "category", "name", "start",
                 "end_time", "attrs")

    @property
    def duration(self) -> float:
        return (self.end_time if self.end_time is not None else self.start) - self.start


class Tracer:
    """Span-tree tracer + metrics registry for one simulated machine.

    Cheap to keep around disabled: ``count`` and ``stage`` are a dict
    increment, ``span`` returns :data:`NULL_SPAN`, and ``end``, ``charge``
    and ``under`` run no Python code (module docstring).  The three switches
    are fixed at construction.
    """

    def __init__(self, sim, enabled: bool = False, flight: bool = False,
                 telemetry: bool = False) -> None:
        self.sim = sim
        self.enabled = enabled
        self.metrics = MetricsRegistry(fold=self._fold)
        self._counts = self.metrics.counts
        self.log: List[tuple] = []  # flight stages, for repro.obs.flight
        self._flight_on = flight
        self._quiet = not (enabled or flight or telemetry)
        self._record: List[tuple] = []
        self._spans: List[Span] = []     # folded so far
        self._stack: List[tuple] = []    # ambient span rows
        self._next_sid = 0
        # a parked link transfer names the ambient span it was submitted under
        self.timeline = Telemetry(sim, enabled=telemetry, stack=self._stack)
        #: the telemetry record while telemetry is on, else None
        self._rows: Optional[List[tuple]] = None
        if telemetry:
            self._rows = self.timeline.rows
            sim.telemetry = self.timeline
        if not enabled:
            self.end = self.charge = _IGNORE
            self.under = _NO_PARENT
        if self._quiet:
            self.note = _IGNORE

    # -- recording ------------------------------------------------------------------
    def stage(self, st: Stage, tag: Optional[int] = None,
              dst: Optional[int] = None, cost: Optional[float] = None,
              attrs: tuple = (), parent: Optional[tuple] = None,
              more: Optional[Dict] = None) -> Optional[tuple]:
        """Report that stage ``st`` of a message happened now.

        ``(tag, dst)`` identify the device transfer (``tag`` is ``None`` for
        a message no flight record follows, ``dst`` — the destination worker
        — where the site knows it); ``cost`` is the modelled CPU time the
        site charges here; ``attrs`` are the facts of the event, in the order
        of the stage's ``names``; ``more`` is a ready-made dict of further
        span attributes (sites build one only when traced); ``parent`` is a
        span row overriding the ambient one.  Returns the span row, or
        ``None``."""
        key = st.counter
        if key is not None:
            counts = self._counts
            counts[key] = counts.get(key, 0) + 1
        if self._quiet:
            return None
        if self._flight_on and tag is not None and st.flight is not None:
            self.log.append((self.sim.now, st.flight, tag, dst, *attrs))
        if self._rows is not None and st.series is not None:
            self._rows.append(("add", self.sim.now, st.series, 1, "count"))
        if not self.enabled:
            return None
        if st.span is None:
            if cost is not None:
                self._record.append((st.charge, cost))
            return None
        sid = self._next_sid
        self._next_sid = sid + 1
        if parent is None:
            stack = self._stack
            parent_sid = stack[-1][0] if stack else -1
        else:
            parent_sid = parent[0] if parent else -1
        row = (sid, parent_sid, st, self.sim.now, attrs, more, cost)
        self._record.append(row)
        return row

    #: :meth:`stage` for a stage whose row has no ``counter``: with nothing
    #: switched on there is nothing to do, and ``note`` is :data:`_IGNORE`.
    note = stage

    def scope(self, st: Stage, attrs: tuple = ()):
        """``with tracer.scope(STAGE, attrs=(...)):`` — :meth:`stage`, with
        its span the ambient parent inside the block and ended after it."""
        if self._quiet:
            # the counter, as in ``stage``, without the call into it
            key = st.counter
            if key is not None:
                counts = self._counts
                counts[key] = counts.get(key, 0) + 1
            return NULL_SPAN
        row = self.stage(st, attrs=attrs)
        return _Scope((*row, self, True)) if row else NULL_SPAN

    def span(self, category: str, name: Optional[str] = None,
             parent: Optional[tuple] = None, **attrs):
        """Open a span outside the stage table at ``sim.now``; the handle
        ends itself, by ``.end()`` or as a context manager.  ``parent``
        overrides the ambient span."""
        if not self.enabled:
            return NULL_SPAN
        st = Stage(span=(category, name or category))
        return self.handle(self.stage(st, parent=parent, more=attrs))

    def handle(self, row: Optional[tuple]):
        """``row`` as a handle that ends its span itself, by ``.end()``: for
        an object that closes its span when it completes (a ``UcxRequest``)."""
        return _Scope((*row, self, True)) if row else NULL_SPAN

    def end(self, row: Optional[tuple], at: Optional[float] = None) -> None:
        """End ``row``'s span now, or at the modelled instant ``at`` (no event
        is scheduled); the fold ignores a second end, clamps one to the start.
        Untraced, ``end`` is :data:`_IGNORE`."""
        if row:
            self._record.append((row, self.sim.now if at is None else at))

    def under(self, row: Optional[tuple]):
        """Context manager making the open span ``row`` the ambient parent
        (:data:`NULL_SPAN`, which does nothing, for ``None``).  Untraced,
        ``under`` is :data:`_NO_PARENT`."""
        return _Scope((*row[:_SPAN_ROW], self, False)) if row else NULL_SPAN

    def charge(self, category: str, seconds: float) -> None:
        """Attribute modeled CPU time to a layer (simulated delays are
        computed before this call and never depend on it).  Only a tracing
        tracer runs this method; otherwise ``charge`` is :data:`_IGNORE`."""
        self._record.append((category, seconds))

    # -- the views ------------------------------------------------------------------
    def _fold(self) -> None:
        """Consume the record into the span tree, ``metrics.times`` and the
        histograms the stage table names, with no Python call per row."""
        record = self._record
        if not record:
            return
        spans = self._spans
        times = self.metrics.times
        observed: List[tuple] = []   # (histogram, bounds, value)
        new = object.__new__   # Span(...) would be a Python call per span
        for row in record:
            if len(row) == 2:
                first, value = row
                if type(first) is str:      # charge: (layer, seconds)
                    times[first] = times.get(first, 0.0) + value
                    continue
                span = spans[first[0]]      # end: (span row, time)
                if span.end_time is None:
                    start = span.start
                    span.end_time = end = value if value > start else start
                    hist = first[2].latency
                    if hist is not None:
                        observed.append((hist, LATENCY_BUCKETS, end - start))
                continue
            sid, parent_sid, st, start, values, more, cost = row
            if cost is not None:
                layer = st.charge
                times[layer] = times.get(layer, 0.0) + cost
            attrs = dict(zip(st.names, values))
            if more:
                attrs.update(more)
            span = new(Span)
            span.sid, span.parent_sid, span.start = sid, parent_sid, start
            span.category, span.name = st.span
            span.end_time, span.attrs = None, attrs
            spans.append(span)
            if st.sizes is not None:
                observed.append((st.sizes, SIZE_BUCKETS, attrs["size"]))
        record.clear()
        self.metrics.observe_all(observed)

    @property
    def spans(self) -> List[Span]:
        """The span tree, in sid order."""
        self._fold()
        return self._spans

    def span_children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_sid == span.sid]

    def span_roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_sid == -1]

    def time_in(self, category: str) -> float:
        """Total simulated time spent inside *ended* spans of ``category``
        (spans that overlap each count in full)."""
        return sum(s.end_time - s.start for s in self.spans
                   if s.category == category and s.end_time is not None)

    # -- resource rows (telemetry-only; see repro.obs.timeline) ---------------------
    def gauge(self, name: str, value: float, unit: str = "") -> None:
        """Sample the current size of a resource (endpoint table, mapping
        cache) into its telemetry series."""
        if self._rows is not None:
            self._rows.append(("sample", self.sim.now, name, value, unit))

    def match_queue(self, name: str):
        """A new match queue; while telemetry is on, one whose every insert
        and removal moves the depth series ``name``."""
        # deferred: repro.core loads the machine layer, which loads this module
        from repro.core.matchq import DepthRecordingQueue, IndexedMatchQueue

        if self._rows is None:
            return IndexedMatchQueue()
        return DepthRecordingQueue(self.timeline, name)

    # -- counters (identical on/off so fingerprints cannot diverge) ----------------
    def count(self, category: str, event: str, n: int = 1) -> None:
        key = (category, event)
        counts = self._counts
        counts[key] = counts.get(key, 0) + n
        if self._rows is not None:
            series = COUNTER_SERIES.get(key)
            if series is not None:
                self._rows.append(("add", self.sim.now, series, n, "count"))

    @property
    def counters(self):
        return self.metrics.counters
