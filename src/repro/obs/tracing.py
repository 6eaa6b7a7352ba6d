"""Hierarchical span-tree tracing for the simulator.

Spans are first-class :class:`Span` objects:

* ``with tracer.span("ucx", "tag_send", size=n):`` — synchronous spans that
  nest lexically (the tracer keeps an active-span stack, so a span opened
  inside another becomes its child);
* ``sp = tracer.span(...)`` + ``sp.end()`` — spans whose lifetime crosses
  simulator events (a send that completes when the FIN arrives);
* ``with tracer.under(sp):`` — re-activate an open span as the ambient
  parent inside a *later* scheduled callback, so work the simulator runs
  on behalf of that operation still nests under it.

The tracer is also the one door into observation for the hot path:
:meth:`Tracer.stage` takes a row of the stage table
(:mod:`repro.obs.stages`) plus what happened, and decides which recorders
hear about it — the always-on counter, the span tree and per-layer time
(``trace``), the stage log that flight records are folded from
(``flight``: one plain tuple per flight stage in :attr:`Tracer.log`, see
:mod:`repro.obs.flight`), the telemetry series (``telemetry``).  Sites name
no recorder and test no switch.

Determinism contract (enforced by ``tests/test_obs_golden.py``): observation
code never calls ``sim.schedule``, never changes a modeled delay, and the
per-event counters are incremented identically whatever is switched on.
With tracing disabled every ``stage``/``span`` returns the shared
:data:`NULL_SPAN` — no allocation, no bookkeeping — and with nothing
switched on ``stage`` is one dict increment and one boolean test.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.stages import COUNTER_SERIES, Stage
from repro.obs.timeline import Telemetry

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
]


class _NullSpan:
    """Shared sink for all span operations while tracing is disabled."""

    __slots__ = ()

    sid = -1
    parent_sid = -1
    category = ""
    name = ""
    start = 0.0
    end_time = None
    attrs: Dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def end(self, **attrs) -> None:
        return None

    def close_at(self, time: float, **attrs) -> None:
        return None

    def annotate(self, **attrs) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<NULL_SPAN>"


NULL_SPAN = _NullSpan()


class Span:
    """One node of the span tree: ``[start, end_time]`` in simulated seconds,
    linked to its parent by ``parent_sid``."""

    __slots__ = ("_tracer", "sid", "parent_sid", "category", "name",
                 "start", "end_time", "attrs")

    def __init__(self, tracer: "Tracer", category: str, name: str,
                 parent: Optional["Span"], attrs: Dict) -> None:
        """Open a span at ``sim.now`` and register it with ``tracer``;
        ``parent`` overrides the ambient active-span stack."""
        self._tracer = tracer
        self.sid = sid = tracer._next_sid
        tracer._next_sid = sid + 1
        if parent is None:
            stack = tracer._stack
            self.parent_sid = stack[-1].sid if stack else -1
        else:
            self.parent_sid = parent.sid
        self.category = category
        self.name = name
        self.start = tracer.sim.now
        self.end_time: Optional[float] = None
        self.attrs = attrs
        tracer.spans.append(self)

    # -- context-manager form (synchronous nesting) ------------------------------
    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        self.end()

    # -- explicit form (lifetime crosses simulator events) ------------------------
    def end(self, **attrs) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end_time is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        self.end_time = self._tracer.sim.now

    def close_at(self, time: float, **attrs) -> None:
        """Close the span at an explicit simulated time (idempotent).

        Observation-only: lets instrumentation record a modeled interval
        whose endpoint is already known (e.g. the charged tag-match cost)
        without scheduling a simulator event to call ``end()`` there —
        scheduling from tracing code would break the determinism contract.
        """
        if self.end_time is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        self.end_time = time if time > self.start else self.start

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return (self.end_time if self.end_time is not None else self.start) - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.category}/{self.name} sid={self.sid} "
                f"parent={self.parent_sid} [{self.start}, {self.end_time}])")


class _Under:
    """``with tracer.under(span):`` — push an existing open span as the
    ambient parent without re-entering or ending it."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, *exc) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] is self._span:
            stack.pop()


class Tracer:
    """Span-tree tracer + metrics registry for one simulated machine.

    Cheap to keep around disabled: ``count`` and ``stage`` are a dict
    increment, ``span`` returns :data:`NULL_SPAN`, ``charge`` returns
    immediately.  The three switches are fixed at construction.
    """

    def __init__(self, sim, enabled: bool = False, flight: bool = False,
                 telemetry: bool = False) -> None:
        self.sim = sim
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self._counts = self.metrics.counts
        self.log: List[tuple] = []  # flight stages, for repro.obs.flight
        self.timeline = Telemetry(sim, enabled=telemetry)
        self._flight_on = flight
        self._telemetry_on = telemetry
        self._quiet = not (enabled or flight or telemetry)
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        # link waits are attributed to the ambient span's category
        self.timeline.ambient_stack = self._stack
        self._next_sid = 0

    # -- span tree ----------------------------------------------------------------
    def span(self, category: str, name: Optional[str] = None,
             parent: Optional[Span] = None, **attrs) -> Span:
        """Open a span at ``sim.now``.  Use as a context manager for
        synchronous nesting, or keep the handle and call ``.end()`` when the
        operation completes in a later simulator event.

        ``parent`` overrides the ambient active-span stack (used to link a
        receive-side span to the posted request it completes)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, category, name or category, parent, attrs)

    def under(self, span: Optional[Span]):
        """Context manager making ``span`` the ambient parent (no-op for
        ``None``/``NULL_SPAN`` or when tracing is disabled: ``NULL_SPAN`` is
        its own do-nothing context)."""
        if not self.enabled or span is None or span is NULL_SPAN:
            return NULL_SPAN
        return _Under(self, span)

    @property
    def active_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def span_children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_sid == span.sid]

    def span_roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_sid == -1]

    # -- the lifecycle-stage entry ------------------------------------------------
    def stage(self, st: Stage, tag: Optional[int] = None,
              dst: Optional[int] = None, cost: Optional[float] = None,
              attrs: tuple = (), parent: Optional[Span] = None,
              more: Optional[Dict] = None) -> Span:
        """Report that stage ``st`` of a message happened now.

        ``(tag, dst)`` identify the device transfer (``tag`` is ``None`` for
        a message no flight record follows, ``dst`` — the destination worker
        — where the site knows it); ``cost`` is the modelled CPU time the
        site charges here; ``attrs`` are the facts of the event, in the order
        of the stage's ``names``; ``more`` is a ready-made dict of further
        span attributes (sites build one only when traced).  Returns the span
        the stage opens, or :data:`NULL_SPAN`.  What each recorder does with
        the stage is the table's business (:mod:`repro.obs.stages`), not the
        caller's."""
        key = st.counter
        if key is not None:
            counts = self._counts
            counts[key] = counts.get(key, 0) + 1
        if self._quiet:
            return NULL_SPAN
        if self._flight_on and tag is not None and st.flight is not None:
            self.log.append((self.sim.now, st.flight, tag, dst, *attrs))
        if self._telemetry_on and st.series is not None:
            self.timeline.bump(st.series)
        if not self.enabled:
            return NULL_SPAN
        if cost is not None:
            self.metrics.add_time(st.charge, cost)
        if st.span is None:
            return NULL_SPAN
        span_attrs = dict(zip(st.names, attrs)) if attrs else {}
        if more:
            span_attrs.update(more)
        return Span(self, st.span[0], st.span[1], parent, span_attrs)

    # -- resource gauges (telemetry-only; see repro.obs.timeline) -------------------
    def gauge(self, name: str, value: float, unit: str = "") -> None:
        """Sample the current size of a resource (endpoint table, mapping
        cache) into its telemetry series."""
        if self._telemetry_on:
            self.timeline.sample(name, value, unit)

    def queue_probe(self, name: str) -> Optional[Callable[[int], None]]:
        """The ``depth_probe`` for a match queue named ``name``: ``None``
        (the queue's own off-switch) unless telemetry is on."""
        return self.timeline.queue_probe(name) if self._telemetry_on else None

    # -- metrics shims (identical on/off so fingerprints cannot diverge) -----------
    def count(self, category: str, event: str, n: int = 1) -> None:
        key = (category, event)
        counts = self._counts
        counts[key] = counts.get(key, 0) + n
        if self._telemetry_on:
            series = COUNTER_SERIES.get(key)
            if series is not None:
                self.timeline.bump(series, n)

    def charge(self, category: str, seconds: float) -> None:
        """Attribute modeled CPU time to a layer (enabled-only; simulated
        delays are computed before this call and never depend on it)."""
        if self.enabled:
            self.metrics.add_time(category, seconds)

    def observe(self, name: str, value: float, bounds=None) -> None:
        if self.enabled:
            if bounds is None:
                self.metrics.observe(name, value)
            else:
                self.metrics.observe(name, value, bounds)

    @property
    def counters(self):
        return self.metrics.counters

    # -- span time accounting --------------------------------------------------------
    def time_in(self, category: str) -> float:
        """Total simulated time spent inside *ended* spans of ``category``
        (overlapping spans double-count, as the legacy API did)."""
        return sum(s.end_time - s.start for s in self.spans
                   if s.category == category and s.end_time is not None)

    # -- lifecycle ------------------------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._next_sid = 0
        self.log.clear()
        self.metrics.reset()
        self.timeline.reset()
