"""Exporters: Chrome-trace/Perfetto JSON timelines and metrics snapshots.

The Chrome trace-event format (``chrome://tracing`` / https://ui.perfetto.dev)
requires that, within one ``(pid, tid)`` track, ``B``/``E`` duration events
form a properly nested stack.  Simulator spans are *not* stack-disciplined
per se — sends overlap receives, rendezvous transfers outlive the calls that
started them — so the exporter assigns spans to virtual "lanes" greedily:
a span joins the first lane where it nests inside every still-open span,
otherwise it opens a new lane.  Each lane becomes one ``tid``, every lane's
event stream is stack-balanced and time-ordered by construction, and lanes
are merged into a single ``ts``-monotone event list.

The writer makes one linear pass over the spans: the end of each lane's top
span is kept, so a lane that cannot take a span is skipped with one
comparison, and each piece of text is rendered once (heads and an ``args``
``%``-template per span shape, texts per lane and per counter series, a memo
of timestamp texts, scalar values by type; the stdlib encoder only for the
rest).  The bytes are those of ``json.dumps`` of the dict view.

Timestamps are simulated time converted to microseconds (the unit the
Chrome trace viewer expects).
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.tracing import Tracer

__all__ = [
    "chrome_trace",
    "export_chrome_trace",
    "metrics_snapshot",
    "validate_chrome_trace",
]

_strict = json.JSONEncoder(allow_nan=False).encode


def _finite(value):
    """``value`` with each non-finite float, top level or nested, replaced by
    the string ``"inf"`` / ``"-inf"`` / ``"nan"``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _encode(value) -> str:
    """``json.dumps(value)``, except that ``Infinity``/``NaN`` (which are not
    JSON and which Perfetto rejects) are never written: the stdlib encoder
    refuses them and only then is the value rewritten by :func:`_finite`."""
    try:
        return _strict(value)
    except ValueError:
        return _strict(_finite(value))


def _head(name: str, category: str, phase: str) -> str:
    """An event's text up to its ``ts`` value."""
    return (f', {{"name": {_encode(name)}, "cat": {_encode(category)}, '
            f'"ph": "{phase}", "ts": ')


def _span_templates(name: str, category: str, keys, parent: bool,
                    incomplete: bool) -> Tuple[str, str, str, bool]:
    """The text of one span shape's ``B`` event up to its ``ts`` value, the
    ``%``-template of its ``args`` (and the event's closing brace), the text
    of its ``E`` event up to the ``ts`` value, and whether the shape is
    plain.

    The final ``args`` are the attributes with ``sid``, then ``parent_sid``
    and ``incomplete`` when set, written over them: an attribute of the same
    name keeps its position.  A plain shape has no such attribute; its
    template takes the rendered attribute values and then ``sid`` and
    ``parent_sid`` as ints, with ``incomplete`` a literal.  Any other takes
    every value of the final ``args`` rendered.
    """
    own = {"sid": "%d"}
    if parent:
        own["parent_sid"] = "%d"
    if incomplete:
        own["incomplete"] = "true"
    plain = own.keys().isdisjoint(keys)
    slots = dict.fromkeys(keys, "%s")
    slots.update(own if plain else dict.fromkeys(own, "%s"))
    fields = ", ".join(_encode(key).replace("%", "%%") + ": " + slot
                       for key, slot in slots.items())
    return (_head(name, category, "B"), fields + "}}",
            _head(name, category, "E"), plain)


def _events(tracer: Tracer) -> Tuple[int, List[Tuple[float, str]]]:
    """The number of lanes and every ``B``/``E``/``C`` event as ``(ts_us,
    text)`` in file order, ``text`` being ``", "`` plus the event's JSON.

    Each piece of text is rendered once:

    * a span's events are texts cached per shape (name, category, the
      attribute keys in order, and whether ``parent_sid`` and ``incomplete``
      are set: :func:`_span_templates`) and per lane, around the timestamp;
      the ``B`` event ends with the shape's ``%``-template of its ``args``
      filled.  A counter event is its series' head, the timestamp and the
      value;
    * a timestamp is ``float.__repr__`` (what the stdlib encoder calls),
      memoized per value across spans and counters;
    * a value is rendered by its type: ``int`` is ``int.__repr__``, ``str``
      ``encode_basestring_ascii``, ``bool`` and ``None`` a literal, a finite
      ``float`` ``float.__repr__``, and only anything else (containers,
      non-finite floats, subclasses) goes through :func:`_encode`.

    Attribute keys are strings (they arrive as keyword names).
    """
    # in (start, sid) order: spans are recorded in sid order and the sort
    # is stable
    spans = sorted(tracer.spans, key=attrgetter("start"))
    # Spans still open at export time are exported as if they ended at the
    # latest known instant (never before their own start), flagged with
    # args["incomplete"] — deterministic and always stack-balanced, instead
    # of the zero-duration events open spans used to silently collapse to.
    t_max = max([0.0, *[sp.start for sp in spans],
                 *[sp.end_time for sp in spans if sp.end_time is not None]])
    float_repr = float.__repr__
    int_repr = int.__repr__
    encode_str = encode_basestring_ascii
    stamps: Dict[float, str] = {}   # ts_us -> its text (simulated time >= 0)
    templates: Dict[tuple, Tuple[str, str, str, bool]] = {}  # _span_templates
    # per lane: its events, a stack of (rendered E event, end) for the spans
    # still open, the end of that stack's top, and the text after the ts
    # value of its B events (up to the args) and of its E events
    lane_events: List[List[Tuple[float, str]]] = []
    lane_stacks: List[List[tuple]] = []
    tops: List[float] = []
    lane_tails: List[Tuple[str, str]] = []
    for sp in spans:
        start = sp.start
        end = sp.end_time if sp.end_time is not None else max(start, t_max)
        for lane, top in enumerate(tops):
            if start < top < end:
                continue   # the top span is open here and ends inside this one
            stack = lane_stacks[lane]
            if top <= start:
                # close spans that ended at or before this start
                closed = lane_events[lane]
                while stack and stack[-1][1] <= start:
                    closed.append(stack.pop()[0])
                if stack and stack[-1][1] < end:
                    tops[lane] = stack[-1][1]
                    continue
            break
        else:
            lane = len(lane_stacks)
            stack = []
            lane_stacks.append(stack)
            lane_events.append([])
            tops.append(end)
            lane_tails.append((f', "pid": 0, "tid": {lane}, "args": {{',
                               f', "pid": 0, "tid": {lane}}}'))
        attrs = sp.attrs
        parent = sp.parent_sid >= 0
        incomplete = sp.end_time is None
        shape = (sp.name, sp.category, parent, incomplete, *attrs)
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _span_templates(
                sp.name, sp.category, attrs, parent, incomplete)
        b_head, args_template, e_head, plain = template
        if plain:
            items = attrs.values()
        else:
            args = dict(attrs)
            args["sid"] = sp.sid
            if parent:
                args["parent_sid"] = sp.parent_sid
            if incomplete:
                args["incomplete"] = True
            items = args.values()
        start_us = start * 1e6
        ts = stamps.get(start_us)
        if ts is None:
            ts = stamps[start_us] = float_repr(start_us)
        values = []
        for value in items:
            kind = type(value)
            if kind is int:
                values.append(int_repr(value))
            elif kind is str:
                values.append(encode_str(value))
            elif kind is bool:
                values.append("true" if value else "false")
            elif value is None:
                values.append("null")
            elif kind is float and value - value == 0.0:
                values.append(float_repr(value))
            else:
                values.append(_encode(value))
        if plain:
            values.append(sp.sid)
            if parent:
                values.append(sp.parent_sid)
        b_tail, e_tail = lane_tails[lane]
        lane_events[lane].append((
            start_us, f"{b_head}{ts}{b_tail}{args_template % tuple(values)}"))
        end_us = end * 1e6
        ts = stamps.get(end_us)
        if ts is None:
            ts = stamps[end_us] = float_repr(end_us)
        stack.append(((end_us, f"{e_head}{ts}{e_tail}"), end))
        tops[lane] = end
    events: List[Tuple[float, str]] = []
    for lane, stack in enumerate(lane_stacks):
        events += lane_events[lane]
        while stack:
            events.append(stack.pop()[0])
    # Telemetry series as counter (``"ph": "C"``) events — one Perfetto
    # counter track per series, rendered alongside the span lanes.
    timeline = tracer.timeline
    if timeline.enabled:
        tail = ', "pid": 0, "tid": 0, "args": {"value": '
        series = timeline.series
        for name in sorted(series):
            head = _head(name, "telemetry", "C")
            for t, value in series[name].points():
                t_us = t * 1e6
                ts = stamps.get(t_us)
                if ts is None:
                    ts = stamps[t_us] = float_repr(t_us)
                kind = type(value)
                if kind is int:
                    text = int_repr(value)
                elif kind is float and value - value == 0.0:
                    text = float_repr(value)
                else:
                    text = _encode(value)
                events.append((t_us, f"{head}{ts}{tail}{text}}}}}"))
    # Every lane and every series is already in time order, so one stable
    # sort is a merge: ties go to the earlier lane, counters last, and the
    # order inside a lane or series is kept.
    events.sort(key=itemgetter(0))
    return len(lane_stacks), events


def _pieces(tracer: Tracer, process_name: str) -> Iterator[str]:
    """The Chrome-trace JSON document as consecutive pieces of text."""
    n_lanes, events = _events(tracer)
    meta = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": process_name}}]
    for lane in range(n_lanes):
        meta.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": lane,
                     "args": {"name": f"lane {lane}"}})
    metrics = _encode({"metrics": tracer.metrics.snapshot()})
    return chain(
        ('{"traceEvents": [' + ", ".join(map(_encode, meta)),),
        map(itemgetter(1), events),
        (f'], "displayTimeUnit": "ns", "otherData": {metrics}}}',))


def chrome_trace(tracer: Tracer, process_name: str = "repro-sim") -> Dict:
    """The tracer's span tree as a Chrome trace-event JSON dict: what
    :func:`export_chrome_trace` writes, parsed."""
    return json.loads("".join(_pieces(tracer, process_name)))


def export_chrome_trace(
    tracer: Tracer, path: Union[str, Path], process_name: str = "repro-sim"
) -> Path:
    """Write the Chrome-trace JSON to ``path`` and return it."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as out:
        out.writelines(_pieces(tracer, process_name))
    return path


def metrics_snapshot(tracer: Tracer) -> Dict:
    """Plain-dict snapshot of the tracer's metrics registry (stable schema:
    ``counters`` / ``histograms`` / ``time_by_category``)."""
    return tracer.metrics.snapshot()


def validate_chrome_trace(trace: Dict) -> Dict:
    """Validate a Chrome-trace dict: required keys, finite monotone ``ts``,
    matched ``B``/``E`` pairs per ``(pid, tid)`` track, and well-formed
    counter (``C``) events (finite numeric ``args`` values).  Returns summary
    stats; raises :class:`ValueError` on any violation.

    Deterministic by construction: an empty trace validates (all-zero
    stats), zero-duration spans (``B``/``E`` at the same ``ts``) validate,
    and malformed events fail with a message naming the event index and
    the violated rule.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    stacks: Dict[tuple, List[str]] = {}
    categories = set()
    counter_series = set()
    last_ts: Optional[float] = None
    n_spans = 0
    n_counters = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(
                f"event {i} must be a dict, got {type(ev).__name__}"
            )
        for req in ("name", "ph", "pid", "tid"):
            if req not in ev:
                raise ValueError(f"event {i} missing required key {req!r}")
        ph = ev["ph"]
        if ph == "M":
            continue
        if ph not in ("B", "E", "C"):
            raise ValueError(f"event {i}: unsupported phase {ph!r}")
        if "ts" not in ev:
            raise ValueError(f"event {i} missing required key 'ts'")
        ts = ev["ts"]
        if isinstance(ts, bool) or not isinstance(ts, (int, float)):
            raise ValueError(
                f"event {i}: 'ts' must be a number, got {ts!r}"
            )
        if not math.isfinite(ts):
            # also: NaN compares False both ways and would pass the
            # monotone check below
            raise ValueError(f"event {i}: 'ts' must be finite, got {ts!r}")
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                f"event {i}: non-monotone ts ({ts} after {last_ts})"
            )
        last_ts = ts
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(
                    f"event {i}: counter event needs a non-empty 'args' dict"
                )
            for key, value in args.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ValueError(
                        f"event {i}: counter value {key!r} must be a "
                        f"number, got {value!r}"
                    )
                if not math.isfinite(value):
                    raise ValueError(
                        f"event {i}: counter value {key!r} must be "
                        f"finite, got {value!r}"
                    )
            counter_series.add(ev["name"])
            n_counters += 1
            continue
        track = (ev["pid"], ev["tid"])
        stack = stacks.setdefault(track, [])
        if ph == "B":
            stack.append(ev["name"])
            categories.add(ev.get("cat", ""))
            n_spans += 1
        else:
            if not stack:
                raise ValueError(f"event {i}: 'E' with empty stack on {track}")
            opened = stack.pop()
            if opened != ev["name"]:
                raise ValueError(
                    f"event {i}: 'E' name {ev['name']!r} does not match "
                    f"open 'B' {opened!r} on {track}"
                )
    for track, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed 'B' events on track {track}: {stack}")
    return {
        "n_events": len(events),
        "n_spans": n_spans,
        "n_tracks": len(stacks),
        "categories": categories,
        "n_counter_events": n_counters,
        "counter_series": counter_series,
    }
