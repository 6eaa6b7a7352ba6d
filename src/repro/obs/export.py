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

Timestamps are simulated time converted to microseconds (the unit the
Chrome trace viewer expects).
"""

from __future__ import annotations

import json
from heapq import merge
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.tracing import Tracer

__all__ = [
    "chrome_trace",
    "export_chrome_trace",
    "metrics_snapshot",
    "validate_chrome_trace",
]


def _span_events_by_lane(tracer: Tracer) -> List[List[Dict]]:
    spans = sorted(tracer.spans, key=lambda s: (s.start, s.sid))
    # Spans still open at export time are exported as if they ended at the
    # latest known instant (never before their own start), flagged with
    # args["incomplete"] — deterministic and always stack-balanced, instead
    # of the zero-duration events open spans used to silently collapse to.
    t_max = 0.0
    for sp in spans:
        t_max = max(t_max, sp.start,
                    sp.end_time if sp.end_time is not None else sp.start)
    # per lane: parallel lists of event dicts and a stack of (span, end) still open
    lane_events: List[List[Dict]] = []
    lane_stacks: List[List[tuple]] = []

    def _emit(lane: int, ph: str, span, ts: float) -> None:
        ev = {
            "name": span.name,
            "cat": span.category,
            "ph": ph,
            "ts": ts * 1e6,
            "pid": 0,
            "tid": lane,
        }
        if ph == "B":
            args = dict(span.attrs)
            args["sid"] = span.sid
            if span.parent_sid >= 0:
                args["parent_sid"] = span.parent_sid
            if span.end_time is None:
                args["incomplete"] = True
            ev["args"] = args
        lane_events[lane].append(ev)

    for sp in spans:
        start = sp.start
        end = sp.end_time if sp.end_time is not None else max(start, t_max)
        placed = False
        for lane, stack in enumerate(lane_stacks):
            # close spans that ended at or before this start
            while stack and stack[-1][1] <= start:
                done, done_end = stack.pop()
                _emit(lane, "E", done, done_end)
            if not stack or stack[-1][1] >= end:
                _emit(lane, "B", sp, start)
                stack.append((sp, end))
                placed = True
                break
        if not placed:
            lane_events.append([])
            lane_stacks.append([])
            lane = len(lane_stacks) - 1
            _emit(lane, "B", sp, start)
            lane_stacks[lane].append((sp, end))
    for lane, stack in enumerate(lane_stacks):
        while stack:
            done, done_end = stack.pop()
            _emit(lane, "E", done, done_end)
    return lane_events


def _counter_events(tracer: Tracer) -> List[Dict]:
    """Telemetry series as Chrome-trace counter (``"ph": "C"``) events —
    one Perfetto counter track per series, rendered alongside the span
    lanes.  Empty when telemetry is disabled."""
    timeline = getattr(tracer, "timeline", None)
    if timeline is None or not timeline.enabled:
        return []
    out: List[Dict] = []
    for name in sorted(timeline.series):
        ts = timeline.series[name]
        for t, v in ts.points():
            out.append({
                "name": name,
                "cat": "telemetry",
                "ph": "C",
                "ts": t * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"value": v},
            })
    out.sort(key=lambda e: e["ts"])
    return out


def chrome_trace(tracer: Tracer, process_name: str = "repro-sim") -> Dict:
    """Render the tracer's span tree as a Chrome trace-event JSON dict."""
    lane_events = _span_events_by_lane(tracer)
    meta: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for lane in range(len(lane_events)):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": lane,
                "args": {"name": f"lane {lane}"},
            }
        )
    events = meta + list(
        merge(*lane_events, _counter_events(tracer), key=lambda e: e["ts"])
    )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"metrics": tracer.metrics.snapshot()},
    }


def export_chrome_trace(
    tracer: Tracer, path: Union[str, Path], process_name: str = "repro-sim"
) -> Path:
    """Write the Chrome-trace JSON to ``path`` and return it."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer, process_name=process_name)))
    return path


def metrics_snapshot(tracer: Tracer) -> Dict:
    """Plain-dict snapshot of the tracer's metrics registry (stable schema:
    ``counters`` / ``histograms`` / ``time_by_category``)."""
    return tracer.metrics.snapshot()


def validate_chrome_trace(trace: Dict) -> Dict:
    """Validate a Chrome-trace dict: required keys, monotone ``ts``,
    matched ``B``/``E`` pairs per ``(pid, tid)`` track, and well-formed
    counter (``C``) events (numeric ``args`` values).  Returns summary
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
