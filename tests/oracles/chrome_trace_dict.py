"""The dict-building Chrome-trace exporter, kept as a test oracle.

Before the text writer (``repro/obs/export.py`` renders every event to its
JSON text once), the exporter built one dict per ``B``/``E``/``C`` event,
merged the per-lane streams with a Python-keyed ``heapq.merge`` and handed
the whole document to ``json.dumps``.  The lane policy, the event schema and
the merge order are the ones the production code still implements; this is
their original spelling, moved here verbatim so
``tests/test_obs_export_text.py`` can require ``json.dumps(chrome_trace(t))``
to equal the written file byte for byte.  Like ``reference_engine`` it is
never imported by the runtime.
"""

from __future__ import annotations

from heapq import merge
from typing import Dict, List

from repro.obs.tracing import Tracer


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
