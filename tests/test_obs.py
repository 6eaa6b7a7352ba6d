"""Unit tests for the observability subsystem: spans, metrics, exporters."""

import json

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    NULL_SPAN,
    SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    export_chrome_trace,
    metrics_snapshot,
    validate_chrome_trace,
)
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tracer(sim):
    return Tracer(sim, enabled=True)


# ---------------------------------------------------------------------------
# span trees
# ---------------------------------------------------------------------------

class TestSpanTree:
    def test_context_manager_nesting(self, sim, tracer):
        with tracer.span("machine", "send") as outer:
            with tracer.span("ucx", "tag_send") as inner:
                pass
        assert inner.parent_sid == outer.sid
        assert outer.parent_sid == -1
        assert tracer.span_roots() == [outer]
        assert tracer.span_children(outer) == [inner]

    def test_explicit_end_crossing_events(self, sim, tracer):
        sp = tracer.span("ucx", "tag_send", size=64)
        sim.schedule(3.0, sp.end)
        sim.run()
        assert sp.end_time == pytest.approx(3.0)
        assert sp.duration == pytest.approx(3.0)
        assert tracer.time_in("ucx") == pytest.approx(3.0)

    def test_end_is_idempotent(self, sim, tracer):
        sp = tracer.span("ucx", "x")
        sim.schedule(1.0, sp.end)
        sim.schedule(5.0, sp.end)
        sim.run()
        assert sp.end_time == pytest.approx(1.0)
        assert tracer.time_in("ucx") == pytest.approx(1.0)

    def test_parent_override(self, sim, tracer):
        send = tracer.span("ucx", "tag_send")
        with tracer.span("other", "unrelated"):
            recv = tracer.span("ucx.eager", "eager_recv", parent=send)
        assert recv.parent_sid == send.sid

    def test_under_reactivates_span(self, sim, tracer):
        sp = tracer.span("machine", "send_device")

        def _later():
            with tracer.under(sp):
                child = tracer.span("ucx", "tag_send")
                child.end()
            sp.end()

        sim.schedule(2.0, _later)
        sim.run()
        child = [s for s in tracer.spans if s.category == "ucx"][0]
        assert child.parent_sid == sp.sid

    def test_annotate_and_end_attrs(self, sim, tracer):
        sp = tracer.span("ucx", "x", size=8)
        sp.annotate(proto="eager")
        sp.end(status="ok")
        assert sp.attrs == {"size": 8, "proto": "eager", "status": "ok"}

    def test_disabled_tracer_returns_null_span(self, sim):
        t = Tracer(sim, enabled=False)
        sp = t.span("ucx", "x", size=8)
        assert sp is NULL_SPAN
        assert not sp  # falsy
        sp.end()
        sp.annotate(a=1)
        with t.under(sp):
            pass
        with t.under(None):
            pass
        assert t.spans == []

    def test_active_span(self, tracer):
        assert tracer.active_span is None
        with tracer.span("a", "x") as sp:
            assert tracer.active_span is sp
        assert tracer.active_span is None


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counters_tuple_keyed_and_view(self):
        m = MetricsRegistry()
        m.inc("ucx", "send")
        m.inc("ucx", "send", 2)
        m.inc("ampi", "recv")
        assert m.counter("ucx", "send") == 3
        assert m.counters["ucx.send"] == 3
        assert m.counters["ampi.recv"] == 1
        m.inc("ucx", "send")  # the view is built on read
        assert m.counters["ucx.send"] == 4

    def test_histogram_buckets(self):
        h = Histogram("sizes", bounds=(10, 100))
        for v in (1, 10, 11, 100, 1000):
            h.observe(v)
        # inclusive upper edges: <=10, <=100, overflow
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.mean == pytest.approx((1 + 10 + 11 + 100 + 1000) / 5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(5, 5))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(5, 1))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())

    def test_default_ladders(self):
        assert SIZE_BUCKETS[0] == 1 and SIZE_BUCKETS[-1] == 4 * 1024 * 1024
        assert LATENCY_BUCKETS == tuple(sorted(LATENCY_BUCKETS))
        m = MetricsRegistry()
        m.observe("send_size", 4096)
        assert m.histogram("send_size").bounds == SIZE_BUCKETS

    def test_snapshot_schema_and_json(self):
        m = MetricsRegistry()
        m.inc("ucx", "send")
        m.observe("sizes", 64)
        m.add_time("ampi", 3e-6)
        snap = m.snapshot()
        assert set(snap) == {"counters", "histograms", "time_by_category"}
        assert snap["counters"] == {"ucx.send": 1}
        assert snap["time_by_category"]["ampi"] == pytest.approx(3e-6)
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_reset(self):
        m = MetricsRegistry()
        m.inc("a", "b")
        m.observe("h", 2)
        m.add_time("c", 1.0)
        m.reset()
        snap = m.snapshot()
        assert snap == {"counters": {}, "histograms": {}, "time_by_category": {}}


class TestTracerMetricsIntegration:
    def test_count_always_on_charge_enabled_only(self, sim):
        on, off = Tracer(sim, enabled=True), Tracer(sim, enabled=False)
        for t in (on, off):
            t.count("ucx", "send")
            t.charge("ucx", 5e-6)
            t.observe("sizes", 128)
        # counters identical in both modes (the fingerprint contract)
        assert on.counters == off.counters
        # charges and histograms only accumulate when enabled
        assert on.metrics.time_in("ucx") == pytest.approx(5e-6)
        assert off.metrics.time_in("ucx") == 0.0
        assert on.metrics.snapshot()["histograms"] != {}
        assert off.metrics.snapshot()["histograms"] == {}


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------

def _traced_workload(sim, tracer):
    """Overlapping + nested spans exercising the lane allocator."""
    with tracer.span("machine", "send_device", size=1024):
        sp = tracer.span("ucx", "tag_send", size=1024)
    other = tracer.span("ucx", "tag_recv")  # overlaps sp, not nested
    sim.schedule(1.0, sp.end)
    sim.schedule(2.0, other.end)
    sim.run()


class TestChromeTrace:
    def test_valid_and_round_trips(self, sim, tracer, tmp_path):
        _traced_workload(sim, tracer)
        path = export_chrome_trace(tracer, tmp_path / "trace.json",
                                   process_name="repro-test")
        loaded = json.loads(path.read_text())
        info = validate_chrome_trace(loaded)
        assert info["n_spans"] == 3
        assert info["categories"] == {"machine", "ucx"}
        names = {e["args"]["name"] for e in loaded["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"repro-test"}

    def test_b_events_carry_attrs_and_links(self, sim, tracer):
        _traced_workload(sim, tracer)
        tr = chrome_trace(tracer)
        b = [e for e in tr["traceEvents"] if e["ph"] == "B"]
        send = [e for e in b if e["name"] == "tag_send"][0]
        assert send["args"]["size"] == 1024
        assert "parent_sid" in send["args"]
        root = [e for e in b if e["name"] == "send_device"][0]
        assert "parent_sid" not in root["args"]

    def test_ts_monotone_and_microseconds(self, sim, tracer):
        _traced_workload(sim, tracer)
        tr = chrome_trace(tracer)
        ts = [e["ts"] for e in tr["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)
        assert max(ts) == pytest.approx(2e6)  # 2 simulated seconds in us

    def test_metrics_embedded(self, sim, tracer):
        tracer.count("ucx", "send")
        tr = chrome_trace(tracer)
        assert tr["otherData"]["metrics"]["counters"]["ucx.send"] == 1
        assert metrics_snapshot(tracer)["counters"]["ucx.send"] == 1

    def test_empty_tracer_exports_cleanly(self, sim, tracer):
        info = validate_chrome_trace(chrome_trace(tracer))
        assert info["n_spans"] == 0
        assert info["n_tracks"] == 0

    def test_zero_duration_span_validates(self, sim, tracer):
        # B/E at the same ts (e.g. a zero-cost analytic span) is legal
        with tracer.span("ucx", "instant"):
            pass
        info = validate_chrome_trace(chrome_trace(tracer))
        assert info["n_spans"] == 1

    def test_open_span_exported_as_incomplete(self, sim, tracer):
        # a span still open at export must be flagged, extended to the
        # latest known instant, and still validate (stack-balanced)
        open_sp = tracer.span("ucx", "never_ended")
        with tracer.span("machine", "done"):
            sim.schedule(3.0, lambda: None)
            sim.run()
        tr = chrome_trace(tracer)
        info = validate_chrome_trace(tr)
        assert info["n_spans"] == 2
        b = [e for e in tr["traceEvents"]
             if e["ph"] == "B" and e["name"] == "never_ended"][0]
        assert b["args"]["incomplete"] is True
        e = [e for e in tr["traceEvents"]
             if e["ph"] == "E" and e["tid"] == b["tid"]][-1]
        assert e["ts"] == pytest.approx(3e6)  # extended to t_max, not 0
        closed = [e for e in tr["traceEvents"]
                  if e["ph"] == "B" and e["name"] == "done"][0]
        assert "incomplete" not in closed["args"]

    def test_open_span_export_is_deterministic(self, sim, tracer):
        tracer.span("ucx", "open")
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert chrome_trace(tracer) == chrome_trace(tracer)

    def test_osu_like_overlap_needs_multiple_lanes(self, sim, tracer):
        # spans that overlap without containment cannot share a tid
        a = tracer.span("ucx", "a")  # 0 .. 2

        def _start_b():
            b = tracer.span("ucx", "b")  # 1 .. 3: straddles a's end
            sim.schedule(2.0, b.end)

        sim.schedule(1.0, _start_b)
        sim.schedule(2.0, a.end)
        sim.run()
        info = validate_chrome_trace(chrome_trace(tracer))
        assert info["n_tracks"] == 2


class TestValidateRejects:
    def test_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace({"traceEvents": [{"ph": "B", "pid": 0, "tid": 0}]})

    def test_non_monotone_ts(self):
        evs = [
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 5.0},
            {"name": "b", "ph": "B", "pid": 0, "tid": 0, "ts": 1.0},
        ]
        with pytest.raises(ValueError, match="non-monotone"):
            validate_chrome_trace({"traceEvents": evs})

    def test_unmatched_end(self):
        evs = [{"name": "a", "ph": "E", "pid": 0, "tid": 0, "ts": 1.0}]
        with pytest.raises(ValueError, match="empty stack"):
            validate_chrome_trace({"traceEvents": evs})

    def test_unclosed_begin(self):
        evs = [{"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 1.0}]
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace({"traceEvents": evs})

    def test_mismatched_names(self):
        evs = [
            {"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": 1.0},
            {"name": "b", "ph": "E", "pid": 0, "tid": 0, "ts": 2.0},
        ]
        with pytest.raises(ValueError, match="does not match"):
            validate_chrome_trace({"traceEvents": evs})

    def test_non_dict_event(self):
        with pytest.raises(ValueError, match="event 0 must be a dict"):
            validate_chrome_trace({"traceEvents": ["not-an-event"]})

    def test_events_not_a_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            validate_chrome_trace({"traceEvents": {"ph": "B"}})

    def test_non_numeric_ts(self):
        evs = [{"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": "soon"}]
        with pytest.raises(ValueError, match="'ts' must be a number"):
            validate_chrome_trace({"traceEvents": evs})

    def test_boolean_ts_rejected(self):
        evs = [{"name": "a", "ph": "B", "pid": 0, "tid": 0, "ts": True}]
        with pytest.raises(ValueError, match="'ts' must be a number"):
            validate_chrome_trace({"traceEvents": evs})
