"""Unit tests for the observability subsystem: spans, metrics, exporters."""

import json

import pytest

import repro.api as api
from repro.apps.osu.runner import run_latency
from repro.config import MB, MachineConfig
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
from repro.obs.stages import LRTS_SEND_DEVICE, MATCH_EXPECTED, TAG_RECV, TAG_SEND
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tracer(sim):
    return Tracer(sim, enabled=True)


# ---------------------------------------------------------------------------
# span trees: rows recorded, the tree folded on read
# ---------------------------------------------------------------------------

class TestSpanTree:
    def test_context_manager_nesting(self, sim, tracer):
        with tracer.span("machine", "send"):
            with tracer.span("ucx", "tag_send"):
                pass
        outer, inner = tracer.spans
        assert inner.parent_sid == outer.sid == 0
        assert outer.parent_sid == -1
        assert tracer.span_roots() == [outer]
        assert tracer.span_children(outer) == [inner]

    def test_explicit_end_crossing_events(self, sim, tracer):
        sp = tracer.span("ucx", "tag_send", size=64)
        sim.schedule(3.0, sp.end)
        sim.run()
        (span,) = tracer.spans
        assert span.attrs == {"size": 64}
        assert span.end_time == pytest.approx(3.0)
        assert span.duration == pytest.approx(3.0)
        assert tracer.time_in("ucx") == pytest.approx(3.0)

    def test_end_is_idempotent(self, sim, tracer):
        sp = tracer.span("ucx", "x")
        row = tracer.stage(TAG_RECV, attrs=(7, 64))
        sim.schedule(1.0, sp.end)
        sim.schedule(1.0, tracer.end, row)
        sim.schedule(5.0, sp.end)
        sim.schedule(5.0, tracer.end, row)
        sim.run()
        assert [s.end_time for s in tracer.spans] == [1.0, 1.0]
        # also when the first end was folded before the second arrived
        sim.schedule(6.0, sp.end)
        sim.run()
        assert [s.end_time for s in tracer.spans] == [1.0, 1.0]
        assert tracer.time_in("ucx") == pytest.approx(2.0)

    def test_analytic_end(self, sim, tracer):
        sim.schedule(2.0, lambda: None)
        sim.run()
        row = tracer.stage(MATCH_EXPECTED, attrs=(7, 1, False, 0.0))
        # an end at a known later instant needs no simulator event
        tracer.end(row, sim.now + 3.0)
        tracer.end(row, sim.now + 9.0)
        # one before the start clamps to the start
        early = tracer.stage(MATCH_EXPECTED, attrs=(8, 1, False, 0.0))
        tracer.end(early, 1.0)
        match, clamped = tracer.spans
        assert (match.start, match.end_time) == (2.0, 5.0)
        assert (clamped.start, clamped.end_time) == (2.0, 2.0)
        assert tracer.time_in("ucx.match") == pytest.approx(3.0)

    def test_parent_override(self, sim, tracer):
        send = tracer.span("ucx", "tag_send")
        with tracer.span("other", "unrelated"):
            tracer.span("ucx.eager", "eager_recv", parent=send)
        assert tracer.spans[2].parent_sid == send[0] == 0

    def test_under_reactivates_span(self, sim, tracer):
        row = tracer.stage(LRTS_SEND_DEVICE, attrs=(0, 1, 64, 7))

        def _later():
            with tracer.under(row):
                tracer.span("ucx", "tag_send").end()
            tracer.end(row)

        sim.schedule(2.0, _later)
        sim.run()
        child = [s for s in tracer.spans if s.category == "ucx"][0]
        assert child.parent_sid == row[0]

    def test_reads_mid_run_see_what_came_after(self, sim, tracer):
        sp = tracer.span("ampi", "a")
        tracer.charge("ampi", 1e-6)
        assert [s.end_time for s in tracer.spans] == [None]
        assert tracer.metrics.snapshot()["time_by_category"] == {"ampi": 1e-6}
        sim.schedule(2.0, sp.end)
        sim.schedule(3.0, lambda: tracer.span("ucx", "b"))
        sim.schedule(3.0, tracer.charge, "ucx", 2e-6)
        sim.schedule(3.0, tracer.charge, "ampi", 3e-6)
        sim.run()
        assert [(s.name, s.end_time) for s in tracer.spans] == [
            ("a", 2.0), ("b", None)]
        assert tracer.metrics.snapshot()["time_by_category"] == {
            "ampi": 1e-6 + 3e-6, "ucx": 2e-6}

    def test_disabled_tracer_returns_null_span(self, sim):
        t = Tracer(sim, enabled=False)
        sp = t.span("ucx", "x", size=8)
        assert sp is NULL_SPAN
        assert not sp  # falsy
        sp.end()
        with t.scope(TAG_RECV, attrs=(7, 64)):
            pass
        row = t.stage(TAG_RECV, attrs=(7, 64))
        assert row is None
        t.end(row)
        t.charge("ucx", 1e-6)
        with t.under(row):
            pass
        with t.under(sp):
            pass
        assert t.spans == []
        assert t.metrics.snapshot()["time_by_category"] == {}
        assert t.counters["ucx.recv"] == 2


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counters_tuple_keyed_and_view(self):
        m = MetricsRegistry()
        m.counts[("ucx", "send")] = 3
        m.counts[("ampi", "recv")] = 1
        assert m.counter("ucx", "send") == 3
        assert m.counters["ucx.send"] == 3
        assert m.counters["ampi.recv"] == 1
        m.counts[("ucx", "send")] += 1  # the view is built on read
        assert m.counters["ucx.send"] == 4

    def test_histogram_buckets(self):
        m = MetricsRegistry()
        m.observe_all(("sizes", (10, 100), v) for v in (1, 10, 11, 100, 1000))
        h = m.snapshot()["histograms"]["sizes"]
        # inclusive upper edges: <=10, <=100, overflow
        assert h["counts"] == [2, 2, 1]
        assert h["count"] == 5
        assert h["sum"] == 1 + 10 + 11 + 100 + 1000

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
        # a histogram keeps the bounds of its first value
        m.observe_all([("send_size", SIZE_BUCKETS, 4096),
                       ("send_size", LATENCY_BUCKETS, 8)])
        assert m.snapshot()["histograms"]["send_size"]["bounds"] == list(SIZE_BUCKETS)

    def test_snapshot_schema_and_json(self):
        m = MetricsRegistry()
        m.counts[("ucx", "send")] = 1
        m.observe_all([("sizes", SIZE_BUCKETS, 64)])
        m.times["ampi"] = 3e-6
        snap = m.snapshot()
        assert set(snap) == {"counters", "histograms", "time_by_category"}
        assert snap["counters"] == {"ucx.send": 1}
        assert snap["time_by_category"]["ampi"] == pytest.approx(3e-6)
        json.dumps(snap)  # must be JSON-serialisable as-is


class TestTracerMetricsIntegration:
    def test_count_always_on_charge_enabled_only(self, sim):
        on, off = Tracer(sim, enabled=True), Tracer(sim, enabled=False)
        for t in (on, off):
            t.count("ucx", "send")
            t.charge("ucx", 5e-6)
            t.end(t.stage(TAG_SEND, 7, 1, 1e-6, (7, 128, "eager", 0)))
        # counters identical in both modes (the fingerprint contract)
        assert on.counters == off.counters
        # charges and histograms only accumulate when enabled
        assert on.metrics.snapshot()["time_by_category"] == \
            {"ucx": pytest.approx(6e-6)}
        assert off.metrics.snapshot()["time_by_category"] == {}
        hists = on.metrics.snapshot()["histograms"]
        assert list(hists) == ["ucx.send_size_bytes", "ucx.send_latency_seconds"]
        assert hists["ucx.send_size_bytes"]["sum"] == 128
        assert off.metrics.snapshot()["histograms"] == {}


class TestSwitchSeparation:
    """The fold keeps the switches apart: flight-only records no span, charge
    or histogram, and trace-only logs no flight stage (values of the live
    recorders this replaced, on a 2-node AMPI 1 MB inter-node pingpong)."""

    def _run(self, switch: str):
        builder = getattr(api.session(MachineConfig.summit(nodes=2)).model("ampi"),
                          switch)()
        sess = builder.build()
        run_latency("ampi", 1 * MB, "inter", True, session=sess, iters=2, skip=1)
        return sess, sess.metrics_snapshot()

    def test_flight_only(self):
        sess, snap = self._run("flight")
        assert len(sess.flight_records()) == 6
        assert sess.tracer.spans == []
        assert snap["histograms"] == {}
        assert snap["time_by_category"] == {}

    def test_trace_only(self):
        sess, snap = self._run("trace")
        assert len(sess.tracer.spans) == 102
        assert sess.flight_records() == []
        assert sess.tracer.log == []
        assert {name: (h["count"], h["sum"])
                for name, h in snap["histograms"].items()} == {
            "ucx.send_size_bytes": (6, 6291456.0),
            "ucx.recv_latency_seconds": (6, 0.0007912658581652105),
            "ucx.send_latency_seconds": (6, 0.0008161016433656612)}
        assert list(snap["histograms"]) == [
            "ucx.send_size_bytes", "ucx.recv_latency_seconds",
            "ucx.send_latency_seconds"]
        assert snap["time_by_category"] == {
            "ampi": 4.580000000000001e-05, "machine": 6.000000000000001e-06,
            "ucx": 7.799999999999998e-06}
        assert list(snap["time_by_category"]) == ["ampi", "machine", "ucx"]


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
        # the fold leaves it open: no end time, no width, no time_in
        assert [s.end_time for s in tracer.spans] == [None, 3.0]
        assert tracer.spans[0].duration == 0.0
        assert tracer.time_in("ucx") == 0.0
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
