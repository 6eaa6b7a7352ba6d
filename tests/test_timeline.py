"""Unit tests for the telemetry fold and counter-event export.

Covers the decimation contract of the read-time fold
(:class:`repro.obs.timeline.Telemetry`: a uniform subsample, first/last
preservation, capacity-1, repeated timestamps, run-to-run determinism),
seeded streams against the ring buffer it replaced
(``tests/oracles/ring_series.py``), and the Chrome-trace counter-event
round trip the validator must accept (``"ph": "C"``).
"""

import json
import random

import pytest

import repro.api as api
from repro.config import MachineConfig
from repro.obs.export import validate_chrome_trace
from repro.obs.timeline import Telemetry, timeline_dict
from repro.obs.tracing import Tracer
from tests.oracles.ring_series import TimeSeries


class _FakeSim:
    now = 0.0


def _series(samples, capacity, unit=""):
    """The series the fold reads after ``samples`` (``(t, v)`` pairs) were
    offered to one gauge of a telemetry-on tracer."""
    sim = _FakeSim()
    tracer = Tracer(sim, telemetry=True)
    tracer.timeline.capacity = capacity
    for t, v in samples:
        sim.now = t
        tracer.gauge("s", v, unit)
    return tracer.timeline.series["s"]


# -- decimation ---------------------------------------------------------------
def test_memory_bounded_regardless_of_run_length():
    ts = _series(((i * 1e-6, float(i)) for i in range(100_000)), capacity=32)
    assert len(ts.times) <= 32
    assert ts.offered == 100_000
    # exact stats survive decimation
    assert ts.vmin == 0.0
    assert ts.vmax == 99_999.0
    assert ts.mean == pytest.approx(49_999.5)


def test_decimation_preserves_first_and_last_points():
    n = 1000
    ts = _series(((float(i), float(i * 10)) for i in range(n)), capacity=8)
    pts = ts.points()
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (float(n - 1), float((n - 1) * 10))


def test_retained_points_are_uniform_subsample():
    ts = _series(((float(i), float(i)) for i in range(500)), capacity=16)
    # retained times must be exactly the multiples of the final stride
    stride = ts.stride
    assert stride > 1  # decimation actually happened
    assert ts.times == [float(i) for i in range(0, 500, stride)][:len(ts.times)]


def test_capacity_one_series():
    ts = _series(((float(i), float(i)) for i in range(50)), capacity=1)
    assert len(ts.times) <= 1
    pts = ts.points()
    # first point retained, last appended out-of-band
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (49.0, 49.0)
    assert ts.vmax == 49.0


def test_simultaneous_samples_at_one_timestamp():
    ts = _series(((1.5, float(v)) for v in range(10)), capacity=64)  # all at t=1.5
    pts = ts.points()
    assert all(t == 1.5 for t, _ in pts)
    # last offered value always visible even with duplicate timestamps
    assert pts[-1] == (1.5, 9.0)
    assert ts.vmin == 0.0 and ts.vmax == 9.0


def test_deterministic_across_identical_runs():
    def run():
        ts = _series(((i * 0.5, float((i * 7919) % 1000))
                      for i in range(3333)), capacity=24)
        return ts.points(), ts.stats(), ts.stride

    assert run() == run()


def test_points_no_duplicate_when_last_sample_retained():
    ts = _series(((float(i), float(i)) for i in range(5)), capacity=64)
    # 5 < capacity: every sample retained; points() must not double the last
    assert ts.points() == [(float(i), float(i)) for i in range(5)]


def test_capacity_validation():
    with pytest.raises(ValueError):
        _series([(0.0, 1.0)], capacity=0)


def test_percentile_and_stats_shape():
    ts = _series(((float(i), float(i)) for i in range(100)), capacity=128,
                 unit="items")
    st = ts.stats()
    assert st["count"] == 100
    assert st["min"] == 0.0 and st["max"] == 99.0
    assert st["p99"] == pytest.approx(99.0, abs=2.0)
    assert st["last"] == 99.0


def _typed(values):
    return [(type(v), v) for v in values]


@pytest.mark.parametrize("capacity", [1, 2, 3, 64, 512])
def test_fold_equals_the_ring_buffer(capacity):
    """Seeded streams of int, float and mixed values, at tied and rising
    times: the fold retains what the ring buffer retained and reports the
    same statistics, float for float and type for type."""
    for seed in range(12):
        rng = random.Random(capacity * 100 + seed)
        kind = seed % 3
        samples, t = [], 0.0
        for _ in range(rng.choice([1, 2, capacity, capacity + 1,
                                   rng.randint(1, 3000)])):
            t += rng.choice([0.0, 1e-7, rng.random() * 1e-5])
            v = (rng.randint(-5, 10**6) if kind == 0
                 else rng.random() * 1e6 if kind == 1
                 else rng.choice([rng.randint(0, 9), rng.random(), 0, 0.0]))
            samples.append((t, v))
        ring = TimeSeries("s", capacity)
        for t, v in samples:
            ring.sample(t, v)
        ts = _series(samples, capacity)
        assert (ts.times, ts.stride, ts.offered) == (
            ring.times, ring.stride, ring.offered)
        assert _typed(ts.values) == _typed(ring.values)
        assert ts.points() == ring.points()
        assert _typed(v for _, v in ts.points()) == _typed(
            v for _, v in ring.points())
        assert _typed([ts.vmin, ts.vmax, ts.vsum]) == _typed(
            [ring.vmin, ring.vmax, ring.vsum])
        assert _typed(ts.stats().values()) == _typed(ring.stats().values())


# -- the telemetry record -----------------------------------------------------
def test_disabled_telemetry_records_nothing():
    sim = _FakeSim()
    tracer = Tracer(sim, telemetry=False)
    tracer.gauge("a", 1.0)
    tracer.count("fault", "retransmit")
    tracer.match_queue("q").append("item")
    assert not hasattr(sim, "telemetry")
    assert tracer.timeline.rows == []
    assert tracer.timeline.series == {}


def test_match_queue_tracks_depth():
    sim = _FakeSim()
    tracer = Tracer(sim, telemetry=True)
    tracer.timeline.capacity = 16
    queues = tracer.match_queue("q"), tracer.match_queue("q")
    for i, (which, delta) in enumerate(
            [(0, 1), (1, 1), (0, 1), (0, -1), (1, 1), (1, -1), (0, -1)]):
        if delta > 0:
            queues[which].append(i)
        else:
            assert queues[which].remove_first(lambda _item: True) is not None
    st = tracer.timeline.series["q"].stats()
    # the two queues of one name share one depth series
    assert st["count"] == 7
    assert st["max"] == 3
    assert st["last"] == 1


# -- saturation windows: a read closes an open window like a release ---------
class _FakeLink:
    name = "nvlink0"
    capacity = 1


def _saturate(telem, link, *times):
    """Alternately grant and release ``link`` at ``times``, appending the
    rows ``hardware/links.py`` appends."""
    for i, t in enumerate(times):
        if i % 2 == 0:
            telem.rows.append(("grant", t, (link,), 8, i))
        else:
            telem.rows += [("release", t, (link,), 8), ("free", t, link)]


@pytest.mark.parametrize("cap, times, now, windows, count, truncated", [
    # closed over [1, 2], open since 2: a back-to-back handoff extends
    (64, (1.0, 2.0, 2.0), 3.0, [(1.0, 3.0)], 1, False),
    # at the window cap the open window is counted and marks the truncation
    (2, (1.0, 2.0, 3.0, 4.0, 5.0), 6.0, [(1.0, 2.0), (3.0, 4.0)], 3, True),
])
def test_saturation_view_equals_closing_the_open_window(
        cap, times, now, windows, count, truncated):
    telem = Telemetry(_FakeSim(), enabled=True)
    telem._sat_window_cap = cap
    link = _FakeLink()
    _saturate(telem, link, *times)
    telem.sim.now = now
    view = telem.saturation
    # the same records once the window really closes at `now`
    telem.rows += [("release", now, (link,), 8), ("free", now, link)]
    assert view == telem.saturation
    rec = view[link.name]
    assert (rec["windows"], rec["count"], rec["truncated"]) == (
        windows, count, truncated)


def test_link_busy_time_is_folded_from_grants_and_frees():
    """Two transfers overlap on a two-slot link: it is busy from the first
    grant to the last free, and the busy series reads that share of the run
    at each grant and release."""
    telem = Telemetry(_FakeSim(), enabled=True)
    link = _FakeLink()
    link.capacity = 2
    telem.rows += [("grant", 1.0, (link,), 8, 0), ("grant", 2.0, (link,), 8, 1),
                   ("release", 3.0, (link,), 8), ("free", 3.0, link),
                   ("release", 5.0, (link,), 8), ("free", 5.0, link)]
    telem.sim.now = 10.0
    assert telem.links == {link.name: [0, 4.0, None, 2, 0.0, 0, {}]}
    busy = telem.series[f"link.{link.name}.busy"]
    assert busy.points() == [(1.0, 0.0), (2.0, 0.5), (3.0, 2 / 3), (5.0, 0.8)]
    # both slots held over [2, 3]: one saturation window
    assert telem.saturation[link.name]["windows"] == [(2.0, 3.0)]


# -- counter-event export round trip (satellite: validator accepts "C") ------
def _telemetry_session():
    sess = (api.session(MachineConfig.summit(nodes=2)).model("openmpi")
            .telemetry().trace().ranks(4).build())
    size = 32 * 1024

    def program(mpi):
        buf = mpi.charm.cuda.malloc(mpi.gpu, size)
        if mpi.rank == 0:
            yield mpi.send(buf, size, dst=1, tag=7)
        elif mpi.rank == 1:
            yield mpi.recv(buf, size, src=0, tag=7)

    sess.run_until(sess.launch(program))
    return sess


def test_counter_events_round_trip():
    sess = _telemetry_session()
    trace = sess.chrome_trace()
    stats = validate_chrome_trace(trace)
    assert stats["n_counter_events"] > 0
    assert stats["counter_series"] == set(sess.timeline()["series"])
    # serialise + reload: validation must hold on the wire format too
    reloaded = json.loads(json.dumps(trace))
    stats2 = validate_chrome_trace(reloaded)
    assert stats2["n_counter_events"] == stats["n_counter_events"]
    # counter events are ts-monotone within the merged stream and carry
    # numeric values
    for ev in reloaded["traceEvents"]:
        if ev.get("ph") == "C":
            assert isinstance(ev["args"]["value"], (int, float))


def test_validator_rejects_malformed_counters():
    base = {"traceEvents": [
        {"name": "x", "ph": "C", "ts": 0.0, "pid": 0, "tid": 0},
    ]}
    with pytest.raises(ValueError, match="args"):
        validate_chrome_trace(base)
    bad_value = {"traceEvents": [
        {"name": "x", "ph": "C", "ts": 0.0, "pid": 0, "tid": 0,
         "args": {"value": "high"}},
    ]}
    with pytest.raises(ValueError, match="number"):
        validate_chrome_trace(bad_value)
    ok = {"traceEvents": [
        {"name": "x", "ph": "C", "ts": 0.0, "pid": 0, "tid": 0,
         "args": {"value": 3}},
        {"name": "x", "ph": "C", "ts": 1.0, "pid": 0, "tid": 0,
         "args": {"value": 4.5}},
    ]}
    stats = validate_chrome_trace(ok)
    assert stats["n_counter_events"] == 2
    assert stats["counter_series"] == {"x"}


def test_timeline_dict_shape():
    sess = _telemetry_session()
    doc = timeline_dict(sess.tracer.timeline)
    assert doc["enabled"] is True
    assert doc["series"]
    for name, entry in doc["series"].items():
        assert set(entry) == {"unit", "stats", "points"}
        assert entry["stats"]["count"] >= len(entry["points"]) - 1 or True
        for t, v in entry["points"]:
            assert isinstance(t, float) and isinstance(v, (int, float))


def test_timeline_summary_cli(tmp_path, capsys):
    from repro.bench.timeline import main as timeline_main

    sess = _telemetry_session()
    path = tmp_path / "tl.json"
    sess.export_timeline(path)
    assert timeline_main(["summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "timeline summary" in out
    assert "p99" in out
    # filtered view
    assert timeline_main(["summary", str(path), "--series", "link.*"]) == 0
    # missing file is a clean error, not a traceback
    assert timeline_main(["summary", str(tmp_path / "nope.json")]) == 2
