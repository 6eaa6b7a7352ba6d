"""Tier-1 smoke test for the observability pipeline end to end.

Runs a small traced OSU latency sweep through the :mod:`repro.api` facade,
exports the Chrome-trace timeline, and validates the export schema:
monotone timestamps, matched ``B``/``E`` pairs per track, and nested spans
covering the machine layer, the UCX protocol layer, and the model layer —
the structure §IV-B1's overhead-anatomy attribution depends on.
"""

import repro.api as api
from repro.apps.osu.runner import run_latency
from repro.config import MachineConfig
from repro.obs import validate_chrome_trace

SIZES = (8, 4096, 256 * 1024)  # eager small, eager large, rendezvous


def test_traced_osu_sweep_exports_valid_timeline(tmp_path, strict_loads):
    sess = api.session(MachineConfig.summit(nodes=2)).model("ampi").trace().build()
    for size in SIZES:
        lat = run_latency("ampi", size, "inter", True, session=sess,
                          iters=4, skip=1)
        assert lat > 0

    path = sess.export_chrome_trace(tmp_path / "osu_ampi.json")
    text = path.read_bytes()
    assert text.isascii()
    trace = strict_loads(text)
    info = validate_chrome_trace(trace)
    assert info["n_spans"] > 0 and info["n_tracks"] >= 1

    # the span tree covers all three layers of the stack
    assert {"machine", "ucx", "ampi"} <= info["categories"]

    # and they genuinely nest: an ampi span has a machine descendant which
    # has a ucx descendant
    spans = sess.tracer.spans
    by_sid = {s.sid: s for s in spans}

    def ancestors(s):
        while s.parent_sid >= 0:
            s = by_sid[s.parent_sid]
            yield s

    ucx_spans = [s for s in spans if s.category.startswith("ucx")]
    assert any(
        {"machine", "ampi"} <= {a.category for a in ancestors(s)}
        for s in ucx_spans
    )

    # the metrics snapshot rides along in the export and attributes
    # per-layer time (the anatomy benchmark's input)
    metrics = trace["otherData"]["metrics"]
    assert metrics["counters"]["converse.send_device"] > 0
    assert {"ampi", "machine", "ucx"} <= set(metrics["time_by_category"])
    # message-size histogram saw every sweep point
    sizes_hist = metrics["histograms"]["ucx.send_size_bytes"]
    assert sizes_hist["count"] > 0


def test_disabled_session_exports_empty_but_valid(tmp_path):
    sess = api.session(MachineConfig.summit(nodes=2)).model("openmpi").build()
    run_latency("openmpi", 8, "intra", True, session=sess, iters=2, skip=1)
    info = validate_chrome_trace(sess.chrome_trace())
    assert info["n_spans"] == 0  # tracing off: no span bodies...
    assert sess.counters["ucx.send"] > 0  # ...but counters still tally
