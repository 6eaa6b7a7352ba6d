"""Tier-1 smoke for the resource-telemetry pipeline at paper scale.

Three acceptance checks ride here:

* a 64-rank-scale shuffle with telemetry on exports **at least six
  distinct counter tracks** into the Chrome trace (link busy/in-flight,
  match-queue depth, engine occupancy, pool occupancy, endpoint table);
* a Fig.12-style intra-node bandwidth sweep names an **NVLink rail** as
  the top contended link in the congestion report;
* the endpoint-thrash regime (``max_endpoints`` far below the peer
  count) trips the report's **THRASHING** verdict and shows eviction
  churn in the ``ucx.ep_evictions`` gauge.
"""

import repro.api as api
from repro.apps.osu.runner import run_bandwidth
from repro.apps.shuffle.driver import run_shuffle
from repro.config import KB, MB, MachineConfig
from repro.obs import validate_chrome_trace

#: 11 Summit nodes x 6 GPUs = 66 ranks — the paper's 64-rank scale
SHUFFLE_NODES = 11


def test_shuffle_telemetry_exports_counter_tracks(tmp_path, strict_loads):
    cfg = MachineConfig.summit(nodes=SHUFFLE_NODES).with_pool(True)
    sess = (api.session(cfg).model("ampi").telemetry().trace()
            .ranks(cfg.topology.total_gpus).build())
    result = run_shuffle(model="ampi", rounds=1, chunk=16 * KB, session=sess)
    assert result.plan.n_ranks >= 64

    path = sess.export_chrome_trace(tmp_path / "shuffle_telemetry.json")
    text = path.read_bytes()
    assert text.isascii()
    info = validate_chrome_trace(strict_loads(text))
    assert info["n_counter_events"] > 0
    assert len(info["counter_series"]) >= 6
    # the counter tracks span every instrumented subsystem
    series = info["counter_series"]
    for prefix in ("link.", "matchq.", "pool.", "engine.", "ucx."):
        assert any(s.startswith(prefix) for s in series), prefix

    # the timeline JSON round-trips through the CLI summary formatter
    from repro.bench.timeline import format_summary

    doc = sess.timeline()
    assert format_summary(doc).count("\n") >= 6
    timeline_text = sess.export_timeline(tmp_path / "timeline.json").read_bytes()
    assert timeline_text.isascii()
    assert strict_loads(timeline_text) == doc


def test_intra_node_sweep_blames_nvlink():
    sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
            .telemetry().build())
    for size in (256 * KB, 1 * MB, 4 * MB):
        bw = run_bandwidth("ampi", size, "intra", True, session=sess,
                           loops=2, skip=1, window=8)
        assert bw > 0

    report = sess.congestion_report()
    assert report.top_contended, "windowed sweep should contend the rail"
    assert "nvlink" in report.top_contended[0].name
    # saturation windows were observed on the contended rail
    assert report.top_contended[0].saturated_time > 0.0
    # and the report formats without requiring any other subsystem
    assert "top contended links" in report.format()


def test_endpoint_thrash_gate():
    cfg = MachineConfig.summit(nodes=2).with_ucx(
        mapping_cost=1e-3, ep_setup_cost=2e-5, max_endpoints=4)
    sess = (api.session(cfg).model("ampi").telemetry()
            .ranks(cfg.topology.total_gpus).build())
    run_shuffle(model="ampi", rounds=2, chunk=16 * KB, session=sess)

    telem = sess.tracer.timeline
    # the eviction gauge shows real churn, not warm-up noise
    assert telem.counter("ucx.ep_evictions") >= 8
    evict_series = telem.series["ucx.ep_evictions"]
    assert evict_series.vmax >= 8

    th = sess.congestion_report().endpoint_thrash
    assert th["thrashing"] is True
    assert th["evictions"] >= 0.5 * th["connects"]
    assert "THRASHING" in sess.congestion_report().format()
