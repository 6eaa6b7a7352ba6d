"""Multi-rail striped transfers: planner, engine, determinism, faults.

The contract under test (ISSUE: multirail tentpole):

* the planner enumerates **disjoint** paths per (src, dst) pair, rail 0
  always the memoized seed route;
* multirail off — or on but inert (no eligible transfer) — is
  bit-identical to the seed simulation for all four models;
* striped runs are deterministic: two identical enabled runs interleave
  chunks identically (fingerprints and span trees match);
* striping is observation-clean: tracing/telemetry on/off does not
  change an enabled run's fingerprint;
* enabled intra-node bandwidth at the Fig. 12 peak beats the single-rail
  NVLink ceiling; graph-batched launches beat individual launches;
* one rail down (factor-0.0 bandwidth window) falls back gracefully to
  the single-rail timing, bit-exactly; bulk traffic routed over a down
  link is a hard error, not a divide-by-zero.
"""

import pytest

import repro.api as api
from repro.apps.osu.runner import run_bandwidth
from repro.config import KB, MB, MachineConfig, MultirailConfig
from repro.faults import BandwidthWindow, FaultPlan
from repro.hardware.links import path_transfer
from repro.hardware.topology import Machine
from repro.ucx.protocols.multirail import assign_chunks, split_chunks

#: Fig. 12 single-rail ceiling: one NVLink brick's bandwidth (GB/s).
NVLINK_CEILING_GBS = 42.1


def _cfg(nodes=2, **mr):
    cfg = MachineConfig.summit(nodes=nodes)
    return cfg.override({f"multirail.{k}": v for k, v in mr.items()})


# ---------------------------------------------------------------------------
# config surface
# ---------------------------------------------------------------------------

class TestMultirailConfig:
    def test_default_off(self):
        cfg = MachineConfig.summit(nodes=2)
        assert not cfg.multirail.enabled
        assert MultirailConfig() == cfg.multirail

    def test_with_multirail(self):
        cfg = _cfg(enabled=True, max_rails=3, chunk_bytes=256 * KB, window=4)
        assert cfg.multirail.enabled
        assert cfg.multirail.max_rails == 3
        assert cfg.multirail.chunk_bytes == 256 * KB
        assert cfg.multirail.window == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="max_rails"):
            _cfg(enabled=True, max_rails=0)
        with pytest.raises(ValueError, match="chunk_bytes"):
            _cfg(enabled=True, chunk_bytes=0)
        with pytest.raises(ValueError, match="window"):
            _cfg(enabled=True, window=0)

    def test_builder_and_build_kwarg(self):
        sess = api.session(_cfg()).set({"multirail.enabled": True,
                                        "multirail.chunk_bytes": 256 * KB}).build()
        assert sess.config.multirail.enabled
        assert sess.config.multirail.chunk_bytes == 256 * KB
        sess = (api.session(_cfg(enabled=True)).model("ampi").ranks(2)
                .set("multirail.max_rails=3", "multirail.enabled=false").build())
        assert sess.config.multirail.max_rails == 3
        assert not sess.config.multirail.enabled


# ---------------------------------------------------------------------------
# rail planner
# ---------------------------------------------------------------------------

class TestRailPlanner:
    def test_intra_device_pair_two_disjoint_rails(self):
        m = Machine(_cfg(enabled=True))
        a, b = m.device_location(0), m.device_location(1)
        rails = m.rail_planner.rails(a, b)
        assert len(rails) == 2
        # rail 0 IS the memoized seed route (same object)
        assert rails[0].route is m.route(a, b)
        # disjoint: no link shared between the rails
        names0 = {l.name for l in rails[0].route}
        names1 = {l.name for l in rails[1].route}
        assert not names0 & names1
        # the sideband runs alt bricks through the host-memory trunk
        assert any("nvlalt" in n for n in names1)
        assert any("hostmem" in n for n in names1)
        assert rails[1].bandwidth == m.cfg.topology.host_mem.bandwidth
        # memoized per pair
        assert m.rail_planner.rails(a, b) is rails

    def test_intra_device_host_sideband(self):
        m = Machine(_cfg(enabled=True))
        rails = m.rail_planner.rails(m.device_location(0),
                                     m.host_location(0))
        assert len(rails) == 2
        assert any("nvlalt" in l.name for l in rails[1].route)

    def test_inter_node_nic_rail_pairs(self):
        m = Machine(_cfg(enabled=True))
        a = m.host_location(0, socket=0)
        b = m.host_location(1, socket=0)
        rails = m.rail_planner.rails(a, b)
        assert len(rails) == m.cfg.topology.nic_rails == 2
        names0 = {l.name for l in rails[0].route}
        names1 = {l.name for l in rails[1].route}
        assert not names0 & names1
        # rail 0 carries the socket-affine NICs of the seed route
        assert names0 == {"n0.nic0.tx", "n1.nic0.rx"}
        assert names1 == {"n0.nic1.tx", "n1.nic1.rx"}

    def test_single_rail_pairs(self):
        m = Machine(_cfg(enabled=True))
        # host-host same node: one trunk, no alternate path
        assert len(m.rail_planner.rails(m.host_location(0),
                                        m.host_location(0, socket=1))) == 1
        # same location: the single-link seed route only
        d0 = m.device_location(0)
        assert len(m.rail_planner.rails(d0, d0)) == 1

    def test_disabled_machine_has_no_alternate_bricks(self):
        m = Machine(_cfg())
        node = m.nodes[0]
        assert node.nvlink_alt_tx == [] and node.nvlink_alt_rx == []
        rails = m.rail_planner.rails(m.device_location(0),
                                     m.device_location(1))
        assert len(rails) == 1

    def test_max_rails_one_disables_enumeration(self):
        m = Machine(_cfg(enabled=True, max_rails=1))
        rails = m.rail_planner.rails(m.device_location(0),
                                     m.device_location(1))
        assert len(rails) == 1

    def test_usable_rails_excludes_down_links(self):
        plan = FaultPlan.rail_down("n*.nvlalt*")
        m = Machine(_cfg(enabled=True).with_faults(plan))
        a, b = m.device_location(0), m.device_location(1)
        assert len(m.rail_planner.rails(a, b)) == 2
        usable = m.rail_planner.usable_rails(a, b)
        assert len(usable) == 1 and usable[0].index == 0
        assert m.tracer.counters["ucx.rail.down_excluded"] == 1


# ---------------------------------------------------------------------------
# chunking and greedy assignment
# ---------------------------------------------------------------------------

class TestChunkPlanning:
    def test_split_exact_and_remainder(self):
        assert split_chunks(4 * MB, 512 * KB) == [512 * KB] * 8
        sizes = split_chunks(MB + 1, 512 * KB)
        assert sizes == [512 * KB, 512 * KB, 1]
        assert sum(sizes) == MB + 1

    def test_greedy_weights_by_bandwidth(self):
        # NVLink-ish vs host-memory-ish rails, 8 chunks: the fast rail
        # takes ~bw-proportional share, both rails are used
        queues = assign_chunks([512 * KB] * 8, [42.1e9, 17.0e9])
        assert len(queues[0]) == 6 and len(queues[1]) == 2
        assert sum(len(q) for q in queues) == 8

    def test_greedy_avoids_slow_rail_when_unhelpful(self):
        # 2 chunks: putting the second on the slow rail would finish later
        # than queueing it behind the first on the fast rail
        queues = assign_chunks([512 * KB] * 2, [42.1e9, 17.0e9])
        assert len(queues[0]) == 2 and queues[1] == []

    def test_symmetric_rails_round_robin(self):
        queues = assign_chunks([512 * KB] * 4, [9.32e9, 9.32e9])
        assert len(queues[0]) == 2 and len(queues[1]) == 2


# ---------------------------------------------------------------------------
# golden fingerprints: off == seed, inert-on == off, determinism
# ---------------------------------------------------------------------------

def _bw_fingerprint(cfg, model, size=4 * MB, placement="intra"):
    sess = api.session(cfg).model(model).build()
    bw = run_bandwidth(model, size, placement, True, session=sess,
                       loops=2, skip=1, window=8)
    return {
        "bw": bw,
        "now": sess.now,
        "event_count": sess.sim.event_count,
        "counters": dict(sess.counters),
    }


@pytest.mark.parametrize("model", ["charm", "ampi", "openmpi", "charm4py"])
def test_multirail_off_bit_identical_to_seed(model):
    """An explicit ``multirail(False)`` config — the default — produces the
    seed fingerprint bit-for-bit (extends the test_obs_golden pattern)."""
    seed = _bw_fingerprint(_cfg(), model)
    off = _bw_fingerprint(_cfg(enabled=False), model)
    assert off == seed
    assert not any(k.startswith("ucx.rail") for k in seed["counters"])


@pytest.mark.parametrize("model", ["charm", "ampi", "openmpi", "charm4py"])
def test_multirail_inert_bit_identical_to_off(model):
    """Enabled but never eligible (min_bytes above every message) must be
    bit-identical to off: the alternate bricks exist and the planner is
    live, yet no modeled delay may move."""
    off = _bw_fingerprint(_cfg(), model)
    inert = _bw_fingerprint(_cfg(enabled=True, min_bytes=1 << 50), model)
    assert inert == off


def test_striped_interleaving_deterministic():
    """Two identical enabled runs must interleave chunks identically:
    same clocks, same events, same rail counters, same span tree."""

    def run():
        sess = api.session(_cfg(enabled=True)).model("ampi").trace().build()
        bw = run_bandwidth("ampi", 4 * MB, "intra", True, session=sess,
                           loops=2, skip=1, window=8)
        spans = [(s.category, s.name, s.start, s.end_time,
                  s.attrs.get("rail"), s.attrs.get("chunks"))
                 for s in sess.tracer.spans]
        return {
            "bw": bw,
            "now": sess.now,
            "event_count": sess.sim.event_count,
            "counters": dict(sess.counters),
            "spans": spans,
        }

    a, b = run(), run()
    assert a == b
    assert a["counters"]["ucx.rail.striped"] > 0
    assert a["counters"]["ucx.rail.1.chunks"] > 0
    # per-rail spans made it into the tree
    assert any(s[0] == "ucx.rail" for s in a["spans"])


@pytest.mark.parametrize("observe", ["trace", "telemetry", "flight"])
def test_enabled_observation_fingerprint(observe):
    """The new per-rail spans/telemetry are observation-only: an enabled
    run fingerprints identically with observation on and off."""

    def fp(on):
        return _bw_fingerprint(_cfg(enabled=True).override({observe: on}), "ampi")

    off, on = fp(False), fp(True)
    assert on == off
    assert off["counters"]["ucx.rail.striped"] > 0


# ---------------------------------------------------------------------------
# bandwidth: striping beats the single-rail ceiling
# ---------------------------------------------------------------------------

class TestStripedBandwidth:
    def test_intra_node_beats_single_rail_ceiling(self):
        for size in (MB, 2 * MB, 4 * MB):
            off = run_bandwidth("ampi", size, "intra", True, _cfg())
            on = run_bandwidth("ampi", size, "intra", True, _cfg(enabled=True))
            # never worse than single-rail, and above the NVLink-only
            # ceiling at every >= 1 MB point of the sweep
            assert on >= off, size
            assert on / 1e9 > NVLINK_CEILING_GBS, size
        assert run_bandwidth("ampi", 4 * MB, "intra", True,
                             _cfg(enabled=True)) > run_bandwidth(
            "ampi", 4 * MB, "intra", True, _cfg())

    def test_inter_node_dual_nic_rails_nearly_double(self):
        off = run_bandwidth("ampi", 4 * MB, "inter", True, _cfg())
        on = run_bandwidth("ampi", 4 * MB, "inter", True, _cfg(enabled=True))
        assert on > 1.7 * off

    def test_below_min_bytes_untouched(self):
        size = 256 * KB  # below the 1 MB default eligibility floor
        off = run_bandwidth("ampi", size, "intra", True, _cfg())
        on = run_bandwidth("ampi", size, "intra", True, _cfg(enabled=True))
        assert on == off

    def test_graph_batching_beats_individual_launches(self):
        cfg = _cfg(enabled=True)
        graphed = _bw_fingerprint(cfg, "ampi")
        # individually launched chunks: no graph launch, and a full memcpy
        # launch per chunk in place of the graph's per-node cost
        individual = _bw_fingerprint(cfg.override({
            "cuda.graph_launch_overhead": 0.0,
            "cuda.graph_per_chunk_cost": cfg.cuda.memcpy_launch_overhead}), "ampi")
        # 8 chunks/transfer: one graph launch + tiny per-node costs beat
        # eight full memcpy launch overheads
        assert graphed["now"] < individual["now"]
        assert graphed["bw"] > individual["bw"]


# ---------------------------------------------------------------------------
# faults: one rail down falls back gracefully
# ---------------------------------------------------------------------------

class TestRailFaults:
    def test_one_rail_down_matches_single_rail_bit_exactly(self):
        """Alt-brick links down for the whole run: the planner excludes
        the dead rail and the run is bit-identical to single-rail (the S1
        float-grouping fix makes the factor-1.0 injector path exact)."""
        single = _bw_fingerprint(_cfg(), "ampi")
        down = _bw_fingerprint(
            _cfg(enabled=True).with_faults(FaultPlan.rail_down("n*.nvlalt*")),
            "ampi")
        assert down["now"] == single["now"]
        assert down["event_count"] == single["event_count"]
        assert down["bw"] == single["bw"]
        assert down["counters"]["ucx.rail.fallback_single"] > 0
        assert down["counters"]["ucx.rail.down_excluded"] > 0
        clean = {k: v for k, v in down["counters"].items()
                 if not k.startswith("ucx.rail")}
        assert clean == single["counters"]

    def test_nic_rail_down_inter_node_fallback(self):
        """The second NIC rail down: inter-node striping degrades to the
        seed single-rail NIC pair."""
        single = _bw_fingerprint(_cfg(), "ampi", placement="inter")
        down = _bw_fingerprint(
            _cfg(enabled=True).with_faults(FaultPlan.rail_down("n*.nic1.*")),
            "ampi", placement="inter")
        assert down["now"] == single["now"]
        assert down["counters"]["ucx.rail.fallback_single"] > 0

    def test_degraded_rail_still_stripes(self):
        """A *degraded* (factor 0.5, not down) sideband still stripes —
        slower than healthy multirail, still at least single-rail."""
        healthy = _bw_fingerprint(_cfg(enabled=True), "ampi")
        plan = FaultPlan(bandwidth_windows=(
            BandwidthWindow("n*.nvlalt*", 0.5),))
        degraded = _bw_fingerprint(_cfg(enabled=True).with_faults(plan),
                                   "ampi")
        single = _bw_fingerprint(_cfg(), "ampi")
        assert degraded["counters"]["ucx.rail.striped"] > 0
        assert degraded["bw"] <= healthy["bw"]
        assert degraded["bw"] >= single["bw"]

    def test_bulk_transfer_over_down_link_raises(self):
        """Routing bulk traffic over a down link is a modelling error
        surfaced loudly, never a silent divide-by-zero."""
        plan = FaultPlan.rail_down("n0.nvlink0.tx")
        m = Machine(_cfg().with_faults(plan))
        route = m.route(m.device_location(0), m.device_location(1))
        with pytest.raises(RuntimeError, match="down link"):
            path_transfer(m.sim, route, 1 * MB)
        # control-sized messages bypass occupancy but still ride the
        # degraded-bandwidth model -> same hard error
        with pytest.raises(RuntimeError, match="down link"):
            path_transfer(m.sim, route, 4 * MB)


# ---------------------------------------------------------------------------
# S1 regression: factor-1.0 windows are bit-identical to no injector
# ---------------------------------------------------------------------------

class TestScaleOneWindowBitIdentity:
    def test_route_holds_bit_equal_under_unit_factor(self):
        """The degraded branch re-derives the bottleneck as
        ``min(bw * factor)``; with every factor 1.0 the result must be
        bit-equal to the memoized bottleneck so the memoized hold is
        reused (shared-composite-sum contract)."""
        from repro.hardware.links import degraded_bottleneck

        plan = FaultPlan(bandwidth_windows=(
            BandwidthWindow("n*", 1.0, t0=0.0, t1=float("inf")),))
        m = Machine(_cfg().with_faults(plan))
        assert m.fault_injector is not None
        for a, b in ((m.device_location(0), m.device_location(1)),
                     (m.device_location(0), m.host_location(1)),
                     (m.host_location(0), m.host_location(1, socket=1))):
            route = m.route(a, b)
            assert degraded_bottleneck(route.ordered, m.fault_injector,
                                       0.0) == route.bottleneck

    @pytest.mark.parametrize("placement", ["intra", "inter"])
    def test_unit_factor_window_fingerprint_matches_plain(self, placement):
        """A bandwidth window whose factor resolves to 1.0 must leave the
        whole run bit-identical to no fault plan at all (the regression:
        the old degraded branch regrouped the float sums and drifted)."""
        plain = _bw_fingerprint(_cfg(), "ampi", placement=placement)
        plan = FaultPlan(bandwidth_windows=(BandwidthWindow("n*", 1.0),))
        windowed = _bw_fingerprint(_cfg().with_faults(plan), "ampi",
                                   placement=placement)
        assert windowed == plain
