"""Deterministic fault injection: plans, recovery, fallbacks, surfacing.

The contract under test (ISSUE: fault-injection tentpole):

* an **empty** plan is bit-identical to no plan at all;
* the same plan always produces the same faults (one seeded stream);
* a seeded lossy link delivers every message anyway — via retransmits —
  and the recovery work is visible in counters, flight records, and the
  ``fault_recovery`` blame layer;
* exhausted retries surface ``UCS_ERR_ENDPOINT_TIMEOUT`` upward into
  each model's error path (AMPI exceptions, Charm++ callbacks);
* forced capability failures (CUDA-IPC open, GDRCopy probe) steer the
  protocol selection onto their fallback chains.
"""

import json

import pytest

import repro.api as api
from repro.apps.osu.runner import run_latency
from repro.config import KB, MB, MachineConfig
from repro.faults import (
    ANY_WORKER,
    BandwidthWindow,
    FaultInjector,
    FaultPlan,
    LinkFaultRule,
)
from repro.hardware.topology import Machine
from repro.obs.flight import flight_records
from repro.ucx.context import UcpContext
from repro.ucx.status import UcsStatus


def make_pair(config, gpus=(0, 1)):
    m = Machine(config)
    ctx = UcpContext(m)
    wa = ctx.create_worker(0, m.node_of_gpu(gpus[0]), m.socket_of_gpu(gpus[0]))
    wb = ctx.create_worker(1, m.node_of_gpu(gpus[1]), m.socket_of_gpu(gpus[1]))
    return m, ctx, wa, wb


#: The transport's one fault state machine serves both frame streams; the
#: worker-level recovery cases below run on every kind of first frame:
#: name -> (API, message size, the ``LinkFaultRule.kinds`` that select it).
FRAMES = {
    "tagged-eager": ("tag", 64, ("eager",)),
    "tagged-rndv": ("tag", 256 * KB, ("rts",)),
    "am-eager": ("am", 64, ("am",)),
    "am-rndv": ("am", 32 * KB, ("am",)),  # >= host_rndv_threshold
}
frames = pytest.mark.parametrize("frame", sorted(FRAMES))


class OneMessage:
    """One message from worker ``wa`` to worker ``wb`` over the tagged or
    the AM API; after ``m.sim.run()`` the properties say how it ended."""

    def __init__(self, m, wa, wb, frame):
        api_, self.size, _kinds = FRAMES[frame]
        self.tagged = api_ == "tag"
        self.delivered = []  # AM handler invocations
        self.lost = []  # AM error-handler invocations
        if self.tagged:
            src, self.dst = m.alloc_host(0, self.size), m.alloc_host(0, self.size)
            src.data[:] = 4
            self.rreq = wb.tag_recv_nb(self.dst, self.size, tag=1)
            self.sreq = wa.tag_send_nb(wa.ep(1), src, self.size, tag=1)
        else:
            wb.set_am_handler(lambda payload, size, src: self.delivered.append(
                (payload, size, src)))
            wb.set_am_error_handler(lambda size, src: self.lost.append((size, src)))
            self.sreq = wa.am_send(wa.ep(1), self.size, payload="hello")

    @property
    def arrived_once(self):
        if self.tagged:
            return (self.rreq.status is UcsStatus.OK and self.sreq.status is UcsStatus.OK
                    and (self.dst.data == 4).all())
        return (self.delivered == [("hello", self.size, 0)] and not self.lost
                and self.sreq.status is UcsStatus.OK)


def one_message(plan, frame):
    m, ctx, wa, wb = make_pair(MachineConfig.summit(nodes=2).with_faults(plan))
    msg = OneMessage(m, wa, wb, frame)
    m.sim.run()
    return m, msg


# ---------------------------------------------------------------------------
# the plan object
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_empty_by_default(self):
        assert FaultPlan().empty
        assert not FaultPlan.lossy(drop_p=0.1).empty
        assert not FaultPlan(fail_ipc_open=True).empty
        assert not FaultPlan(fail_gdrcopy_probe=True).empty
        assert not FaultPlan(
            bandwidth_windows=(BandwidthWindow("n0.nic*", 0.5),)
        ).empty

    def test_validation(self):
        with pytest.raises(ValueError, match="drop_p"):
            LinkFaultRule(drop_p=1.5)
        with pytest.raises(ValueError, match="frame kind"):
            LinkFaultRule(kinds=("bogus",))
        with pytest.raises(ValueError, match="precedes"):
            LinkFaultRule(t0=2.0, t1=1.0)
        with pytest.raises(ValueError, match="factor"):
            BandwidthWindow("x", -0.1)
        with pytest.raises(ValueError, match="factor"):
            BandwidthWindow("x", 1.5)
        # factor 0.0 is valid: it marks the link *down* (rail-fault model)
        assert BandwidthWindow("x", 0.0).factor == 0.0
        with pytest.raises(ValueError, match="retry_timeout"):
            FaultPlan(retry_timeout=0.0)
        with pytest.raises(ValueError, match="retry_backoff"):
            FaultPlan(retry_backoff=0.5)
        with pytest.raises(ValueError, match="max_retries"):
            FaultPlan(max_retries=-1)

    def test_rule_matching(self):
        r = LinkFaultRule(src=0, dst=1, kinds=("eager",), t0=1.0, t1=2.0)
        assert r.applies(0, 1, "eager", 1.5)
        assert not r.applies(1, 0, "eager", 1.5)  # directed
        assert not r.applies(0, 1, "rts", 1.5)
        assert not r.applies(0, 1, "eager", 2.0)  # window is half-open
        anyr = LinkFaultRule(drop_p=0.5)
        assert anyr.applies(7, 3, "am", 99.0)

    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=7,
            link_rules=(
                LinkFaultRule(src=0, dst=ANY_WORKER, drop_p=0.25,
                              kinds=("rts", "fin"), max_faults=3),
                LinkFaultRule(stall_p=0.5, stall_seconds=3e-4, t1=1.0),
            ),
            bandwidth_windows=(BandwidthWindow("n0.nic*", 0.5, t0=1e-3),),
            fail_ipc_open=True,
            retry_timeout=20e-6,
            max_retries=4,
        )
        text = json.dumps({
            "seed": 7,
            "link_rules": [
                {"src": 0, "dst": ANY_WORKER, "drop_p": 0.25,
                 "kinds": ["rts", "fin"], "max_faults": 3, "t1": None},
                {"stall_p": 0.5, "stall_seconds": 3e-4, "t1": 1.0},
            ],
            "bandwidth_windows": [
                {"pattern": "n0.nic*", "factor": 0.5, "t0": 1e-3, "t1": None}],
            "fail_ipc_open": True,
            "retry_timeout": 20e-6,
            "max_retries": 4,
        })
        again = FaultPlan.from_json(text)
        assert again == plan
        # open-ended windows survive the null -> inf mapping
        assert again.link_rules[1].t1 == 1.0
        assert again.link_rules[0].t1 == float("inf")
        assert again.bandwidth_windows[0].t1 == float("inf")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultPlan field"):
            FaultPlan.from_dict({"seed": 1, "typo_field": 2})

    def test_load_inline_and_file(self, tmp_path):
        text = json.dumps({"seed": 3, "link_rules": [{"drop_p": 0.125}]})
        assert FaultPlan.load(text) == FaultPlan.lossy(drop_p=0.125, seed=3)
        p = tmp_path / "plan.json"
        p.write_text(text)
        assert FaultPlan.load(str(p)) == FaultPlan.lossy(drop_p=0.125, seed=3)

    def test_injector_refuses_empty_plan(self):
        from repro.obs.tracing import Tracer
        from repro.sim.engine import Simulator

        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(), Tracer(Simulator(), enabled=False))

    def test_with_faults_type_checked(self):
        cfg = MachineConfig.summit(nodes=2)
        with pytest.raises(TypeError):
            cfg.with_faults({"drop_p": 0.1})
        assert cfg.with_faults(FaultPlan.lossy(0.1)).faults is not None


# ---------------------------------------------------------------------------
# determinism contract
# ---------------------------------------------------------------------------

def _fingerprint(faults):
    sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi").flight()
            .faults(faults).build())
    lat = run_latency("ampi", 64 * KB, "inter", True, session=sess,
                      iters=4, skip=1)
    fp = sess.baseline_fingerprint()
    fp["latency_us"] = lat * 1e6
    return fp


class TestDeterminism:
    def test_empty_plan_bit_identical_to_no_plan(self):
        assert _fingerprint(FaultPlan()) == _fingerprint(None)

    def test_empty_plan_builds_no_injector(self):
        m = Machine(MachineConfig.summit(nodes=2).with_faults(FaultPlan()))
        assert m.fault_injector is None
        m2 = Machine(MachineConfig.summit(nodes=2))
        assert m2.fault_injector is None

    def test_same_plan_same_fingerprint_with_retransmits(self):
        plan = FaultPlan.lossy(drop_p=0.1, seed=42)
        a = _fingerprint(plan)
        b = _fingerprint(plan)
        assert a == b
        assert a["counters"]["fault.retransmit"] > 0

    def test_different_seed_different_faults(self):
        a = _fingerprint(FaultPlan.lossy(drop_p=0.1, seed=1))
        b = _fingerprint(FaultPlan.lossy(drop_p=0.1, seed=2))
        # same rule, different stream: the drop schedule must differ
        assert a != b


# ---------------------------------------------------------------------------
# recovery: retransmit until delivered
# ---------------------------------------------------------------------------

class TestRecovery:
    def test_lossy_link_delivers_all_messages(self):
        plan = FaultPlan.lossy(drop_p=0.2, seed=9)
        cfg = MachineConfig.summit(nodes=2).with_faults(plan)
        m, ctx, wa, wb = make_pair(cfg)
        n = 12
        reqs = []
        for i in range(n):
            src, dst = m.alloc_host(0, 64), m.alloc_host(0, 64)
            src.data[:] = i + 1
            reqs.append((wb.tag_recv_nb(dst, 64, tag=i),
                         wa.tag_send_nb(wa.ep(1), src, 64, tag=i), dst, i))
        m.sim.run()
        for rreq, sreq, dst, i in reqs:
            assert rreq.completed and sreq.completed
            assert rreq.status is UcsStatus.OK
            assert (dst.data == i + 1).all()
        assert m.tracer.counters["fault.drop"] > 0
        assert m.tracer.counters["fault.retransmit"] > 0

    def test_lossy_rndv_data_intact(self):
        plan = FaultPlan.lossy(drop_p=0.3, seed=5, kinds=("rts", "fin"))
        cfg = MachineConfig.summit(nodes=2).with_faults(plan)
        m, ctx, wa, wb = make_pair(cfg)
        size = 256 * KB
        src, dst = m.alloc_host(0, size), m.alloc_host(0, size)
        src.data[:] = 77
        rreq = wb.tag_recv_nb(dst, size, tag=1)
        sreq = wa.tag_send_nb(wa.ep(1), src, size, tag=1)
        m.sim.run()
        assert rreq.completed and sreq.completed
        assert (dst.data == 77).all()

    @frames
    def test_corrupt_occupies_wire_then_retransmits(self, frame):
        plan = FaultPlan(seed=0, link_rules=(
            LinkFaultRule(corrupt_p=1.0, max_faults=2, kinds=FRAMES[frame][2]),))
        m, msg = one_message(plan, frame)
        assert msg.arrived_once
        assert m.tracer.counters["fault.corrupt"] == 2
        assert m.tracer.counters["fault.retransmit"] == 2

    @frames
    def test_long_stall_produces_deduped_duplicate(self, frame):
        # stall far beyond the first retry timeout: the retransmit arrives
        # first, the stalled original becomes a duplicate the receiver drops
        plan = FaultPlan(
            seed=0,
            link_rules=(LinkFaultRule(stall_p=1.0, stall_seconds=5e-4,
                                      max_faults=1, kinds=FRAMES[frame][2]),),
            retry_timeout=20e-6,
        )
        m, msg = one_message(plan, frame)
        assert msg.arrived_once
        assert m.tracer.counters["fault.stall"] == 1
        assert m.tracer.counters["fault.retransmit"] == 1
        assert m.tracer.counters["fault.duplicate_dropped"] == 1

    @frames
    def test_max_faults_budget_limits_rule(self, frame):
        plan = FaultPlan(seed=0, link_rules=(
            LinkFaultRule(drop_p=1.0, max_faults=3, kinds=FRAMES[frame][2]),))
        m, msg = one_message(plan, frame)
        # three drops consumed the budget; the fourth attempt goes through
        assert msg.arrived_once
        assert m.tracer.counters["fault.drop"] == 3
        assert m.tracer.counters["fault.retransmit"] == 3


# ---------------------------------------------------------------------------
# giving up: endpoint timeout, surfaced per model
# ---------------------------------------------------------------------------

def _down_cfg(**plan_overrides):
    plan = FaultPlan(link_rules=(LinkFaultRule(src=0, dst=1, drop_p=1.0),),
                     retry_timeout=10e-6, max_retries=2, **plan_overrides)
    return MachineConfig.summit(nodes=2).with_faults(plan)


class TestEndpointTimeout:
    @frames
    def test_give_up_surfaces_endpoint_timeout(self, frame):
        """The budget (first attempt + 2 retries) is spent on every stream
        alike; what giving up *does* is the stream's own."""
        plan = FaultPlan(link_rules=(LinkFaultRule(src=0, dst=1, drop_p=1.0),),
                         retry_timeout=10e-6, max_retries=2)
        m, msg = one_message(plan, frame)
        assert m.tracer.counters["fault.drop"] == 3
        assert m.tracer.counters["fault.retransmit"] == 2
        assert m.tracer.counters["fault.endpoint_timeout"] == 1
        rndv = frame.endswith("rndv")
        # eager sends complete locally at copy-in (UCX semantics): the loss
        # is the receiver's problem; a rendezvous send fails with its RTS
        assert msg.sreq.status is (UcsStatus.ERR_ENDPOINT_TIMEOUT if rndv
                                   else UcsStatus.OK)
        if msg.tagged:
            assert msg.rreq.status is UcsStatus.ERR_ENDPOINT_TIMEOUT
        else:
            assert msg.lost == [(msg.size, 0)] and not msg.delivered
            assert m.tracer.counters["fault.am_message_lost"] == 1

    def test_am_loss_without_error_handler_raises(self):
        from repro.ucx.status import UcxError

        m, ctx, wa, wb = make_pair(_down_cfg())
        wb.set_am_handler(lambda payload, size, src: None)
        wa.am_send(wa.ep(1), 64, payload="x")
        with pytest.raises(UcxError, match="no AM error handler"):
            m.sim.run()

    def test_sender_and_receiver_observe_timeout(self):
        m, ctx, wa, wb = make_pair(_down_cfg())
        size = 256 * KB  # rendezvous: the RTS never gets through
        src, dst = m.alloc_host(0, size), m.alloc_host(0, size)
        rreq = wb.tag_recv_nb(dst, size, tag=1)
        sreq = wa.tag_send_nb(wa.ep(1), src, size, tag=1)
        m.sim.run()
        assert sreq.status is UcsStatus.ERR_ENDPOINT_TIMEOUT
        assert rreq.status is UcsStatus.ERR_ENDPOINT_TIMEOUT
        assert m.tracer.counters["fault.endpoint_timeout"] >= 1

    def test_given_up_rts_held_behind_a_stalled_frame_still_matches(self):
        """An RTS copy that stalled past the retry timer waits at the
        receiver behind an even later eager frame; its retransmits are all
        dropped, so the sender gives up — and the give-up ERR, arriving for
        an occupied slot, is the copy that gets de-duplicated.  The held RTS
        is a real descriptor of a send that was never cancelled: its receive
        must complete (the sender, already failed, ignores the FIN)."""
        plan = FaultPlan(
            seed=0, retry_timeout=50e-6, retry_backoff=1.0, max_retries=3,
            link_rules=(
                LinkFaultRule(src=0, dst=1, kinds=("eager",), stall_p=1.0,
                              stall_seconds=1e-3, max_faults=4),
                LinkFaultRule(src=0, dst=1, kinds=("rts",), stall_p=1.0,
                              stall_seconds=60e-6, max_faults=1),
                LinkFaultRule(src=0, dst=1, kinds=("rts",), drop_p=1.0),
            ))
        m, ctx, wa, wb = make_pair(MachineConfig.summit(nodes=2).with_faults(plan))
        size = 1 * MB
        src, dst = m.alloc_host(0, size), m.alloc_host(0, size)
        src.data[:] = 9
        small = wb.tag_recv_nb(m.alloc_host(0, 8), 8, tag=1)
        big = wb.tag_recv_nb(dst, size, tag=2)
        wa.tag_send_nb(wa.ep(1), m.alloc_host(0, 8), 8, tag=1)
        sreq = wa.tag_send_nb(wa.ep(1), src, size, tag=2)
        m.sim.run()
        assert sreq.status is UcsStatus.ERR_ENDPOINT_TIMEOUT
        assert small.status is UcsStatus.OK
        assert big.status is UcsStatus.OK and (dst.data == 9).all()
        counters = m.tracer.counters
        assert counters["fault.endpoint_timeout"] == 1
        assert counters["ucx.late_fin_ignored"] == 1
        assert counters["ucx.cancelled_rts_dropped"] == 0
        assert wa.pending_rndv_sends == {}

    def test_eager_receiver_observes_timeout(self):
        m, ctx, wa, wb = make_pair(_down_cfg())
        src, dst = m.alloc_host(0, 64), m.alloc_host(0, 64)
        rreq = wb.tag_recv_nb(dst, 64, tag=1)
        sreq = wa.tag_send_nb(wa.ep(1), src, 64, tag=1)
        m.sim.run()
        # eager sends complete locally at copy-in (UCX semantics); the
        # loss is the *receiver's* problem, surfaced on the posted recv
        assert sreq.completed and sreq.status is UcsStatus.OK
        assert rreq.status is UcsStatus.ERR_ENDPOINT_TIMEOUT

    def test_reverse_direction_unaffected(self):
        m, ctx, wa, wb = make_pair(_down_cfg())
        src, dst = m.alloc_host(0, 64), m.alloc_host(0, 64)
        src.data[:] = 6
        rreq = wa.tag_recv_nb(dst, 64, tag=2)
        wb.tag_send_nb(wb.ep(0), src, 64, tag=2)
        m.sim.run()
        assert rreq.completed and rreq.status is UcsStatus.OK
        assert (dst.data == 6).all()

    def test_openmpi_raises_mpi_comm_error(self):
        from repro.ampi.mpi import MpiCommError
        from repro.openmpi import OpenMpi

        lib = OpenMpi(_down_cfg())
        caught = []

        def program(rank):
            if rank.rank == 0:
                buf = lib.machine.alloc_device(0, 64 * KB)
                try:
                    yield rank.send(buf, 64 * KB, dst=1)
                except MpiCommError as e:
                    caught.append(e)

        lib.machine.sim.run_until_complete(lib.launch(program))
        assert len(caught) == 1
        assert caught[0].status is UcsStatus.ERR_ENDPOINT_TIMEOUT

    def test_charm_comm_error_callback(self):
        from repro.charm.charm import Charm

        # PE0 and PE1 are workers 0 and 1 of the machine layer
        charm = Charm(_down_cfg())
        failures = []
        charm.on_comm_error(lambda kind, tag, status: failures.append(
            (kind, tag, status)))
        from repro.core.device_buffer import CmiDeviceBuffer

        buf = charm.machine.alloc_device(0, 64 * KB)
        dev = CmiDeviceBuffer(ptr=buf, size=64 * KB)
        charm.converse.cmi_send_device(0, 1, dev)
        charm.sim.run()
        assert failures
        kind, _tag, status = failures[0]
        assert kind == "send"
        assert status is UcsStatus.ERR_ENDPOINT_TIMEOUT

    def test_charm_without_callback_raises(self):
        from repro.charm.charm import Charm
        from repro.core.device_buffer import CmiDeviceBuffer

        charm = Charm(_down_cfg())
        buf = charm.machine.alloc_device(0, 64 * KB)
        dev = CmiDeviceBuffer(ptr=buf, size=64 * KB)
        charm.converse.cmi_send_device(0, 1, dev)
        with pytest.raises(RuntimeError, match="ENDPOINT_TIMEOUT"):
            charm.sim.run()


# ---------------------------------------------------------------------------
# forced capability failures -> fallback chains
# ---------------------------------------------------------------------------

class TestFallbacks:
    def test_ipc_open_failure_forces_pipeline_lane(self):
        plan = FaultPlan(fail_ipc_open=True)
        cfg = MachineConfig.summit(nodes=2).override({"flight": True, "faults": plan})
        m, ctx, wa, wb = make_pair(cfg)
        size = 1 * MB
        src = m.alloc_device(0, size)
        dst = m.alloc_device(1, size)
        rreq = wb.tag_recv_nb(dst, size, tag=1)
        wa.tag_send_nb(wa.ep(1), src, size, tag=1)
        m.sim.run()
        assert rreq.completed
        assert m.tracer.counters["fault.fallback_pipeline"] == 1
        (rec,) = flight_records(m.tracer.log)
        assert rec.lane == "pipeline"  # not "ipc"

    def test_ipc_failure_slower_in_steady_state(self):
        # compare the *second* transfer: healthy runs hit the IPC handle
        # cache, the fallback pays the host-staging pipeline every time
        def second_transfer_time(plan):
            cfg = MachineConfig.summit(nodes=2)
            if plan is not None:
                cfg = cfg.with_faults(plan)
            m, ctx, wa, wb = make_pair(cfg)
            size = 1 * MB
            src = m.alloc_device(0, size)
            dst = m.alloc_device(1, size)
            wb.tag_recv_nb(dst, size, tag=1)
            wa.tag_send_nb(wa.ep(1), src, size, tag=1)
            m.sim.run()
            t1 = m.sim.now
            wb.tag_recv_nb(dst, size, tag=2)
            wa.tag_send_nb(wa.ep(1), src, size, tag=2)
            m.sim.run()
            return m.sim.now - t1

        healthy = second_transfer_time(None)
        fallback = second_transfer_time(FaultPlan(fail_ipc_open=True))
        assert fallback > healthy

    def test_gdrcopy_probe_failure_disables_gdrcopy(self):
        plan = FaultPlan(fail_gdrcopy_probe=True)
        cfg = MachineConfig.summit(nodes=2).with_faults(plan)
        m, ctx, wa, wb = make_pair(cfg)
        assert not ctx.gdrcopy.available
        assert m.tracer.counters["fault.gdrcopy_forced_off"] == 1
        src, dst = m.alloc_device(0, 64), m.alloc_device(1, 64)
        src.data[:] = 3
        rreq = wb.tag_recv_nb(dst, 64, tag=1)
        wa.tag_send_nb(wa.ep(1), src, 64, tag=1)
        m.sim.run()
        # host-staged small-message path still delivers
        assert rreq.completed and (dst.data == 3).all()
        assert ctx.gdrcopy.copies == 0

    def test_gdrcopy_forced_off_matches_config_off_latency(self):
        def run(cfg):
            m, ctx, wa, wb = make_pair(cfg)
            src, dst = m.alloc_device(0, 64), m.alloc_device(1, 64)
            wb.tag_recv_nb(dst, 64, tag=1)
            wa.tag_send_nb(wa.ep(1), src, 64, tag=1)
            m.sim.run()
            return m.sim.now

        base = MachineConfig.summit(nodes=2)
        forced = run(base.with_faults(FaultPlan(fail_gdrcopy_probe=True)))
        config_off = run(base.with_ucx(gdrcopy_enabled=False))
        assert forced == config_off


# ---------------------------------------------------------------------------
# degraded bandwidth windows
# ---------------------------------------------------------------------------

class TestBandwidthWindows:
    def _time_inter_rndv(self, cfg):
        m, ctx, wa, wb = make_pair(cfg, gpus=(0, 6))
        size = 1 * MB
        src, dst = m.alloc_host(0, size), m.alloc_host(1, size)
        wb.tag_recv_nb(dst, size, tag=1)
        wa.tag_send_nb(wa.ep(1), src, size, tag=1)
        m.sim.run()
        return m.sim.now

    def test_degraded_nic_slows_inter_node_transfer(self):
        base = MachineConfig.summit(nodes=2)
        healthy = self._time_inter_rndv(base)
        degraded = self._time_inter_rndv(base.with_faults(FaultPlan(
            bandwidth_windows=(BandwidthWindow("n*.nic*", 0.25),)
        )))
        assert degraded > healthy

    def test_window_outside_interval_is_noop_for_timing(self):
        base = MachineConfig.summit(nodes=2)
        healthy = self._time_inter_rndv(base)
        # window long past anything this run does
        later = self._time_inter_rndv(base.with_faults(FaultPlan(
            bandwidth_windows=(BandwidthWindow("n*.nic*", 0.25, t0=1e6),)
        )))
        assert later == healthy


# ---------------------------------------------------------------------------
# surfacing: session facade, observability, CLI
# ---------------------------------------------------------------------------

class TestSurfacing:
    def test_counters_in_session_metrics_snapshot(self):
        plan = FaultPlan.lossy(drop_p=0.1, seed=42)
        sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
                .faults(plan).build())
        run_latency("ampi", 64 * KB, "inter", True, session=sess,
                    iters=4, skip=1)
        counters = sess.metrics_snapshot()["counters"]
        assert counters["fault.drop"] > 0
        assert counters["fault.retransmit"] > 0

    def test_fault_recovery_blame_layer(self):
        plan = FaultPlan.lossy(drop_p=0.15, seed=7)
        sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
                .trace().faults(plan).build())
        run_latency("ampi", 64 * KB, "inter", True, session=sess,
                    iters=6, skip=1)
        report = sess.critical_path()
        assert report.blame.get("fault_recovery", 0.0) > 0.0
        assert "fault_recovery" in report.format()

    def test_flight_records_count_retransmits(self):
        plan = FaultPlan.lossy(drop_p=0.2, seed=11, kinds=("eager", "rts"))
        sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
                .flight().faults(plan).build())
        run_latency("ampi", 64 * KB, "inter", True, session=sess,
                    iters=6, skip=1)
        recs = sess.flight_records()
        assert recs and all(r.complete for r in recs)
        assert sum(r.retransmits for r in recs) > 0

    def test_lossy_observation_output_is_pinned(self):
        """What a traced, flight-recorded run of the
        ``osu_latency_ampi_inter_64K_lossy`` baseline shape reports equals
        the committed ``observed_ampi_inter_64K_lossy`` observation block,
        and that block shows the recovery: retransmit-wait spans, blame on
        the ``fault_recovery`` layer, every flight record complete."""
        from tests.test_obs_pinned import observation_is_pinned

        out = observation_is_pinned("ampi_inter_64K_lossy")
        assert out["span_counts"]["fault/retransmit_wait"] > 0
        assert out["blame"]["fault_recovery"] > 0.0
        summary = out["flight_summary"]
        assert summary["n_records"] == summary["n_complete"] > 0
        assert out["last_record"]["complete"]

    def test_builder_faults_none_is_noop(self):
        sess = api.session(MachineConfig.summit(nodes=2)) \
            .model("openmpi").faults(None).build()
        assert sess.machine.fault_injector is None

    def test_osu_cli_fault_plan_inline(self, capsys):
        from repro.apps.osu.runner import main

        plan = json.dumps({"seed": 42, "link_rules": [{"drop_p": 0.1}]})
        main(["latency", "openmpi", "--placement", "inter",
              "--max-size", "256", "--override", f"faults={plan}"])
        out = capsys.readouterr().out
        assert "# fault counters" in out
        assert "fault.retransmit=" in out

    def test_osu_cli_fault_plan_file(self, tmp_path, capsys):
        from repro.apps.osu.runner import main

        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"seed": 42, "link_rules": [{"drop_p": 0.1}]}))
        main(["latency", "ampi", "--placement", "inter",
              "--max-size", "256", "--override", f"faults={p}", "--blame"])
        out = capsys.readouterr().out
        assert "# fault counters" in out
        assert "fault_recovery" in out

    def test_jacobi_cli_fault_plan(self, capsys):
        from repro.apps.jacobi3d.driver import main

        plan = json.dumps({"seed": 1, "link_rules": [{"drop_p": 0.02}]})
        main(["charm", "--nodes", "1", "--iters", "1", "--override", f"faults={plan}"])
        out = capsys.readouterr().out
        assert "# fault counters" in out

    def test_cli_faults_override_file_and_none(self, tmp_path, capsys):
        from repro.apps.jacobi3d.driver import main as jacobi
        from repro.apps.osu.runner import main as osu

        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"seed": 1, "link_rules": [{"drop_p": 0.02}]}))
        jacobi(["charm", "--nodes", "1", "--iters", "1", "--override", f"faults={p}"])
        assert "# fault counters" in capsys.readouterr().out
        # a later override wins: none detaches the plan again
        jacobi(["charm", "--nodes", "1", "--iters", "1",
                "--override", f"faults={p}", "--override", "faults=none"])
        osu(["latency", "openmpi", "--placement", "inter", "--max-size", "256",
             "--override", f"faults={p}", "--override", "faults=none"])
        assert "# fault counters" not in capsys.readouterr().out


class TestPoolExhaustion:
    """Pool-layer OutOfMemory is a resource fault: it must surface through
    the same error paths as communication faults — an ``MpiCommError``
    with ``UCS_ERR_NO_MEMORY`` at the allocation site, and the Charm
    runtime's ``on_comm_error`` notification."""

    def _capped_cfg(self):
        return MachineConfig.summit(nodes=1).override({
            "memory.allocator": "pool", "memory.pool_slab_bytes": 1 << 20,
            "memory.pool_max_bytes": 1 << 20})

    @pytest.mark.parametrize("model", ["ampi", "openmpi"])
    def test_pool_oom_is_mpi_comm_error_with_no_memory_status(self, model):
        from repro.ampi.mpi import MpiCommError

        sess = api.session(self._capped_cfg()).model(model).ranks(2).build()
        notified = []
        if sess.charm is not None:  # the Charm-side notification channel
            sess.charm.on_comm_error(
                lambda kind, tag, status: notified.append((kind, tag, status)))
        caught = {}

        def program(rank):
            if rank.rank == 0:
                rank.alloc_device(512 * KB)  # first slab
                try:
                    rank.alloc_device(1 << 20)  # second slab > pool cap
                except MpiCommError as exc:
                    caught["status"] = exc.status
                    caught["message"] = str(exc)
            yield 0.0  # a rank program is a generator

        sess.run_until(sess.launch(program), max_events=1_000_000)
        assert caught["status"] == UcsStatus.ERR_NO_MEMORY
        assert "pool" in caught["message"]
        if sess.charm is not None:
            assert ("alloc", 0, UcsStatus.ERR_NO_MEMORY) in notified
        assert sess.counters["fault.oom"] == 1

    def test_pool_return_avoids_the_oom(self):
        from repro.ampi.mpi import MpiCommError

        sess = api.session(self._capped_cfg()).model("ampi").ranks(2).build()

        def program(rank):
            if rank.rank == 0:
                for _ in range(8):  # 8 MB of traffic through a 1 MB cap
                    buf = rank.alloc_device(1 << 20)
                    rank.free_device(buf)
            yield 0.0  # a rank program is a generator

        sess.run_until(sess.launch(program), max_events=1_000_000)
        assert sess.counters["mem.pool_hit"] == 7
        assert "fault.oom" not in sess.counters

    def test_backing_device_oom_surfaces_identically(self):
        # exhaustion of the GPU itself (not the pool cap) takes the same
        # path: V100s model 16 GB, so two 9 GB direct allocations overflow
        from repro.ampi.mpi import MpiCommError

        sess = (api.session(MachineConfig.summit(nodes=1))
                .model("ampi").ranks(2).build())
        caught = {}

        def program(rank):
            if rank.rank == 0:
                rank.alloc_device(9 << 30)
                try:
                    rank.alloc_device(9 << 30)
                except MpiCommError as exc:
                    caught["status"] = exc.status
            yield 0.0  # a rank program is a generator

        sess.run_until(sess.launch(program), max_events=1_000_000)
        assert caught["status"] == UcsStatus.ERR_NO_MEMORY
