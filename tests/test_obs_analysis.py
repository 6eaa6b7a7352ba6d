"""Hand-computed scenarios for the flight recorder and critical path.

The flight recorder's headline number — the delayed-posting cost — and
the critical-path layer blame are both exercised here against scenarios
small enough to compute by hand: a send whose receive is posted a known
50 us late, a pair of receives posted against send order, and a
synthetic span tree whose deepest-active chain is worked out on paper.
"""

import pytest

import repro.api as api
from repro.apps.osu.runner import run_latency
from repro.config import KB, MachineConfig
from repro.core.device_buffer import (
    CmiDeviceBuffer,
    DeviceRdmaOp,
    DeviceRecvType,
)
from repro.core.machine_ucx import UcxMachineLayer
from repro.hardware.topology import Machine
from repro.obs.critical_path import critical_path, layer_of
from repro.obs.flight import FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

RNDV_SIZE = 64 * KB  # >= device_eager_threshold (4 KB): rendezvous
EAGER_SIZE = 256


def make_layer(nodes=1):
    m = Machine(MachineConfig.summit(nodes=nodes).override({"flight": True}))
    n = m.cfg.topology.total_gpus
    pe_node = [m.node_of_gpu(g) for g in range(n)]
    layer = UcxMachineLayer(m, n, pe_node)
    layer.register_device_recv_handler(DeviceRecvType.CHARM, lambda op: None)
    return m, layer


def _send_recv(m, layer, size, post_at):
    """One PE0 -> PE1 device transfer; receive posted at ``post_at``."""
    src = m.alloc_device(0, size)
    dst = m.alloc_device(1, size)
    dev = CmiDeviceBuffer(ptr=src, size=size)
    tag = layer.lrts_send_device(0, 1, dev)  # at sim.now: data-ready instant
    op = DeviceRdmaOp(dest=dst, size=size, tag=tag, recv_type=DeviceRecvType.CHARM)
    m.sim.schedule(post_at - m.sim.now, layer.lrts_recv_device, 1, op)
    return tag


# ---------------------------------------------------------------------------
# delayed-posting cost, hand-computed
# ---------------------------------------------------------------------------

class TestDelayedPosting:
    def test_rndv_cost_equals_posting_gap(self):
        # send enqueued at t=0, receive posted at t=50us: for rendezvous
        # the whole gap is exposed latency
        m, layer = make_layer()
        _send_recv(m, layer, RNDV_SIZE, post_at=50e-6)
        m.sim.run()
        (rec,) = m.tracer.flight.records()
        assert rec.complete
        assert rec.protocol == "rndv"
        assert rec.enqueued_at == 0.0
        assert rec.recv_posted_at == pytest.approx(50e-6)
        assert rec.posting_delay == pytest.approx(50e-6)
        assert rec.delayed_posting_cost == pytest.approx(50e-6)
        agg = m.tracer.flight.aggregate()
        assert agg["delayed_posting_seconds"] == pytest.approx(50e-6)
        assert agg["by_protocol"]["rndv"]["delayed_posting_seconds"] == \
            pytest.approx(50e-6)
        assert agg["by_protocol"]["rndv"]["max_delayed_posting_seconds"] == \
            pytest.approx(50e-6)

    def test_eager_cost_is_zero_despite_late_post(self):
        # same 50us gap, but the eager payload travels without the post:
        # the posting delay is visible, the *cost* is zero by definition
        m, layer = make_layer()
        _send_recv(m, layer, EAGER_SIZE, post_at=50e-6)
        m.sim.run()
        (rec,) = m.tracer.flight.records()
        assert rec.complete
        assert rec.protocol == "eager"
        assert rec.posting_delay == pytest.approx(50e-6)
        assert rec.delayed_posting_cost == 0.0
        agg = m.tracer.flight.aggregate()
        assert agg["delayed_posting_seconds"] == 0.0
        assert agg["by_protocol"]["eager"]["n"] == 1

    def test_two_messages_aggregate(self):
        # two rndv sends enqueued at 0, posts at 10us and 30us: total 40us
        m, layer = make_layer()
        _send_recv(m, layer, RNDV_SIZE, post_at=10e-6)
        _send_recv(m, layer, RNDV_SIZE, post_at=30e-6)
        m.sim.run()
        agg = m.tracer.flight.aggregate()
        assert agg["n_records"] == 2 and agg["n_complete"] == 2
        assert agg["delayed_posting_seconds"] == pytest.approx(40e-6)
        assert agg["by_protocol"]["rndv"]["max_delayed_posting_seconds"] == \
            pytest.approx(30e-6)
        assert agg["posting_inversions"] == 0

    def test_posting_inversion_detected(self):
        # message A enqueued before B, but B's receive posted first:
        # exactly one inversion in the (0, 1) group
        m, layer = make_layer()
        _send_recv(m, layer, EAGER_SIZE, post_at=20e-6)  # A: enq 0
        m.sim.schedule(
            1e-6, lambda: _send_recv(m, layer, EAGER_SIZE, post_at=10e-6)
        )  # B: enq 1us, posted 10us < A's 20us
        m.sim.run()
        recs = m.tracer.flight.records()
        assert [r.enqueued_at for r in recs] == pytest.approx([0.0, 1e-6])
        assert m.tracer.flight.aggregate()["posting_inversions"] == 1


class TestRecorderFifoPerTag:
    def test_same_tag_updates_go_to_oldest_open_record(self):
        # direct-UCX models (OpenMPI) reuse one application tag across
        # in-flight sends; stage updates must land FIFO
        sim = Simulator()
        fr = FlightRecorder(sim, enabled=True)
        fr.begin(7, src_pe=0, dst_pe=1, size=8)
        fr.begin(7, src_pe=0, dst_pe=1, size=8)
        fr.ucx_send(7, "eager")
        fr.completed(7)
        a, b = fr.records()
        assert a.protocol == "eager" and a.complete
        assert b.protocol is None and not b.complete
        fr.completed(7)
        assert all(r.complete for r in fr.records())

    def test_disabled_recorder_records_nothing(self):
        fr = FlightRecorder(Simulator(), enabled=False)
        fr.begin(1, src_pe=0, dst_pe=1, size=8)
        fr.completed(1)
        assert fr.records() == []
        assert fr.aggregate()["n_records"] == 0


class TestRecorderFaultStages:
    def test_retransmit_counted_on_open_record(self):
        sim = Simulator()
        fr = FlightRecorder(sim, enabled=True)
        fr.begin(3, src_pe=0, dst_pe=1, size=8)
        fr.retransmitted(3)
        fr.retransmitted(3)
        fr.completed(3)
        (rec,) = fr.records()
        assert rec.retransmits == 2 and rec.complete
        doc = rec.to_dict()
        assert doc["retransmits"] == 2
        assert doc["error"] is None and doc["failed_at"] is None

    def test_failed_closes_record_with_error(self):
        sim = Simulator()
        fr = FlightRecorder(sim, enabled=True)
        fr.begin(4, src_pe=0, dst_pe=1, size=8)
        sim.schedule(5e-6, lambda: fr.failed(4, "endpoint_timeout"))
        sim.run()
        (rec,) = fr.records()
        assert rec.error == "endpoint_timeout"
        assert rec.failed_at == pytest.approx(5e-6)
        assert not rec.complete  # failed, not completed
        assert rec.to_dict()["error"] == "endpoint_timeout"
        # the record is closed: later same-tag stages cannot land on it
        fr.completed(4)
        assert rec.completed_at is None

    def test_cancelled_is_failure_with_cancelled_error(self):
        fr = FlightRecorder(Simulator(), enabled=True)
        fr.begin(5, src_pe=0, dst_pe=1, size=8)
        fr.cancelled(5)
        (rec,) = fr.records()
        assert rec.error == "cancelled"

    def test_recv_cancel_clears_posting_stages(self):
        fr = FlightRecorder(Simulator(), enabled=True)
        fr.begin(6, src_pe=0, dst_pe=1, size=8)
        fr.recv_posted(6)
        fr.recv_cancelled(6)
        (rec,) = fr.records()
        assert rec.recv_posted_at is None
        assert rec.recv_cancels == 1
        # a repost then lands normally on the same record
        fr.recv_posted(6)
        fr.completed(6)
        assert rec.recv_posted_at is not None and rec.complete


# ---------------------------------------------------------------------------
# critical path, hand-computed
# ---------------------------------------------------------------------------

class TestLayerMap:
    def test_layer_of(self):
        assert layer_of("link", "wire") == "link"
        assert layer_of("link", "rndv_data") == "link"
        assert layer_of("link", "am_wire") == "host_metadata"
        assert layer_of("link", "am_fetch") == "host_metadata"
        assert layer_of("ucx", "am_send") == "host_metadata"
        assert layer_of("ucx", "tag_send") == "ucx_protocol"
        assert layer_of("ucx.match", "tag_match") == "matching"
        assert layer_of("ucx.rndv", "transfer") == "ucx_protocol"
        assert layer_of("machine", "lrts_send_device") == "machine"
        assert layer_of("converse", "cmi_send") == "host_metadata"
        assert layer_of("fault", "retransmit_wait") == "fault_recovery"
        assert layer_of("fault", "anything") == "fault_recovery"
        for model in ("ampi", "openmpi", "charm", "charm4py", "osu", "jacobi3d"):
            assert layer_of(model, "x") == "model"
        assert layer_of("mystery", "x") == "other"


class TestCriticalPathSynthetic:
    def _tracer(self):
        sim = Simulator()
        return sim, Tracer(sim, enabled=True)

    def test_deepest_span_wins(self):
        # model span 0..10; link child 2..6; ucx span 4..8.  The deepest
        # (latest-started) active span at each instant gives:
        #   [0,2) model, [2,4) link, [4,8) ucx_protocol, [8,10) model
        sim, t = self._tracer()
        a = t.span("ampi", "send")
        holder = {}
        sim.schedule(2.0, lambda: holder.setdefault("b", t.span("link", "wire")))
        sim.schedule(4.0, lambda: holder.setdefault("c", t.span("ucx.rndv", "drive")))
        sim.schedule(6.0, lambda: holder["b"].end())
        sim.schedule(8.0, lambda: holder["c"].end())
        sim.schedule(10.0, a.end)
        sim.run()
        report = critical_path(t)
        assert report.t0 == 0.0 and report.t1 == 10.0
        assert report.blame == {
            "model": pytest.approx(4.0),
            "link": pytest.approx(2.0),
            "ucx_protocol": pytest.approx(4.0),
        }
        assert [(s.start, s.end, s.layer) for s in report.segments] == [
            (0.0, 2.0, "model"),
            (2.0, 4.0, "link"),
            (4.0, 8.0, "ucx_protocol"),
            (8.0, 10.0, "model"),
        ]
        assert sum(report.blame.values()) == pytest.approx(report.total)

    def test_gap_blamed_on_uninstrumented(self):
        sim, t = self._tracer()
        sp1 = t.span("ampi", "a")
        sim.schedule(2.0, sp1.end)
        holder = {}
        sim.schedule(5.0, lambda: holder.setdefault("sp", t.span("link", "wire")))
        sim.schedule(7.0, lambda: holder["sp"].end())
        sim.run()
        report = critical_path(t)
        assert report.blame["uninstrumented"] == pytest.approx(3.0)
        assert report.blame["model"] == pytest.approx(2.0)
        assert report.blame["link"] == pytest.approx(2.0)

    def test_open_span_extends_to_window_end(self):
        sim, t = self._tracer()
        sp1 = t.span("ampi", "a")
        sim.schedule(2.0, sp1.end)
        sim.schedule(3.0, lambda: t.span("ucx", "open"))
        sim.run()
        report = critical_path(t, t1=5.0)
        assert report.blame["ucx_protocol"] == pytest.approx(2.0)
        assert report.blame["uninstrumented"] == pytest.approx(1.0)

    def test_no_spans_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="no spans recorded"):
            critical_path(Tracer(sim, enabled=False))

    def test_format_mentions_every_layer(self):
        sim, t = self._tracer()
        with t.span("ampi", "a"):
            sim.schedule(1.0, lambda: None)
            sim.run()
        text = critical_path(t).format()
        assert "critical path over" in text
        assert "model" in text and "100.0%" in text


# ---------------------------------------------------------------------------
# end-to-end blame on a real workload
# ---------------------------------------------------------------------------

class TestEndToEndBlame:
    def test_ampi_rndv_blame_and_posting(self):
        sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
                .trace().flight().build())
        run_latency("ampi", 64 * KB, "inter", True, session=sess,
                    iters=4, skip=1)
        report = sess.critical_path()
        assert sum(report.blame.values()) == pytest.approx(report.total)
        # bulk-data wire time and UCX protocol work must both show up on
        # the critical path of an inter-node rendezvous ping-pong
        assert report.blame.get("link", 0.0) > 0.0
        assert report.blame.get("ucx_protocol", 0.0) > 0.0
        agg = sess.flight_summary()
        assert agg["by_protocol"]["rndv"]["n"] > 0
        # metadata-gated rendezvous: nonzero aggregate delayed-posting cost
        assert agg["delayed_posting_seconds"] > 0.0
        recs = sess.flight_records()
        assert recs and all(r.complete and r.protocol == "rndv" for r in recs)

    def test_eager_workload_has_zero_posting_cost(self):
        sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
                .flight().build())
        run_latency("ampi", 8, "intra", True, session=sess, iters=4, skip=1)
        agg = sess.flight_summary()
        assert agg["by_protocol"]["eager"]["n"] > 0
        assert agg["delayed_posting_seconds"] == 0.0
