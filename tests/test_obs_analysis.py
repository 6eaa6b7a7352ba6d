"""Hand-computed scenarios for the flight records and critical path.

The flight records' headline number — the delayed-posting cost — and
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
from repro.obs.flight import aggregate, flight_records
from repro.obs.tracing import Tracer
from repro.sim.engine import Simulator

RNDV_SIZE = 64 * KB  # >= device_eager_threshold (4 KB): rendezvous
EAGER_SIZE = 256


def make_layer(nodes=1):
    m = Machine(MachineConfig.summit(nodes=nodes).override({"flight": True}))
    n = m.cfg.topology.total_gpus
    pe_node = [m.node_of_gpu(g) for g in range(n)]
    layer = UcxMachineLayer(m, n, pe_node)
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
        (rec,) = flight_records(m.tracer.log)
        assert rec.complete
        assert rec.protocol == "rndv"
        assert rec.enqueued_at == 0.0
        assert rec.recv_posted_at == pytest.approx(50e-6)
        assert rec.posting_delay == pytest.approx(50e-6)
        assert rec.delayed_posting_cost == pytest.approx(50e-6)
        agg = aggregate(flight_records(m.tracer.log))
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
        (rec,) = flight_records(m.tracer.log)
        assert rec.complete
        assert rec.protocol == "eager"
        assert rec.posting_delay == pytest.approx(50e-6)
        assert rec.delayed_posting_cost == 0.0
        agg = aggregate(flight_records(m.tracer.log))
        assert agg["delayed_posting_seconds"] == 0.0
        assert agg["by_protocol"]["eager"]["n"] == 1

    def test_two_messages_aggregate(self):
        # two rndv sends enqueued at 0, posts at 10us and 30us: total 40us
        m, layer = make_layer()
        _send_recv(m, layer, RNDV_SIZE, post_at=10e-6)
        _send_recv(m, layer, RNDV_SIZE, post_at=30e-6)
        m.sim.run()
        agg = aggregate(flight_records(m.tracer.log))
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
        recs = flight_records(m.tracer.log)
        assert [r.enqueued_at for r in recs] == pytest.approx([0.0, 1e-6])
        assert aggregate(flight_records(m.tracer.log))["posting_inversions"] == 1


def _begin(t, tag, src_pe=0, dst_pe=1, size=8):
    """The log entry of an ``LrtsSendDevice`` call (its site's attrs are
    ``(src_pe, dst_pe, size, tag)``)."""
    return (t, "begin", tag, dst_pe, src_pe, dst_pe, size, tag)


class TestRecorderFifoPerTag:
    def test_same_tag_updates_go_to_oldest_open_record(self):
        # direct-UCX models (OpenMPI) reuse one application tag across
        # in-flight sends; stage updates must land FIFO
        log = [
            _begin(0.0, 7),
            _begin(0.0, 7),
            (1e-6, "ucx_send", 7, None, 7, 8, "eager", None),
            (2e-6, "completed_at", 7, None),
        ]
        a, b = flight_records(log)
        assert a.protocol == "eager" and a.complete
        assert b.protocol is None and not b.complete
        log.append((3e-6, "completed_at", 7, None))
        assert all(r.complete for r in flight_records(log))

    def test_disabled_recorder_records_nothing(self):
        sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
                .trace().build())
        run_latency("ampi", EAGER_SIZE, "intra", True, session=sess,
                    iters=2, skip=1)
        assert sess.tracer.log == []
        assert sess.flight_records() == []
        assert sess.flight_summary()["n_records"] == 0


class TestRecorderFaultStages:
    def test_retransmit_counted_on_open_record(self):
        (rec,) = flight_records([
            _begin(0.0, 3),
            (1e-6, "retransmit", 3, None),
            (2e-6, "retransmit", 3, None),
            (3e-6, "completed_at", 3, None),
        ])
        assert rec.retransmits == 2 and rec.complete
        doc = rec.to_dict()
        assert doc["retransmits"] == 2
        assert doc["error"] is None and doc["failed_at"] is None

    def test_failed_closes_record_with_error(self):
        log = [_begin(0.0, 4), (5e-6, "fail:endpoint_timeout", 4, None)]
        (rec,) = flight_records(log)
        assert rec.error == "endpoint_timeout"
        assert rec.failed_at == pytest.approx(5e-6)
        assert not rec.complete  # failed, not completed
        assert rec.to_dict()["error"] == "endpoint_timeout"
        # the record is closed: later same-tag stages cannot land on it
        log.append((6e-6, "completed_at", 4, None))
        (rec,) = flight_records(log)
        assert rec.completed_at is None

    def test_cancelled_is_failure_with_cancelled_error(self):
        (rec,) = flight_records([_begin(0.0, 5), (1e-6, "fail:cancelled", 5, None)])
        assert rec.error == "cancelled"

    def test_recv_cancel_clears_posting_stages(self):
        log = [
            _begin(0.0, 6),
            (1e-6, "recv_posted_at", 6, 1),
            (2e-6, "recv_cancel", 6, None),
        ]
        (rec,) = flight_records(log)
        assert rec.recv_posted_at is None
        assert rec.recv_cancels == 1
        # a repost then lands normally on the same record
        log += [(3e-6, "recv_posted_at", 6, 1), (4e-6, "completed_at", 6, None)]
        (rec,) = flight_records(log)
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
