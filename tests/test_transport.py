"""The frame transport under the UCP worker (``repro.ucx.transport``).

* the ordered stream, directly: hold and drain, the two kinds of duplicate,
  reservations, lost slots;
* rendezvous bookkeeping: per-rendezvous state lives on the request, so
  nothing outlives a finished transfer — a worker's state does not grow
  with the number of rendezvous it has run — and cancel looks its request
  up directly.

The fault state machine of ``transport.send`` is exercised on both streams
by the worker-level cases of ``tests/test_faults.py``.
"""

import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu.runner import run_latency
from repro.config import KB, MB, MachineConfig
from repro.faults import FaultPlan, LinkFaultRule
from repro.hardware.topology import Machine
from repro.obs.tracing import Tracer
from repro.sim.engine import Simulator
from repro.ucx.context import UcpContext
from repro.ucx.status import UcsStatus
from repro.ucx.transport import PENDING, SequencedStream
from repro.ucx.wire import WireKind


def make_stream():
    tracer = Tracer(Simulator())
    released = []
    stream = SequencedStream(tracer, lambda src, entry: released.append((src, entry)))
    return stream, released, tracer


class TestSequencedStream:
    def test_send_numbers_are_per_destination(self):
        stream, _released, _tracer = make_stream()
        assert [stream.next_seq(7), stream.next_seq(7), stream.next_seq(8)] == [0, 1, 0]

    def test_out_of_order_hold_and_drain(self):
        stream, released, tracer = make_stream()
        assert stream.offer(3, 2, "c") and stream.offer(3, 1, "b")
        assert released == []  # both wait for slot 0
        stream.offer(5, 0, "other-source")  # sources are independent
        assert released == [(5, "other-source")]
        stream.offer(3, 0, "a")
        assert released[1:] == [(3, "a"), (3, "b"), (3, "c")]
        stream.offer(3, 3, "d")  # the stream is in step again: no holding
        assert released[-1] == (3, "d")
        assert tracer.counters["fault.duplicate_dropped"] == 0

    def test_duplicate_below_next_is_dropped(self):
        stream, released, tracer = make_stream()
        stream.offer(0, 0, "a")
        assert stream.offer(0, 0, "a-again") is False
        assert released == [(0, "a")]
        assert tracer.counters["fault.duplicate_dropped"] == 1

    def test_duplicate_of_a_held_slot_is_dropped(self):
        stream, released, tracer = make_stream()
        stream.offer(0, 1, "b")
        assert stream.offer(0, 1, "b-again") is False
        stream.offer(0, 0, "a")
        assert released == [(0, "a"), (0, "b")]
        assert tracer.counters["fault.duplicate_dropped"] == 1

    def test_reservation_blocks_the_drain_until_filled(self):
        stream, released, tracer = make_stream()
        assert stream.offer(0, 0, PENDING) is True
        assert stream.offer(0, 0, PENDING) is False  # the duplicate RTS
        assert stream.offer(0, 0, "copy") is False  # nor may a copy fill it
        stream.offer(0, 1, "b")
        assert released == []  # slot 0 is still being produced
        stream.offer(0, 0, "a", reserved=True)
        assert released == [(0, "a"), (0, "b")]
        assert tracer.counters["fault.duplicate_dropped"] == 2

    def test_reservation_behind_a_gap(self):
        stream, released, _tracer = make_stream()
        assert stream.offer(0, 1, PENDING)
        stream.offer(0, 1, "b", reserved=True)  # filled before slot 0 came
        assert stream.offer(0, 2, PENDING)
        stream.offer(0, 0, "a")
        assert released == [(0, "a"), (0, "b")]  # stops at the pending slot
        stream.offer(0, 2, "c", reserved=True)
        assert released[-1] == (0, "c")

    def test_lost_slot_is_consumed_in_order(self):
        """The AM give-up entry: a slot-consuming marker travels the stream
        like any message, so the loss surfaces at its place in the order."""
        stream, released, _tracer = make_stream()
        stream.offer(0, 1, ("lost", 64))
        stream.offer(0, 2, "c")
        assert released == []
        stream.offer(0, 0, "a")
        assert released == [(0, "a"), (0, ("lost", 64)), (0, "c")]


def make_pair(config=None):
    m = Machine(config or MachineConfig.summit(nodes=2))
    ctx = UcpContext(m)
    return m, ctx.create_worker(0, 0), ctx.create_worker(1, 0)


def assert_no_live_rendezvous(workers):
    """No worker keeps a rendezvous alive: the pending table is empty and
    is the only per-rendezvous container a worker has at all (the other
    rendezvous attribute is one integer, the highest id it issued)."""
    assert workers
    for w in workers:
        assert w.pending_rndv_sends == {}
        assert {k for k in vars(w) if "rndv" in k} == {
            "pending_rndv_sends", "_rndv_high"}
        assert isinstance(w._rndv_high, int)


def state_size(worker):
    """Total length of every container a worker (and its two streams) owns."""
    owners = [vars(worker)] + [
        {k: getattr(s, k) for k in s.__slots__}
        for s in (worker.tag_stream, worker.am_stream)]
    return sum(len(v) for attrs in owners for v in attrs.values()
               if isinstance(v, (dict, set, list)))


class TestRendezvousBookkeeping:
    def test_clean_jacobi_run_leaves_no_live_rendezvous(self):
        sess = api.session(MachineConfig.summit(nodes=2)).model("ampi").build()
        run_jacobi("ampi", nodes=2, iters=2, warmup=1, session=sess)
        workers = sess.charm.layer.workers
        assert sum(w._rndv_high > 0 for w in workers) > 0  # rendezvous ran
        assert_no_live_rendezvous(workers)

    def test_lossy_latency_run_leaves_no_live_rendezvous(self):
        # the osu_latency_ampi_inter_64K_lossy shape of BENCH_baseline.json
        sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
                .faults(FaultPlan.lossy(drop_p=0.08, seed=1234)).build())
        run_latency("ampi", 64 * KB, "inter", True, session=sess, iters=6, skip=2)
        assert sess.counters["fault.retransmit"] > 0
        assert_no_live_rendezvous(sess.charm.layer.workers)

    def test_worker_state_does_not_grow_with_rendezvous_count(self):
        def sizes_after(n):
            m, wa, wb = make_pair()
            size = 64 * KB
            src, dst = (m.alloc_host(0, size, materialize=False) for _ in "sd")
            for t in range(n):
                wb.tag_recv_nb(dst, size, tag=t)
                wa.tag_send_nb(wa.ep(1), src, size, tag=t)
                m.sim.run()
            assert wa._rndv_high >= n  # all n went by rendezvous
            assert_no_live_rendezvous([wa, wb])
            return state_size(wa), state_size(wb)

        assert sizes_after(40) == sizes_after(4)

    def test_late_fin_is_recognised_without_per_rendezvous_state(self):
        """A FIN stalled past the retry timer arrives twice; the second copy
        finds nothing pending and is told from an unknown id by being no
        higher than the highest id the worker issued."""
        plan = FaultPlan(seed=0, retry_timeout=10e-6, link_rules=(
            LinkFaultRule(src=1, dst=0, kinds=("fin",), stall_p=1.0,
                          stall_seconds=40e-6, max_faults=1),))
        m, wa, wb = make_pair(MachineConfig.summit(nodes=2).with_faults(plan))
        size = 256 * KB
        rreq = wb.tag_recv_nb(m.alloc_host(0, size), size, tag=3)
        sreq = wa.tag_send_nb(wa.ep(1), m.alloc_host(0, size), size, tag=3)
        m.sim.run()
        assert (rreq.status, sreq.status) == (UcsStatus.OK, UcsStatus.OK)
        assert m.tracer.counters["ucx.late_fin_ignored"] == 1
        assert_no_live_rendezvous([wa, wb])

    def test_request_records_its_rendezvous(self):
        m, wa, wb = make_pair()
        size = 1 * MB
        src, dst = m.alloc_host(0, size), m.alloc_host(0, size)
        eager = wa.tag_send_nb(wa.ep(1), m.alloc_host(0, 8), 8, tag=1)
        sreq = wa.tag_send_nb(wa.ep(1), src, size, tag=2)
        assert eager.rndv_id == 0
        assert wa.pending_rndv_sends == {sreq.rndv_id: sreq}
        assert sreq.rndv_remote == 1 and not sreq.rndv_committed
        wb.tag_recv_nb(m.alloc_host(0, 8), 8, tag=1)
        wb.tag_recv_nb(dst, size, tag=2)
        m.sim.run()
        assert sreq.status is UcsStatus.OK and sreq.rndv_committed
        assert_no_live_rendezvous([wa, wb])

    def test_cancel_one_of_many_pending_retracts_exactly_that_rts(self):
        m, wa, wb = make_pair()
        size = 64 * KB
        reqs = [wa.tag_send_nb(wa.ep(1), m.alloc_host(0, size, materialize=False),
                               size, tag=t) for t in range(200)]
        m.sim.run()  # 200 RTS descriptors parked in wb's unexpected queue
        assert len(wb.unexpected) == 200 and len(wa.pending_rndv_sends) == 200
        victim = reqs[137]
        assert wa.cancel(victim) is True
        assert victim.status is UcsStatus.ERR_CANCELED
        assert victim.rndv_id not in wa.pending_rndv_sends
        assert sorted(msg.tag for msg in wb.unexpected) == [
            t for t in range(200) if t != 137]
        assert wa.cancel(victim) is False  # already completed
        # the other 199 still complete normally
        for t in range(200):
            wb.tag_recv_nb(m.alloc_host(0, size, materialize=False), size, tag=t)
        m.sim.run()
        assert [r.status for r in reqs].count(UcsStatus.OK) == 199
        assert_no_live_rendezvous([wa, wb])

    def test_cancel_while_rts_in_flight_drops_it_at_the_receiver(self):
        m, wa, wb = make_pair()
        size = 1 * MB
        sreq = wa.tag_send_nb(wa.ep(1), m.alloc_host(0, size), size, tag=6)
        assert wa.cancel(sreq) is True  # the RTS has not left yet
        m.sim.run()
        assert m.tracer.counters["ucx.cancelled_rts_dropped"] == 1
        assert not any(msg.kind is WireKind.RTS for msg in wb.unexpected)
        # the dropped RTS consumed its slot: the pair's stream keeps flowing
        src, dst = m.alloc_host(0, 8), m.alloc_host(0, 8)
        src.data[:] = 5
        rreq = wb.tag_recv_nb(dst, 8, tag=7)
        wa.tag_send_nb(wa.ep(1), src, 8, tag=7)
        m.sim.run()
        assert rreq.status is UcsStatus.OK and (dst.data == 5).all()
