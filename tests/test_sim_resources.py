"""Tests for FIFO resources and the tracer."""

import pytest

from repro.obs.tracing import Tracer
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


@pytest.fixture
def sim():
    return Simulator()


def test_grants_up_to_capacity(sim):
    r = Resource(sim, capacity=2)
    assert r.try_acquire() and r.try_acquire()
    assert not r.try_acquire()
    r.release()
    assert r.try_acquire()


def test_capacity_must_be_positive(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_waiters_granted_fifo(sim):
    r = Resource(sim, capacity=1)
    order = []
    for name in "abc":
        r.occupy(1.0, lambda n=name: order.append((n, sim.now)))
    sim.run()
    assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_release_idle_rejected(sim):
    r = Resource(sim)
    with pytest.raises(RuntimeError):
        r.release()


def test_occupy_holds_for_duration(sim):
    r = Resource(sim, capacity=1)
    done_times = []
    r.occupy(2.0).add_callback(lambda _e: done_times.append(sim.now))
    r.occupy(3.0).add_callback(lambda _e: done_times.append(sim.now))
    sim.run()
    assert done_times == [2.0, 5.0]  # second waits for the first


def test_occupy_parallel_with_capacity(sim):
    r = Resource(sim, capacity=2)
    done_times = []
    for _ in range(2):
        r.occupy(2.0).add_callback(lambda _e: done_times.append(sim.now))
    sim.run()
    assert done_times == [2.0, 2.0]


def test_queue_length(sim):
    r = Resource(sim, capacity=1)
    for _ in range(3):
        r.occupy(1.0)
    assert r.queue_length == 2


def test_uncontended_resource_reports_an_empty_queue(sim):
    r = Resource(sim, capacity=1, name="nic0")
    r.occupy(1.0)
    sim.run()
    assert r.queue_length == 0
    assert "nic0" in repr(r) and "waiting=0" in repr(r)


def test_fifo_survives_contend_drain_contend(sim):
    r = Resource(sim, capacity=1)
    order = []
    for name in "abc":
        r.occupy(1.0, order.append, (name,))
    sim.run()
    assert r.queue_length == 0 and r.in_use == 0
    for name in "xyz":
        r.occupy(1.0, lambda n=name: order.append((n, sim.now)))
    assert r.queue_length == 2
    sim.run()
    assert order == ["a", "b", "c", ("x", 4.0), ("y", 5.0), ("z", 6.0)]


class TestTracer:
    def test_deprecated_span_api_removed(self, sim):
        # span_begin/span_end completed their deprecation cycle; the
        # with-statement span() API below is the only span interface
        t = Tracer(sim, enabled=True)
        assert not hasattr(t, "span_begin")
        assert not hasattr(t, "span_end")

    def test_span_end_at(self, sim):
        # end(row, at) ends a span at an explicit modeled time without
        # scheduling anything (used for analytic costs like tag matching)
        t = Tracer(sim, enabled=True)
        sp = t.span("ucx.match", "tag_match")
        t.end(sp, sim.now + 3.0)
        assert t.spans[0].duration == pytest.approx(3.0)
        assert t.time_in("ucx.match") == pytest.approx(3.0)
        t.end(sp, sim.now + 9.0)  # idempotent: second end ignored
        assert t.spans[0].duration == pytest.approx(3.0)

    def test_span_context_manager(self, sim):
        """The replacement API: with-statement spans on an enabled tracer."""
        t = Tracer(sim, enabled=True)
        with t.span("ampi", "send", size=8):
            sim.schedule(2.0, lambda: None)
            sim.run()
        assert t.spans[0].duration == pytest.approx(2.0)
        assert t.time_in("ampi") == pytest.approx(2.0)
