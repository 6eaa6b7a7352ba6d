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
    a, b, c = r.acquire(), r.acquire(), r.acquire()
    assert a.triggered and b.triggered and not c.triggered
    r.release()
    assert c.triggered


def test_capacity_must_be_positive(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_waiters_granted_fifo(sim):
    r = Resource(sim, capacity=1)
    r.acquire()
    order = []
    for name in "abc":
        r.acquire().add_callback(lambda _e, n=name: order.append(n))
    for _ in range(3):
        r.release()
    assert order == ["a", "b", "c"]


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


def test_utilisation_accounting(sim):
    r = Resource(sim, capacity=1)
    r.occupy(2.0)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert r.utilisation() == pytest.approx(0.2)
    assert r.total_acquisitions == 1


def test_queue_length(sim):
    r = Resource(sim, capacity=1)
    r.acquire()
    r.acquire()
    r.acquire()
    assert r.queue_length == 2


class TestTracer:
    def test_deprecated_span_api_removed(self, sim):
        # span_begin/span_end completed their deprecation cycle; the
        # with-statement span() API below is the only span interface
        t = Tracer(sim, enabled=True)
        assert not hasattr(t, "span_begin")
        assert not hasattr(t, "span_end")

    def test_span_close_at(self, sim):
        # close_at ends a span at an explicit modeled time without
        # scheduling anything (used for analytic costs like tag matching)
        t = Tracer(sim, enabled=True)
        sp = t.span("ucx.match", "tag_match")
        sp.close_at(sim.now + 3.0)
        assert sp.duration == pytest.approx(3.0)
        assert t.time_in("ucx.match") == pytest.approx(3.0)
        sp.close_at(sim.now + 9.0)  # idempotent: second close ignored
        assert sp.duration == pytest.approx(3.0)

    def test_span_context_manager(self, sim):
        """The replacement API: with-statement spans on an enabled tracer."""
        t = Tracer(sim, enabled=True)
        with t.span("ampi", "send", size=8) as sp:
            sim.schedule(2.0, lambda: None)
            sim.run()
        assert sp.duration == pytest.approx(2.0)
        assert t.time_in("ampi") == pytest.approx(2.0)

    def test_reset_clears_everything(self, sim):
        t = Tracer(sim, enabled=True)
        t.count("a", "x")
        with t.span("s", "work"):
            pass
        t.reset()
        assert not t.counters and t.time_in("s") == 0.0
        assert not t.spans
