"""Tests for generator-based processes."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.primitives import AllOf, SimEvent, Timeout
from repro.sim.process import Process


@pytest.fixture
def sim():
    return Simulator()


def test_process_runs_and_returns_value(sim):
    def gen():
        yield Timeout(sim, 1.0)
        return "done"

    p = Process(sim, gen())
    sim.run()
    assert p.triggered and p.result() == "done"
    assert sim.now == 1.0


def test_process_requires_generator(sim):
    with pytest.raises(TypeError):
        Process(sim, lambda: None)


def test_process_receives_event_values(sim):
    got = []

    def gen():
        v = yield Timeout(sim, 0.5, value=123)
        got.append(v)

    Process(sim, gen())
    sim.run()
    assert got == [123]


def test_yield_none_resumes_same_instant(sim):
    times = []

    def gen():
        times.append(sim.now)
        yield None
        times.append(sim.now)

    Process(sim, gen())
    sim.run()
    assert times == [0.0, 0.0]


def test_process_join(sim):
    def child():
        yield Timeout(sim, 2.0)
        return 5

    def parent():
        v = yield Process(sim, child())
        return v * 2

    p = Process(sim, parent())
    sim.run()
    assert p.result() == 10


def test_exception_propagates_to_joiner(sim):
    def child():
        yield Timeout(sim, 1.0)
        raise ValueError("child failed")

    def parent():
        try:
            yield Process(sim, child())
        except ValueError as e:
            return f"caught {e}"

    p = Process(sim, parent())
    sim.run()
    assert p.result() == "caught child failed"


def test_unjoined_exception_reraises(sim):
    def gen():
        yield Timeout(sim, 0.1)
        raise RuntimeError("unhandled")

    Process(sim, gen())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_invalid_yield_type_raises(sim):
    def gen():
        yield 42

    Process(sim, gen())
    with pytest.raises(TypeError, match="yielded"):
        sim.run()


def test_two_processes_interleave(sim):
    log = []

    def worker(name, delay):
        for i in range(3):
            yield Timeout(sim, delay)
            log.append((name, sim.now))

    Process(sim, worker("fast", 1.0))
    Process(sim, worker("slow", 1.5))
    sim.run()
    # at t=3.0 both wake; slow's timeout was scheduled earlier (at t=1.5)
    # so FIFO tie-breaking resumes it first
    assert log == [
        ("fast", 1.0), ("slow", 1.5), ("fast", 2.0), ("slow", 3.0),
        ("fast", 3.0), ("slow", 4.5),
    ]


def test_process_waits_on_plain_event(sim):
    ev = SimEvent(sim)
    got = []

    def gen():
        got.append((yield ev))

    Process(sim, gen())
    sim.schedule(2.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_process_is_event_for_allof(sim):
    def gen(v, d):
        yield Timeout(sim, d)
        return v

    combo = AllOf(sim, [Process(sim, gen("a", 1)), Process(sim, gen("b", 2))])
    sim.run()
    assert combo.result() == ["a", "b"]


def test_yield_from_composes_subgenerators(sim):
    def sub():
        yield Timeout(sim, 1.0)
        return "sub-value"

    def main():
        v = yield from sub()
        return v.upper()

    p = Process(sim, main())
    sim.run()
    assert p.result() == "SUB-VALUE"


# -- the sleep lane: a process may yield a bare float ------------------------

class TestSleepLane:
    @staticmethod
    def _three_processes(nap):
        """Three processes whose sleeps tie, chain and straddle an event;
        ``nap(sim, d)`` is what they yield to sleep ``d``."""
        sim = Simulator()
        log = []
        gate = SimEvent(sim)

        def ticker(name, delay, n):
            for _ in range(n):
                got = yield nap(sim, delay)
                log.append((name, sim.now, got))

        def opener():
            yield nap(sim, 1.5)
            gate.succeed("open")
            yield nap(sim, 0.0)
            log.append(("opener", sim.now, None))

        def waiter():
            got = yield gate
            log.append(("waiter", sim.now, got))
            yield nap(sim, 0.5)  # lands on ticker a's second tick, at 2.0
            log.append(("waiter", sim.now, None))

        Process(sim, ticker("a", 1.0, 4))
        Process(sim, ticker("b", 1.5, 2))
        Process(sim, opener())
        Process(sim, waiter())
        sim.run()
        return log, sim.now, sim.event_count

    def test_a_float_sleeps_exactly_like_a_timeout(self):
        as_float = self._three_processes(lambda sim, d: d)
        as_event = self._three_processes(Timeout)
        assert as_float == as_event  # times, interleaving, event count
        assert len(as_float[0]) == 9 and as_float[1] == 4.0

    def test_zero_sleep_resumes_after_events_already_queued(self, sim):
        order = []

        def gen():
            sim.call_later(0.0, order.append, "queued first")
            yield 0.0
            order.append("process")

        Process(sim, gen())
        sim.call_later(0.0, order.append, "queued second")
        sim.run()
        assert order == ["queued second", "queued first", "process"]
        assert sim.now == 0.0

    @pytest.mark.parametrize("bad", [3, True])
    def test_an_int_is_not_a_delay(self, sim, bad):
        def gen():
            yield bad

        Process(sim, gen(), name="napper")
        with pytest.raises(TypeError, match="'napper' yielded"):
            sim.run()
        assert sim.pending_events == 0

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("-inf")])
    def test_a_bad_delay_is_rejected_as_schedule_rejects_it(self, sim, bad):
        def gen():
            yield bad

        Process(sim, gen())
        with pytest.raises(SimulationError) as exc:
            sim.run()
        with pytest.raises(SimulationError) as ref:
            sim.schedule(bad, lambda: None)
        assert str(exc.value) == str(ref.value)
        assert sim.pending_events == 0  # nothing was armed
