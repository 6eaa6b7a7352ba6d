"""Tests for events, combinators, and queues."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.primitives import (
    AllOf,
    EventAlreadyTriggered,
    SimEvent,
    SimQueue,
    Timeout,
)


@pytest.fixture
def sim():
    return Simulator()


class TestSimEvent:
    def test_succeed_carries_value(self, sim):
        ev = SimEvent(sim)
        ev.succeed(7)
        assert ev.triggered and ev.ok and ev.result() == 7

    def test_fail_reraises(self, sim):
        ev = SimEvent(sim)
        ev.fail(ValueError("boom"))
        assert ev.triggered and not ev.ok
        with pytest.raises(ValueError, match="boom"):
            ev.result()

    def test_double_trigger_rejected(self, sim):
        ev = SimEvent(sim)
        ev.succeed()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()
        with pytest.raises(EventAlreadyTriggered):
            ev.fail(RuntimeError())

    def test_result_before_trigger_raises(self, sim):
        with pytest.raises(RuntimeError):
            SimEvent(sim).result()

    def test_callbacks_before_and_after_trigger(self, sim):
        ev = SimEvent(sim)
        seen = []
        ev.add_callback(lambda e: seen.append("before"))
        ev.succeed()
        ev.add_callback(lambda e: seen.append("after"))
        assert seen == ["before", "after"]


class TestCallbackOrder:
    """An event keeps its first callback inline and builds a list only for a
    second one; either way callbacks run first-in, first-out."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("outcome", ["succeed", "fail"])
    def test_callbacks_added_before_the_trigger_run_in_order(self, sim, n, outcome):
        ev = SimEvent(sim)
        seen = []
        for i in range(n):
            ev.add_callback(lambda e, i=i: seen.append((i, e.ok)))
        assert seen == []
        if outcome == "succeed":
            ev.succeed()
        else:
            ev.fail(ValueError("boom"))
        assert seen == [(i, outcome == "succeed") for i in range(n)]

    @pytest.mark.parametrize("before", [0, 1, 2, 3])
    def test_callbacks_added_after_the_trigger_run_at_once_and_in_order(
            self, sim, before):
        ev = SimEvent(sim)
        seen = []
        for i in range(before):
            ev.add_callback(lambda e, i=i: seen.append(i))
        ev.succeed()
        for i in range(before, before + 3):
            ev.add_callback(lambda e, i=i: seen.append(i))
            assert seen == list(range(i + 1))

    def test_a_callback_added_while_triggering_runs_at_once(self, sim):
        ev = SimEvent(sim)
        seen = []
        ev.add_callback(lambda e: (seen.append("first"),
                                   e.add_callback(lambda _e: seen.append("nested"))))
        ev.add_callback(lambda e: seen.append("second"))
        ev.fail(KeyError("k"))
        assert seen == ["first", "nested", "second"]

    @pytest.mark.parametrize("outcome", ["succeed", "fail"])
    def test_allof_listing_one_child_twice(self, sim, outcome):
        child, other = SimEvent(sim), SimEvent(sim)
        seen = []
        child.add_callback(lambda e: seen.append("before"))
        combo = AllOf(sim, [child, other, child])
        combo.add_callback(lambda e: seen.append("combo"))
        child.add_callback(lambda e: seen.append("after"))
        other.succeed("o")
        if outcome == "succeed":
            child.succeed("c")
            assert combo.result() == ["c", "o", "c"]
        else:
            child.fail(ValueError("boom"))
            with pytest.raises(ValueError, match="boom"):
                combo.result()
        # the combo triggers on the child's second entry when it succeeds
        # (each listing counts) and on its first when it fails; it is told
        # once, before the callback added after it
        assert seen == ["before", "combo", "after"]


class TestCombinators:
    def test_allof_collects_values_in_input_order(self, sim):
        evs = [SimEvent(sim) for _ in range(3)]
        combo = AllOf(sim, evs)
        evs[2].succeed("c")
        evs[0].succeed("a")
        assert not combo.triggered
        evs[1].succeed("b")
        assert combo.result() == ["a", "b", "c"]

    def test_allof_empty_succeeds_immediately(self, sim):
        assert AllOf(sim, []).result() == []

    def test_allof_fails_fast(self, sim):
        evs = [SimEvent(sim) for _ in range(2)]
        combo = AllOf(sim, evs)
        evs[0].fail(KeyError("k"))
        assert combo.triggered
        with pytest.raises(KeyError):
            combo.result()

    def test_allof_with_pretriggered_events(self, sim):
        done = SimEvent(sim)
        done.succeed(1)
        combo = AllOf(sim, [done, done])
        assert combo.result() == [1, 1]

class TestSimQueue:
    def test_fifo_buffering(self, sim):
        q = SimQueue(sim)
        q.put(1)
        q.put(2)
        assert q.get().result() == 1
        assert q.get().result() == 2

    def test_waiter_woken_by_put(self, sim):
        q = SimQueue(sim)
        ev = q.get()
        assert not ev.triggered
        q.put("x")
        assert ev.result() == "x"

    def test_waiters_served_fifo(self, sim):
        q = SimQueue(sim)
        first, second = q.get(), q.get()
        q.put("a")
        q.put("b")
        assert first.result() == "a" and second.result() == "b"

    def test_len_counts_buffered_only(self, sim):
        q = SimQueue(sim)
        q.get()
        assert len(q) == 0
        q.put(1)
        q.put(2)  # first put woke the waiter
        assert len(q) == 1

    def test_deep_buffer_served_fifo(self, sim):
        q = SimQueue(sim)
        for i in range(10_000):
            q.put(i)
        assert len(q) == 10_000
        assert [q.get().result() for _ in range(10_000)] == list(range(10_000))
        assert len(q) == 0


def test_timeouts_compose_with_allof(sim):
    combo = AllOf(sim, [Timeout(sim, 1.0, "a"), Timeout(sim, 3.0, "b")])
    sim.run()
    assert combo.result() == ["a", "b"]
    assert sim.now == 3.0
