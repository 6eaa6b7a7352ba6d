"""Tests for the discrete-event engine."""

import weakref

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.primitives import SimEvent, Timeout


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "c")
    sim.schedule(0.5, order.append, "a")
    sim.schedule(1.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 2.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_zero_delay_runs_after_current_instant_queue():
    sim = Simulator()
    order = []
    sim.schedule(0.0, order.append, 1)
    sim.schedule(0.0, lambda: (order.append(2), sim.schedule(0.0, order.append, 4)))
    sim.schedule(0.0, order.append, 3)
    sim.run()
    assert order == [1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1e-9, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    h = sim.schedule(1.0, fired.append, "x")
    h.cancel()
    assert h.cancelled
    sim.run()
    assert fired == []
    assert sim.now == 0.0  # cancelled event does not advance time


def test_cancel_is_idempotent():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    h.cancel()
    h.cancel()
    sim.run()


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_includes_events_at_exact_bound():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [5.0]


def test_nested_scheduling_during_execution():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(0.5, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 1.5)]


def test_peek_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek() == 2.0


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_max_events_guards_against_loops():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as e:
            errors.append(e)

    sim.schedule(0.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_run_until_complete_returns_value():
    sim = Simulator()
    ev = SimEvent(sim)
    sim.schedule(3.0, ev.succeed, 42)
    assert sim.run_until_complete(ev) == 42
    assert sim.now == 3.0


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    ev = SimEvent(sim)  # never triggered
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(ev)


def test_event_count_tracks_executions():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.event_count == 5


def test_timeout_event_integration():
    sim = Simulator()
    t = Timeout(sim, 2.5, value="done")
    sim.run()
    assert t.triggered and t.result() == "done"
    assert sim.now == 2.5


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


class TestHandleIdentity:
    """Regression tests: a handle stays truthful after its timer is gone.

    The first engine's lazy-deletion compaction rebound heap entries under
    live handles; cancel-after-fire and double-cancel of a compacted entry
    corrupted the cancellation bookkeeping.  A handle now owns its timer's
    state outright, so a stale one has nothing of anyone else's to touch.
    """

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        h.cancel()  # the event already ran: nothing to suppress
        assert not h.cancelled  # must not misreport the event as suppressed
        assert h.time == 1.0

    def test_cancel_after_fire_does_not_kill_slot_reuser(self):
        sim = Simulator()
        fired = []
        h1 = sim.schedule(1.0, fired.append, "a")
        sim.run()
        h2 = sim.schedule(1.0, fired.append, "b")
        h1.cancel()  # stale handle: must not cancel h2's event
        assert h2.pending and sim.pending_events == 1
        sim.run()
        assert fired == ["a", "b"]
        assert not h1.cancelled and not h2.cancelled
        assert len(sim._cur) == 0 and sim._tombstones == 0

    def test_double_cancel_of_reclaimed_entry(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, fired.append, "x")
        h.cancel()
        sim.run()  # reaps the tombstone
        assert len(sim._cur) == 0 and sim._tombstones == 0
        h2 = sim.schedule(2.0, fired.append, "y")
        h.cancel()  # second cancel of a reclaimed entry: pure no-op
        assert h.cancelled  # the first cancel did suppress the event
        assert h2.pending and sim.pending_events == 1 and sim._tombstones == 0
        sim.run()
        assert fired == ["y"]

    def test_handle_time_stable_under_mass_cancellation(self):
        # the old compaction pass rebuilt the agenda under the handles;
        # Handle.time must stay truthful no matter how many reaps happen
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in range(500)]
        for h in handles[1::2]:
            h.cancel()
        sim.run()
        assert [h.time for h in handles] == [float(i) for i in range(500)]
        assert all(h.cancelled for h in handles[1::2])
        assert not any(h.cancelled for h in handles[::2])

    def test_pending_lifecycle(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        assert h.pending
        sim.run()
        assert not h.pending and not h.cancelled
        h2 = sim.schedule(1.0, lambda: None)
        h2.cancel()
        assert not h2.pending and h2.cancelled


class TestTombstones:
    """A cancelled timer is a dead agenda entry until it surfaces: it must
    never be counted, never move the clock, and hold nothing alive."""

    def test_cancelled_head_beyond_until_with_a_live_timer_behind(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, fired.append, "a")
        dead = sim.schedule(5.0, fired.append, "dead")
        sim.call_later(7.0, fired.append, "late")
        dead.cancel()
        sim.run(until=3.0)
        assert fired == ["a"] and sim.now == 3.0 and sim.event_count == 1
        sim.run(until=6.0)  # only the tombstone lies in (3, 6]
        assert fired == ["a"] and sim.now == 6.0 and sim.event_count == 1
        assert sim.pending_events == 1 and sim._tombstones == 0
        sim.run()
        assert fired == ["a", "late"] and sim.now == 7.0

    def test_cancelled_head_beyond_until_with_nothing_behind(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        sim.run()
        dead = sim.schedule(5.0, lambda: None)
        dead.cancel()
        sim.run(until=3.0)  # the agenda drains: the clock is left alone
        assert sim.now == 1.0 and sim.event_count == 1
        assert len(sim._cur) == 0 and sim._tombstones == 0

    def test_cancelled_last_timer_does_not_advance_the_clock(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        last = sim.schedule(9.0, lambda: None)
        last.cancel()
        sim.run()
        assert sim.now == 1.0 and sim.event_count == 1
        assert not sim.step() and sim.now == 1.0

    def test_peek_reaps_every_leading_tombstone(self):
        sim = Simulator()
        dead = [sim.schedule(float(i), lambda: None) for i in range(1, 4)]
        sim.call_later(4.0, lambda: None)
        buried = sim.schedule(5.0, lambda: None)
        for h in dead + [buried]:
            h.cancel()
        assert sim._tombstones == 4 and sim.pending_events == 1
        assert sim.peek() == 4.0
        assert sim._tombstones == 1 and sim.pending_events == 1
        assert sim.now == 0.0
        sim.run()
        assert sim.peek() is None and sim._tombstones == 0

    def test_cancel_releases_the_callback_arguments_at_once(self):
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        gone = weakref.ref(payload)
        h = sim.schedule(1.0, lambda p: None, payload)
        del payload
        assert gone() is not None  # the armed timer keeps it alive
        h.cancel()
        assert gone() is None  # ... and lets go before the entry is reaped
        assert sim._tombstones == 1
