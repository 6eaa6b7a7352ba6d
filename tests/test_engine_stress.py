"""Property-style stress tests for the event core.

Randomized (seeded) workloads interleaving ``call_later``, ``schedule``,
``schedule_at`` and cancels at bit-equal times are replayed on both the
engine (:class:`repro.sim.engine.Simulator`) and the heap-of-entries oracle
(:class:`tests.oracles.reference_engine.ReferenceSimulator`); the firing
order, firing times, clock and event counts must match exactly.  The engine
has one dispatch loop behind ``run``, ``step`` and ``run_until_complete``,
so the differential drives it once through each.
"""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.primitives import SimEvent
from tests.oracles.reference_engine import ReferenceSimulator


class _Workload:
    """One deterministic schedule/cancel workload driven by a seeded RNG.

    Both engines replay the same seed; every RNG draw happens inside event
    callbacks, so the draw sequence (and thus the whole workload) is
    identical iff the engines fire events in the same order — any
    divergence shows up as a differing log.
    """

    #: quantized delays: heavy tie traffic plus zero-delay chains
    DELAYS = (0.0, 0.0, 1e-9, 2.5e-7, 2.5e-7, 1e-6, 3e-6, 1e-4, 0.5)

    def __init__(self, sim, seed: int) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.log = []
        self.handles = []
        self.next_id = 0
        self.budget = 3000  # total events allowed to spawn children

    def seed_events(self, n: int) -> None:
        for _ in range(n):
            self._spawn(self.rng.choice(self.DELAYS))

    def _spawn(self, delay: float) -> None:
        eid = self.next_id
        self.next_id += 1
        if self.rng.random() < 0.5:
            # the handle-free form shares the agenda, seq and key with
            # schedule: ties between the two must still fire FIFO
            assert self.sim.call_later(delay, self._fire, eid) is None
        else:
            self.handles.append(self.sim.schedule(delay, self._fire, eid))

    def _fire(self, eid: int) -> None:
        self.log.append((eid, self.sim.now))
        self.budget -= 1
        if self.budget <= 0:
            return
        r = self.rng.random()
        if r < 0.45:
            self._spawn(self.rng.choice(self.DELAYS))
            if r < 0.15:  # occasional burst: more same-instant ties
                self._spawn(0.0)
        elif r < 0.65 and self.handles:
            # cancel a random handle: may be pending, fired, or already
            # cancelled (double-cancel and cancel-after-fire paths)
            self.rng.choice(self.handles).cancel()
        elif r < 0.75:
            self.sim.schedule_at(self.sim.now + self.rng.choice(self.DELAYS),
                                 self._fire, self._alloc_id())

    def _alloc_id(self) -> int:
        eid = self.next_id
        self.next_id += 1
        return eid


def _drive_run(sim) -> None:
    sim.run(max_events=50_000)


def _drive_step(sim) -> None:
    while sim.step():
        pass


def _drive_run_until_complete(sim) -> None:
    # the stop event fires from an infinitely late timer, i.e. after every
    # other event of the workload, whatever the workload schedules
    done = SimEvent(sim)
    sim.schedule(float("inf"), done.succeed)
    sim.run_until_complete(done, max_events=50_000)


def _run_workload(sim, seed: int, roots: int = 200, drive=_drive_run):
    w = _Workload(sim, seed)
    w.seed_events(roots)
    drive(sim)
    return w.log, sim.now, sim.event_count


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234, 99991])
def test_firing_order_matches_reference(seed):
    new_log, new_now, new_count = _run_workload(Simulator(), seed)
    ref_log, ref_now, ref_count = _run_workload(ReferenceSimulator(), seed)
    assert new_log == ref_log
    assert new_now == ref_now  # bit-equal, not approx
    assert new_count == ref_count


@pytest.mark.parametrize("drive", [_drive_step, _drive_run_until_complete],
                         ids=["step", "run_until_complete"])
def test_every_entry_point_fires_the_reference_order(drive):
    # larger agenda than above (500 roots): deep heap, many ties
    new_log, _, new_count = _run_workload(Simulator(), 2024, roots=500,
                                          drive=drive)
    ref_log, _, ref_count = _run_workload(ReferenceSimulator(), 2024,
                                          roots=500)
    assert new_log == ref_log
    # the stop event's own timer is the one event the workload did not log
    own = 1 if drive is _drive_run_until_complete else 0
    assert new_count == ref_count + own == len(new_log) + own


@pytest.mark.parametrize("delay", [-1e-9, -1.0, float("-inf"), float("nan")])
def test_call_later_rejects_what_schedule_rejects(delay):
    sim = Simulator()
    errors = []
    for arm in (sim.schedule, sim.call_later):
        with pytest.raises(SimulationError) as exc:
            arm(delay, lambda: None)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert sim.pending_events == 0 and sim._seq == 0  # nothing half-armed


def test_schedule_handle_names_the_slot_call_later_took():
    # schedule is call_later + Handle: the handle must bind the event just
    # armed, on a fresh slot and on a recycled one, among handle-free events
    sim = Simulator()
    fired = []
    sim.call_later(1.0, fired.append, "a")
    h1 = sim.schedule(1.0, fired.append, "b")  # fresh slot
    sim.call_later(1.0, fired.append, "c")
    assert h1.pending and h1.time == 1.0
    h1.cancel()
    sim.run()
    assert fired == ["a", "c"]
    h2 = sim.schedule(0.5, fired.append, "d")  # recycled slot
    sim.call_later(0.5, fired.append, "e")
    assert h2.pending and h2.time == 1.5 and not h1.pending
    h2.cancel()
    h1.cancel()  # stale handle on a recycled slot: must not touch "e"
    sim.run()
    assert fired == ["a", "c", "e"] and h2.cancelled


def test_ties_and_infinite_times():
    sim = Simulator()
    fired = []
    for i in range(50):
        sim.schedule(1.0, fired.append, i)  # all tied: FIFO
    for i in range(50, 100):
        sim.schedule(float(i), fired.append, i)
    h = sim.schedule(float("inf"), fired.append, "never")
    sim.run(until=99.0)
    assert fired == list(range(100))
    h.cancel()
    sim.run()
    assert fired == list(range(100))
    assert sim.pending_events == 0
    assert len(sim._cur) == 0 and sim._tombstones == 0  # nothing left behind
