"""Selection ladder for the device allreduce.

The point of the collective layer is that the *winning* algorithm changes
with message size, rank count, and topology — and that the auto-selector's
choices fall out of the link model rather than hand-tuned constants.  This
ladder measures every registered algorithm at rungs where the ordering is
robust (well away from near-ties) and asserts

* recursive doubling beats the binomial tree on small allreduces,
* auto-selection lands on the measured winner at each asserted rung,
* a run under ``algorithm=None`` costs exactly what the algorithm it
  reports picking costs when forced — selection adds no modeled time,
* the two-level hierarchical allreduce beats the best flat algorithm at
  64 ranks / 1 MB across 11 nodes, and auto picks it.

Rank programs write no payload bytes (buffers stay size-only): the ladder
measures modeled time, not numerics — functional correctness lives in
``tests/test_device_collectives.py``.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.config import MachineConfig

MAX_EVENTS = 100_000_000
SMALL, LARGE = 64, 8 << 20
FLAT_ONLY = {"hierarchical_enabled": False}


def _measure(nbytes, *, p, nodes, algorithm=None, coll=None):
    """Run one device allreduce of ``nbytes`` over ``p`` ranks and return
    (modeled seconds, which-algorithm counters)."""
    cfg = MachineConfig.summit(nodes=nodes).override(
        {f"collectives.{k}": v for k, v in (coll or {}).items()})
    sess = api.session(cfg).model("ampi").ranks(p).build()

    def program(rank):
        buf = rank.charm.cuda.malloc(rank.gpu, nbytes)
        yield from rank.allreduce_device(buf, nbytes, algorithm=algorithm)

    sess.run_until(sess.launch(program), max_events=MAX_EVENTS)
    chosen = {
        key[len("coll.allreduce."):]: count
        for key, count in sess.counters.items()
        if key.startswith("coll.allreduce.")
    }
    return sess.now, chosen


def _picked(chosen, p):
    """The single algorithm all ``p`` ranks agreed on."""
    assert chosen and all(c == p for c in chosen.values()), chosen
    assert len(chosen) == 1, f"ranks disagreed on the algorithm: {chosen}"
    return next(iter(chosen))


class TestAllreduceCrossover:
    """8 ranks over 2 nodes, flat algorithms only."""

    P, NODES = 8, 2

    def _forced(self, nbytes):
        return {
            algo: _measure(nbytes, p=self.P, nodes=self.NODES,
                           algorithm=algo, coll=FLAT_ONLY)[0]
            for algo in ("recdbl", "binomial")
        }

    def test_recdbl_wins_small(self):
        t = self._forced(SMALL)
        assert t["recdbl"] < t["binomial"], t

    @pytest.mark.parametrize("nbytes,winner", [(SMALL, "recdbl")])
    def test_auto_picks_measured_winner(self, nbytes, winner):
        forced, _ = _measure(nbytes, p=self.P, nodes=self.NODES,
                             algorithm=winner, coll=FLAT_ONLY)
        auto, chosen = _measure(nbytes, p=self.P,
                                nodes=self.NODES, coll=FLAT_ONLY)
        assert _picked(chosen, self.P) == winner
        assert auto == forced  # selection itself costs no modeled time


class TestHierarchicalAtScale:
    """64 ranks / 11 nodes / 1 MB: the two-level decomposition (binomial
    reduce and bcast over NVLink inside the node, the cheapest flat
    allreduce between node leaders) must beat whatever flat algorithm the
    selector would otherwise pick."""

    P, NODES, NBYTES = 64, 11, 1 << 20

    def test_hierarchical_beats_best_flat_and_auto_picks_it(self):
        auto, chosen = _measure(self.NBYTES, p=self.P,
                                nodes=self.NODES)
        assert _picked(chosen, self.P) == "hierarchical"
        flat, flat_chosen = _measure(self.NBYTES, p=self.P,
                                     nodes=self.NODES, coll=FLAT_ONLY)
        assert auto < flat, (
            f"hierarchical {auto * 1e6:.1f}us not better than best flat "
            f"{_picked(flat_chosen, self.P)} {flat * 1e6:.1f}us"
        )


class TestNonPowerOfTwo:
    """7 ranks over 2 nodes — every remainder path (recdbl fold, odd
    binomial trees) in one ladder, plus the selection invariant:
    auto == forced(winner) exactly."""

    P, NODES = 7, 2

    @pytest.mark.parametrize("nbytes", [SMALL, 1 << 20])
    def test_auto_equals_forced_winner(self, nbytes):
        auto, chosen = _measure(nbytes, p=self.P,
                                nodes=self.NODES, coll=FLAT_ONLY)
        winner = _picked(chosen, self.P)
        forced, _ = _measure(nbytes, p=self.P, nodes=self.NODES,
                             algorithm=winner, coll=FLAT_ONLY)
        assert auto == forced

    def test_all_flat_algorithms_complete(self):
        times = {
            algo: _measure(1 << 20, p=self.P, nodes=self.NODES,
                           algorithm=algo, coll=FLAT_ONLY)[0]
            for algo in ("recdbl", "binomial")
        }
        assert all(t > 0 for t in times.values()), times

