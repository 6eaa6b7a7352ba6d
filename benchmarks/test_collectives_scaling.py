"""Crossover ladder for the device-collective algorithm selection.

The point of the redesigned collective layer is that the *winning*
algorithm changes with message size, rank count, and topology — and that
the auto-selector's crossover points fall out of the link model rather
than hand-tuned constants.  This ladder measures every registered
algorithm at the rungs where the ordering is robust (well away from
near-ties) and asserts

* the latency/bandwidth crossovers: recursive-doubling wins small
  allreduces, ring wins large ones; tree allgather wins small, ring
  large; binomial bcast wins small and mid sizes,
* auto-selection lands on the measured winner at each asserted rung,
* a run under ``algorithm=None`` costs exactly what the algorithm it
  reports picking costs when forced — selection adds no modeled time,
* the two-level hierarchical allreduce beats the best flat algorithm at
  64 ranks / 1 MB across 11 nodes, and auto picks it,
* AMPI and OpenMPI agree on the chosen algorithm for the same shape
  (the selector sees the same machine model through either frontend).

Rank programs write no payload bytes (buffers stay size-only): the ladder
measures modeled time, not numerics — functional correctness lives in
``tests/test_device_collectives.py``.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.config import MachineConfig

MAX_EVENTS = 100_000_000
SMALL, MID, LARGE = 64, 512 * 1024, 8 << 20
FLAT_ONLY = {"hierarchical_enabled": False}


def _measure(collective, nbytes, *, p, nodes, algorithm=None, coll=None,
             model="ampi"):
    """Run one device collective at size ``nbytes`` over ``p`` ranks and
    return (modeled seconds, which-algorithm counters)."""
    cfg = MachineConfig.summit(nodes=nodes).override(
        {f"collectives.{k}": v for k, v in (coll or {}).items()})
    sess = api.session(cfg).model(model).ranks(p).build()

    def program(rank):
        buf = rank.charm.cuda.malloc(rank.gpu, nbytes)
        if collective == "allgather":
            yield from rank.allgather_device(buf, nbytes, algorithm=algorithm)
        elif collective == "bcast":
            yield from rank.bcast_device(buf, nbytes, algorithm=algorithm)
        else:
            yield from rank.allreduce_device(buf, nbytes, algorithm=algorithm)

    sess.run_until(sess.launch(program), max_events=MAX_EVENTS)
    chosen = {
        key[len(f"coll.{collective}."):]: count
        for key, count in sess.counters.items()
        if key.startswith(f"coll.{collective}.")
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
            algo: _measure("allreduce", nbytes, p=self.P, nodes=self.NODES,
                           algorithm=algo, coll=FLAT_ONLY)[0]
            for algo in ("ring", "recdbl", "binomial")
        }

    def test_ring_wins_large(self):
        t = self._forced(LARGE)
        assert t["ring"] < t["recdbl"] < t["binomial"], t

    def test_recdbl_wins_small(self):
        t = self._forced(SMALL)
        assert t["recdbl"] < t["binomial"] < t["ring"], t

    @pytest.mark.parametrize("nbytes,winner", [(LARGE, "ring"), (SMALL, "recdbl")])
    def test_auto_picks_measured_winner(self, nbytes, winner):
        forced, _ = _measure("allreduce", nbytes, p=self.P, nodes=self.NODES,
                             algorithm=winner, coll=FLAT_ONLY)
        auto, chosen = _measure("allreduce", nbytes, p=self.P,
                                nodes=self.NODES, coll=FLAT_ONLY)
        assert _picked(chosen, self.P) == winner
        assert auto == forced  # selection itself costs no modeled time


class TestAllgatherCrossover:
    P, NODES = 8, 2

    def test_ring_wins_large_tree_wins_small(self):
        large = {a: _measure("allgather", 1 << 20, p=self.P, nodes=self.NODES,
                             algorithm=a)[0] for a in ("ring", "tree")}
        small = {a: _measure("allgather", SMALL, p=self.P, nodes=self.NODES,
                             algorithm=a)[0] for a in ("ring", "tree")}
        assert large["ring"] < large["tree"], large
        assert small["tree"] < small["ring"], small

    def test_auto_matches_winner_each_side(self):
        for nbytes, winner in ((1 << 20, "ring"), (SMALL, "tree")):
            auto, chosen = _measure("allgather", nbytes, p=self.P,
                                    nodes=self.NODES)
            assert _picked(chosen, self.P) == winner
            forced, _ = _measure("allgather", nbytes, p=self.P,
                                 nodes=self.NODES, algorithm=winner)
            assert auto == forced


class TestBcastIntraNode:
    """6 ranks on one node: binomial's log(p) NVLink hops beat the ring's
    p-1 serial steps at small and mid sizes (at very large sizes the two
    are a near-tie on this link model, so no assertion there)."""

    P, NODES = 6, 1

    @pytest.mark.parametrize("nbytes", [SMALL, MID])
    def test_binomial_wins(self, nbytes):
        t = {a: _measure("bcast", nbytes, p=self.P, nodes=self.NODES,
                         algorithm=a)[0] for a in ("binomial", "ring")}
        assert t["binomial"] < t["ring"], (nbytes, t)

    def test_auto_picks_binomial_small(self):
        _, chosen = _measure("bcast", SMALL, p=self.P, nodes=self.NODES)
        assert _picked(chosen, self.P) == "binomial"


class TestHierarchicalAtScale:
    """64 ranks / 11 nodes / 1 MB: the two-level decomposition (NVLink
    reduce-scatter+gather inside the node, IB tree between node leaders)
    must beat whatever flat algorithm the selector would otherwise pick."""

    P, NODES, NBYTES = 64, 11, 1 << 20

    def test_hierarchical_beats_best_flat_and_auto_picks_it(self):
        auto, chosen = _measure("allreduce", self.NBYTES, p=self.P,
                                nodes=self.NODES)
        assert _picked(chosen, self.P) == "hierarchical"
        flat, flat_chosen = _measure("allreduce", self.NBYTES, p=self.P,
                                     nodes=self.NODES, coll=FLAT_ONLY)
        assert auto < flat, (
            f"hierarchical {auto * 1e6:.1f}us not better than best flat "
            f"{_picked(flat_chosen, self.P)} {flat * 1e6:.1f}us"
        )


class TestNonPowerOfTwo:
    """7 ranks over 2 nodes — every remainder path (recdbl fold, uneven
    ring blocks, odd binomial trees) in one ladder, plus the selection
    invariant: auto == forced(winner) exactly."""

    P, NODES = 7, 2

    @pytest.mark.parametrize("nbytes", [SMALL, 1 << 20])
    def test_auto_equals_forced_winner(self, nbytes):
        auto, chosen = _measure("allreduce", nbytes, p=self.P,
                                nodes=self.NODES, coll=FLAT_ONLY)
        winner = _picked(chosen, self.P)
        forced, _ = _measure("allreduce", nbytes, p=self.P, nodes=self.NODES,
                             algorithm=winner, coll=FLAT_ONLY)
        assert auto == forced

    def test_all_flat_algorithms_complete(self):
        times = {
            algo: _measure("allreduce", 1 << 20, p=self.P, nodes=self.NODES,
                           algorithm=algo, coll=FLAT_ONLY)[0]
            for algo in ("ring", "recdbl", "binomial")
        }
        assert all(t > 0 for t in times.values()), times


class TestCrossModelParity:
    """The selector reads the machine model, not the frontend: AMPI and
    OpenMPI must pick the same algorithm for the same shape."""

    P, NODES = 8, 2

    @pytest.mark.parametrize("nbytes", [SMALL, LARGE])
    def test_same_choice(self, nbytes):
        picks = {}
        for model in ("ampi", "openmpi"):
            _, chosen = _measure("allreduce", nbytes, p=self.P,
                                 nodes=self.NODES, coll=FLAT_ONLY,
                                 model=model)
            picks[model] = _picked(chosen, self.P)
        assert picks["ampi"] == picks["openmpi"], picks
