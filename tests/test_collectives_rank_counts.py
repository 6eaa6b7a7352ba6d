"""Value collectives at awkward rank counts (non-powers-of-two).

Binomial trees have edge cases at P = 1, primes, and P just above/below
powers of two; every algorithm is checked against its mathematical result
for each count.
"""

import pytest

from repro.ampi import Ampi
from repro.charm import Charm
from repro.collectives import value
from repro.config import MachineConfig

COUNTS = [1, 2, 3, 5, 7, 8, 11, 12]


def run_collective(n_ranks, program):
    charm = Charm(MachineConfig.summit(nodes=2))
    ampi = Ampi(charm, n_ranks=n_ranks)
    done = ampi.launch(program)
    charm.run_until(done, max_events=20_000_000)
    return ampi


@pytest.mark.parametrize("p", COUNTS)
def test_bcast_every_count(p):
    got = {}

    def program(mpi):
        v = yield from value.bcast(mpi, "x" if mpi.rank == 0 else None, root=0)
        got[mpi.rank] = v

    run_collective(p, program)
    assert got == {r: "x" for r in range(p)}


@pytest.mark.parametrize("p", COUNTS)
def test_reduce_every_count(p):
    got = {}

    def program(mpi):
        got[mpi.rank] = (yield from value.reduce(mpi, mpi.rank + 1, "sum", root=0))

    run_collective(p, program)
    assert got[0] == p * (p + 1) // 2


@pytest.mark.parametrize("p", COUNTS)
def test_allreduce_every_count(p):
    got = {}

    def program(mpi):
        got[mpi.rank] = (yield from mpi.allreduce(mpi.rank, "max"))

    run_collective(p, program)
    assert set(got.values()) == {p - 1}


@pytest.mark.parametrize("p", [3, 5, 12])
def test_nonzero_root_every_count(p):
    got = {}

    def program(mpi):
        root = p - 1
        v = yield from value.bcast(mpi, "payload" if mpi.rank == root else None,
                                   root=root)
        r = yield from value.reduce(mpi, 1, "sum", root=root)
        got[mpi.rank] = (v, r)

    run_collective(p, program)
    assert all(v == "payload" for v, _r in got.values())
    assert got[p - 1][1] == p
