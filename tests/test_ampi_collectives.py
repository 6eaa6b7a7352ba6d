"""Tests for the collectives built on point-to-point.

``bcast`` and ``reduce`` are the two halves of the value ``allreduce``; they
are driven here directly, at every root.
"""

import numpy as np
import pytest

from repro.ampi import Ampi
from repro.charm import Charm
from repro.collectives import value
from repro.config import MachineConfig


def run_collective(program, nodes=2):
    charm = Charm(MachineConfig.summit(nodes=nodes))
    ampi = Ampi(charm)
    done = ampi.launch(program)
    charm.run_until(done, max_events=10_000_000)
    return ampi


class TestBcast:
    @pytest.mark.parametrize("root", [0, 3, 11])
    def test_value_reaches_all(self, root):
        got = {}

        def program(mpi):
            v = "payload" if mpi.rank == root else None
            v = yield from value.bcast(mpi, v, root=root)
            got[mpi.rank] = v

        ampi = run_collective(program)
        assert got == {r: "payload" for r in range(ampi.n_ranks)}


class TestReduce:
    @pytest.mark.parametrize("op,expect", [
        ("sum", sum(range(12))),
        ("max", 11),
        ("min", 0),
    ])
    def test_scalar_ops(self, op, expect):
        got = {}

        def program(mpi):
            v = yield from value.reduce(mpi, mpi.rank, op, root=0)
            got[mpi.rank] = v

        run_collective(program)
        assert got[0] == expect
        assert all(v is None for r, v in got.items() if r != 0)

    def test_nonzero_root(self):
        got = {}

        def program(mpi):
            v = yield from value.reduce(mpi, 1, "sum", root=5)
            got[mpi.rank] = v

        ampi = run_collective(program)
        assert got[5] == ampi.n_ranks

    def test_array_reduce(self):
        got = {}

        def program(mpi):
            v = yield from value.reduce(mpi, np.full(3, float(mpi.rank)), "sum",
                                        root=0, nbytes=24)
            got[mpi.rank] = v

        ampi = run_collective(program)
        assert (got[0] == sum(range(ampi.n_ranks))).all()


class TestAllreduce:
    def test_everyone_gets_result(self):
        got = {}

        def program(mpi):
            v = yield from mpi.allreduce(mpi.rank + 1, "sum")
            got[mpi.rank] = v

        ampi = run_collective(program)
        expect = sum(range(1, ampi.n_ranks + 1))
        assert got == {r: expect for r in range(ampi.n_ranks)}

    def test_max(self):
        got = {}

        def program(mpi):
            got[mpi.rank] = (yield from mpi.allreduce(mpi.rank % 5, "max"))

        run_collective(program)
        assert set(got.values()) == {4}


class TestGatherScatter:
    def test_gather_ordered_by_rank(self):
        got = {}

        def program(mpi):
            v = yield from mpi.gather(mpi.rank * 10, root=2)
            got[mpi.rank] = v

        ampi = run_collective(program)
        assert got[2] == [r * 10 for r in range(ampi.n_ranks)]
        assert got[0] is None


class TestDeviceCollectives:
    def test_allreduce_device_rejects_host_buffer(self):
        def program(mpi):
            h = mpi.charm.cuda.malloc_host(mpi.node, 64)
            with pytest.raises(ValueError):
                list(mpi.allreduce_device(h, 64, "sum"))
            return
            yield  # pragma: no cover

        run_collective(program)
