"""Tests for tree reductions over chare collections."""

import numpy as np
import pytest

from repro.charm import Charm, Chare, CkCallback
from repro.config import MachineConfig


class Worker(Chare):
    def __init__(self, results):
        self.results = results

    def go(self, value, op, cb):
        self.charm.reductions.contribute(self, value, op, cb)

    def take_result(self, value):
        self.results.append(value)


@pytest.fixture
def charm():
    return Charm(MachineConfig.summit(nodes=2))


def run_reduction(charm, values, op):
    results = []
    g = charm.create_array(Worker, charm.n_pes, results)
    cb = CkCallback(fn=results.append)
    for pe, v in enumerate(values):
        g[pe].go(v, op, cb)
    charm.run()
    assert len(results) == 1
    return results[0]


class TestScalarReductions:
    def test_sum(self, charm):
        vals = list(range(charm.n_pes))
        assert run_reduction(charm, vals, "sum") == sum(vals)

    def test_max(self, charm):
        vals = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]
        assert run_reduction(charm, vals, "max") == 9

    def test_min(self, charm):
        vals = [v + 2 for v in range(charm.n_pes)]
        assert run_reduction(charm, vals, "min") == 2

    def test_prod(self, charm):
        vals = [1] * (charm.n_pes - 1) + [7]
        assert run_reduction(charm, vals, "prod") == 7

    def test_unknown_op_rejected(self, charm):
        g = charm.create_array(Worker, charm.n_pes, [])
        obj = charm.chares[g[0].chare_id]
        with pytest.raises(ValueError):
            charm.reductions.contribute(obj, 1, "xor", CkCallback(fn=print))


class TestArrayReductions:
    def test_elementwise_sum(self, charm):
        vals = [np.full(4, float(i)) for i in range(charm.n_pes)]
        out = run_reduction(charm, vals, "sum")
        assert (out == sum(range(charm.n_pes))).all()

    def test_elementwise_max(self, charm):
        vals = [np.array([i, -i, 0.5]) for i in range(charm.n_pes)]
        out = run_reduction(charm, vals, "max")
        assert out.tolist() == [charm.n_pes - 1, 0, 0.5]


class TestReductionSemantics:
    def test_multiple_elements_per_pe(self, charm):
        results = []
        arr = charm.create_array(Worker, 2 * charm.n_pes, results)
        cb = CkCallback(fn=results.append)
        for i in range(2 * charm.n_pes):
            arr[i].go(1, "sum", cb)
        charm.run()
        assert results == [2 * charm.n_pes]

    def test_back_to_back_rounds_pipeline(self, charm):
        results = []
        g = charm.create_array(Worker, charm.n_pes, results)
        cb = CkCallback(fn=results.append)
        for _round in range(3):
            for pe in range(charm.n_pes):
                g[pe].go(1, "sum", cb)
        charm.run()
        assert results == [charm.n_pes] * 3

    def test_non_collection_chare_rejected(self, charm):
        p = charm.create_chare(Worker, 0, [])
        obj = charm.chares[p.chare_id]
        with pytest.raises(RuntimeError, match="chare array"):
            charm.reductions.contribute(obj, 1, "sum", CkCallback(fn=print))

    def test_callback_to_entry_method(self, charm):
        results = []
        g = charm.create_array(Worker, charm.n_pes, results)
        cb = CkCallback(proxy=g[0], method="take_result")
        for pe in range(charm.n_pes):
            g[pe].go(pe, "sum", cb)
        charm.run()
        assert results == [sum(range(charm.n_pes))]

    def test_single_pe_collection(self):
        one_gpu = MachineConfig.summit(nodes=1).override(
            "topology.sockets_per_node=1", "topology.gpus_per_socket=1")
        charm = Charm(one_gpu)
        assert charm.n_pes == 1
        results = []
        g = charm.create_array(Worker, charm.n_pes, results)
        g[0].go(42, "sum", CkCallback(fn=results.append))
        charm.run()
        assert results == [42]
