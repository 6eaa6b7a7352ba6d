"""Functional correctness of the device collectives.

Every registered algorithm is exercised with materialized payloads across
rank counts including non-powers-of-two (the recursive-doubling fold, ring
block splits and tree allgather ranges all have remainder paths), on
single- and multi-node topologies, through the AMPI world communicator,
sub-communicators, and the forced-algorithm / hierarchical-ablation
selection paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ampi.mpi import Ampi
from repro.charm.charm import Charm
from repro.collectives import ReduceOp, available_algorithms
from repro.config import MachineConfig

MAX_EVENTS = 50_000_000
NBYTES = 256  # 32 float64 elements
COUNTS = [2, 3, 5, 7, 12]  # 7 and 12 span two summit nodes


def _build(n_ranks, coll=None):
    nodes = -(-n_ranks // 6)
    cfg = MachineConfig.summit(nodes=nodes)
    if coll:
        cfg = cfg.override({f"collectives.{k}": v for k, v in coll.items()})
    charm = Charm(cfg)
    return charm, Ampi(charm, n_ranks=n_ranks)


def _run(charm, ampi, program):
    done = ampi.launch(program)
    charm.sim.run_until_complete(done, max_events=MAX_EVENTS)


def _dev(rank, nbytes=NBYTES, fill=None):
    buf = rank.charm.cuda.malloc(rank.gpu, nbytes)
    if fill is not None:
        buf.data.reshape(-1).view(np.float64)[:] = fill
    return buf


def _f64(buf):
    return buf.data.reshape(-1).view(np.float64)


class TestFlatAlgorithms:
    @pytest.mark.parametrize("p", COUNTS)
    @pytest.mark.parametrize("algo", ["binomial", "ring"])
    def test_bcast(self, algo, p):
        charm, ampi = _build(p)
        root, out = 1, {}

        def program(rank):
            buf = _dev(rank, fill=100.0 + rank.rank)
            yield from rank.bcast_device(buf, NBYTES, root, algorithm=algo)
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        for r in range(p):
            assert np.all(out[r] == 100.0 + root), (algo, p, r)

    @pytest.mark.parametrize("p", COUNTS)
    @pytest.mark.parametrize("algo", ["binomial", "ring"])
    def test_reduce(self, algo, p):
        charm, ampi = _build(p)
        root, out = p - 1, {}

        def program(rank):
            buf = _dev(rank, fill=float(rank.rank))
            yield from rank.reduce_device(
                buf, NBYTES, op="max", root=root, algorithm=algo
            )
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        assert np.all(out[root] == p - 1), (algo, p)

    @pytest.mark.parametrize("p", COUNTS)
    @pytest.mark.parametrize("algo", ["binomial", "recdbl", "ring"])
    def test_allreduce(self, algo, p):
        charm, ampi = _build(p)
        out = {}

        def program(rank):
            buf = _dev(rank, fill=float(rank.rank + 1))
            yield from rank.allreduce_device(
                buf, NBYTES, op=ReduceOp.SUM, algorithm=algo
            )
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        expect = p * (p + 1) / 2
        for r in range(p):
            assert np.all(out[r] == expect), (algo, p, r)

    @pytest.mark.parametrize("p", COUNTS)
    @pytest.mark.parametrize("algo", ["ring", "tree"])
    def test_allgather(self, algo, p):
        charm, ampi = _build(p)
        out = {}

        def program(rank):
            buf = _dev(rank, fill=float(rank.rank))
            full = yield from rank.allgather_device(buf, NBYTES, algorithm=algo)
            out[rank.rank] = _f64(full).copy()

        _run(charm, ampi, program)
        expect = np.repeat(np.arange(p, dtype=np.float64), NBYTES // 8)
        for r in range(p):
            assert np.array_equal(out[r], expect), (algo, p, r)


class TestHierarchical:
    @pytest.mark.parametrize("p", [7, 12])
    def test_allreduce(self, p):
        charm, ampi = _build(p)
        out = {}

        def program(rank):
            buf = _dev(rank, fill=float(rank.rank + 1))
            yield from rank.allreduce_device(
                buf, NBYTES, op="sum", algorithm="hierarchical"
            )
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        expect = p * (p + 1) / 2
        for r in range(p):
            assert np.all(out[r] == expect), (p, r)

    @pytest.mark.parametrize("p", [7, 12])
    def test_bcast_nonzero_root(self, p):
        charm, ampi = _build(p)
        root, out = p - 1, {}

        def program(rank):
            buf = _dev(rank, fill=float(rank.rank))
            yield from rank.bcast_device(
                buf, NBYTES, root, algorithm="hierarchical"
            )
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        for r in range(p):
            assert np.all(out[r] == root), (p, r)

    @pytest.mark.parametrize("p", [7, 12])
    def test_reduce_nonzero_root(self, p):
        charm, ampi = _build(p)
        root, out = 2, {}

        def program(rank):
            buf = _dev(rank, fill=float(rank.rank))
            yield from rank.reduce_device(
                buf, NBYTES, op="min", root=root, algorithm="hierarchical"
            )
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        assert np.all(out[root] == 0.0), p

    def test_single_node_group_rejected(self):
        charm, ampi = _build(4)
        buf = _dev(ampi.ranks[0])
        with pytest.raises(ValueError, match="does not support"):
            next(ampi.ranks[0].allreduce_device(
                buf, NBYTES, algorithm="hierarchical"
            ))


class TestSelectionSurface:
    def test_registry_contents(self):
        assert available_algorithms("bcast") == ["binomial", "hierarchical", "ring"]
        assert available_algorithms("reduce") == ["binomial", "hierarchical", "ring"]
        assert available_algorithms("allreduce") == [
            "binomial", "hierarchical", "recdbl", "ring",
        ]
        assert available_algorithms("allgather") == ["ring", "tree"]

    def test_unknown_algorithm_lists_available(self):
        charm, ampi = _build(2)
        buf = _dev(ampi.ranks[0])
        with pytest.raises(ValueError, match="available.*binomial"):
            next(ampi.ranks[0].bcast_device(buf, NBYTES, algorithm="quantum"))

    def test_forced_unsupported_rejected(self):
        # ring allreduce needs a non-empty 8B block per rank
        charm, ampi = _build(5)
        buf = _dev(ampi.ranks[0], 16)
        with pytest.raises(ValueError, match="does not support"):
            next(ampi.ranks[0].allreduce_device(buf, 16, algorithm="ring"))

    def test_host_buffer_rejected(self):
        charm, ampi = _build(2)
        host = charm.machine.alloc_host(0, NBYTES)
        with pytest.raises(ValueError, match="device buffer"):
            next(ampi.ranks[0].bcast_device(host, NBYTES))

    def test_non_device_op_rejected(self):
        charm, ampi = _build(2)
        buf = _dev(ampi.ranks[0])
        with pytest.raises(ValueError, match="not 'prod'"):
            next(ampi.ranks[0].reduce_device(buf, NBYTES, op="prod"))
        with pytest.raises(ValueError, match="unknown reduction op"):
            next(ampi.ranks[0].allreduce_device(buf, NBYTES, op="xor"))

    def test_per_call_override_beats_config(self):
        """A per-call ``algorithm=`` is the one way to force a choice; it
        wins over what the cost model would pick."""
        charm, ampi = _build(4)

        def program(rank):
            buf = _dev(rank, fill=1.0)
            yield from rank.allreduce_device(buf, NBYTES, algorithm="binomial")

        _run(charm, ampi, program)
        counters = charm.machine.tracer.counters
        assert counters["coll.allreduce.binomial"] == 4
        assert counters["coll.allreduce"] == 4

    def test_hierarchical_disabled_falls_back_flat(self):
        charm, ampi = _build(12, coll={"hierarchical_enabled": False})

        def program(rank):
            buf = _dev(rank, fill=1.0)
            yield from rank.allreduce_device(buf, NBYTES)

        _run(charm, ampi, program)
        counters = charm.machine.tracer.counters
        assert counters.get("coll.allreduce.hierarchical", 0) == 0
        assert counters["coll.allreduce"] == 12


class TestCommView:
    def test_subcommunicator_device_allreduce(self):
        charm, ampi = _build(12)
        out = {}

        def program(rank):
            sub = yield from rank.comm_split(rank.rank % 3)
            buf = _dev(rank, fill=float(rank.rank))
            yield from sub.allreduce_device(buf, NBYTES, op="sum")
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        for r in range(12):
            expect = sum(x for x in range(12) if x % 3 == r % 3)
            assert np.all(out[r] == expect), r

    def test_subcommunicator_allgather_device(self):
        charm, ampi = _build(6)
        out = {}

        def program(rank):
            sub = yield from rank.comm_split(rank.rank % 2)
            buf = _dev(rank, fill=float(rank.rank))
            full = yield from sub.allgather_device(buf, NBYTES)
            out[rank.rank] = _f64(full).copy()

        _run(charm, ampi, program)
        for r in range(6):
            members = [x for x in range(6) if x % 2 == r % 2]
            expect = np.repeat(np.asarray(members, dtype=np.float64), NBYTES // 8)
            assert np.array_equal(out[r], expect), r


class TestDeviceCollectives:
    def _run(self, program, nodes=2):
        charm = Charm(MachineConfig.summit(nodes=nodes))
        ampi = Ampi(charm)
        done = ampi.launch(program)
        charm.run_until(done, max_events=10_000_000)
        return ampi

    def test_reduce_device_sums_on_gpu(self):
        got = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc(mpi.gpu, 64)
            buf.data.view(np.float64)[:] = float(mpi.rank)
            yield from mpi.reduce_device(buf, 64, "sum", root=0)
            if mpi.rank == 0:
                got["sum"] = buf.data.view(np.float64).copy()

        ampi = self._run(program)
        expect = sum(range(ampi.n_ranks))
        assert (got["sum"] == expect).all()

    def test_allreduce_device_max(self):
        got = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc(mpi.gpu, 32)
            buf.data.view(np.float64)[:] = float(mpi.rank % 4)
            yield from mpi.allreduce_device(buf, 32, "max")
            got[mpi.rank] = buf.data.view(np.float64)[0]

        ampi = self._run(program)
        assert set(got.values()) == {3.0}
        assert len(got) == ampi.n_ranks

    def test_pooled_written_bytes_survive_send_and_allreduce(self):
        ampi, got = Ampi(Charm(MachineConfig.summit(nodes=2).with_pool())), {}

        def program(mpi):
            buf = _dev(mpi, fill=float(mpi.rank + 1))  # a pooled block
            if mpi.rank == 0:
                yield mpi.send(buf, NBYTES, dst=7, tag=3)
            elif mpi.rank == 7:
                recv = _dev(mpi)
                yield mpi.recv(recv, NBYTES, src=0, tag=3)
                got["recv"] = _f64(recv).tolist()
            yield from mpi.allreduce_device(buf, NBYTES, "sum")
            got[mpi.rank] = _f64(buf).tolist()

        _run(ampi.charm, ampi, program)
        p = ampi.n_ranks
        assert ampi.charm.machine.pools and got.pop("recv") == [1.0] * (NBYTES // 8)
        assert got == {r: [p * (p + 1) / 2] * (NBYTES // 8) for r in range(p)}

    def test_reduce_device_rejects_host_buffer(self):
        def program(mpi):
            h = mpi.charm.cuda.malloc_host(mpi.node, 64)
            with pytest.raises(ValueError):
                list(mpi.reduce_device(h, 64, "sum", root=0))
            return
            yield  # pragma: no cover

        self._run(program)

    def test_reduce_device_rejects_unknown_op(self):
        def program(mpi):
            d = mpi.charm.cuda.malloc(mpi.gpu, 64)
            with pytest.raises(ValueError):
                list(mpi.reduce_device(d, 64, "xor", root=0))
            return
            yield  # pragma: no cover

        self._run(program)
