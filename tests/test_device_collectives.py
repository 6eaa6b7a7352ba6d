"""Functional correctness of the device allreduce.

Every registered algorithm, and the binomial trees the hierarchy's node
phases run, is exercised with materialized payloads across rank counts
including non-powers-of-two (the recursive-doubling fold and odd binomial
trees have remainder paths), on single- and multi-node topologies, through
the AMPI world communicator, sub-communicators, and the forced-algorithm /
hierarchical-ablation selection paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ampi.mpi import Ampi
from repro.charm.charm import Charm
from repro.collectives import ReduceOp, available_algorithms
from repro.collectives.algorithms import binomial_bcast, binomial_reduce
from repro.collectives.engine import CollContext
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
    # the binomial trees rooted at rank 0: halves of the binomial allreduce
    # and the node phases of the hierarchical one, run here on their own
    @pytest.mark.parametrize("p", COUNTS)
    @pytest.mark.parametrize("algo", ["binomial"])
    def test_bcast(self, algo, p):
        charm, ampi = _build(p)
        out = {}

        def program(rank):
            buf = _dev(rank, fill=100.0 + rank.rank)
            ctx = CollContext(rank, rank._next_coll_seq(), algo)
            yield from binomial_bcast(ctx, buf, NBYTES)
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        for r in range(p):
            assert np.all(out[r] == 100.0), (algo, p, r)

    @pytest.mark.parametrize("p", COUNTS)
    @pytest.mark.parametrize("algo", ["binomial"])
    def test_reduce(self, algo, p):
        charm, ampi = _build(p)
        out = {}

        def program(rank):
            buf = _dev(rank, fill=float(rank.rank))
            ctx = CollContext(rank, rank._next_coll_seq(), algo)
            yield from binomial_reduce(ctx, buf, NBYTES, ReduceOp.MAX)
            out[rank.rank] = _f64(buf).copy()

        _run(charm, ampi, program)
        assert np.all(out[0] == p - 1), (algo, p)

    @pytest.mark.parametrize("p", COUNTS)
    @pytest.mark.parametrize("algo", ["binomial", "recdbl"])
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

    def test_single_node_group_rejected(self):
        charm, ampi = _build(4)
        buf = _dev(ampi.ranks[0])
        with pytest.raises(ValueError, match="does not support"):
            next(ampi.ranks[0].allreduce_device(
                buf, NBYTES, algorithm="hierarchical"
            ))


class TestSelectionSurface:
    def test_registry_contents(self):
        assert available_algorithms() == ["binomial", "hierarchical", "recdbl"]

    def test_unknown_algorithm_lists_available(self):
        charm, ampi = _build(2)
        buf = _dev(ampi.ranks[0])
        with pytest.raises(ValueError, match="available.*binomial"):
            next(ampi.ranks[0].allreduce_device(buf, NBYTES, algorithm="quantum"))

    def test_host_buffer_rejected(self):
        charm, ampi = _build(2)
        host = charm.machine.alloc_host(0, NBYTES)
        with pytest.raises(ValueError, match="device buffer"):
            next(ampi.ranks[0].allreduce_device(host, NBYTES))

    def test_non_device_op_rejected(self):
        charm, ampi = _build(2)
        buf = _dev(ampi.ranks[0])
        with pytest.raises(ValueError, match="not 'prod'"):
            next(ampi.ranks[0].allreduce_device(buf, NBYTES, op="prod"))
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


class TestDeviceCollectives:
    def _run(self, program, nodes=2):
        charm = Charm(MachineConfig.summit(nodes=nodes))
        ampi = Ampi(charm)
        done = ampi.launch(program)
        charm.run_until(done, max_events=10_000_000)
        return ampi

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

    def test_allreduce_device_rejects_unknown_op(self):
        def program(mpi):
            d = mpi.charm.cuda.malloc(mpi.gpu, 64)
            with pytest.raises(ValueError):
                list(mpi.allreduce_device(d, 64, "xor"))
            return
            yield  # pragma: no cover

        self._run(program)
