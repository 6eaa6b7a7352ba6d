"""The redesigned collective API surface.

Covers the :class:`ReduceOp` enum shared by every reduction surface, the
removal of the old free-function shim module (a clean ImportError with a
pointer to the communicator methods), the per-communicator sequence-number
tag namespacing (the fix for overlapping collectives aliasing and for
device collectives leaking into user tag space), and the session facade's
collective knobs/summary.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro.api as api
from repro.ampi.mpi import Ampi
from repro.charm import Charm, Chare, CkCallback
from repro.charm4py.runtime import Charm4py
from repro.collectives import ReduceOp
from repro.config import MachineConfig
from repro.openmpi import OpenMpi

MAX_EVENTS = 20_000_000


def _build(n_ranks=4):
    charm = Charm(MachineConfig.summit(nodes=-(-n_ranks // 6)))
    return charm, Ampi(charm, n_ranks=n_ranks)


def _time(program, n_ranks=4):
    charm, ampi = _build(n_ranks)
    done = ampi.launch(program)
    charm.sim.run_until_complete(done, max_events=MAX_EVENTS)
    return charm.sim.now


class TestReduceOp:
    def test_normalization(self):
        assert ReduceOp.of("sum") is ReduceOp.SUM
        assert ReduceOp.of("MAX") is ReduceOp.MAX
        assert ReduceOp.of(ReduceOp.MIN) is ReduceOp.MIN

    def test_unknown_op_names_valid_set(self):
        with pytest.raises(ValueError, match=r"xor.*max.*min.*prod.*sum"):
            ReduceOp.of("xor")

    def test_combine(self):
        assert ReduceOp.SUM.combine(2, 3) == 5
        assert ReduceOp.PROD.combine(2, 3) == 6
        assert ReduceOp.MAX.combine(2, 3) == 3
        a = np.array([1.0, 5.0])
        assert np.array_equal(ReduceOp.MIN.combine(a, np.array([2.0, 4.0])),
                              np.array([1.0, 4.0]))

    def test_charm_reductions_accept_enum_and_str(self):
        class Elem(Chare):
            def go(self, op, cb):
                self.charm.reductions.contribute(self, 2.0, op, cb)

        for op in ("sum", ReduceOp.SUM):
            results = []
            charm = Charm(MachineConfig.summit(nodes=1))
            group = charm.create_group(Elem)
            group.go(op, CkCallback(fn=results.append))
            charm.run()
            assert results == [2.0 * charm.n_pes]

    def test_charm4py_contribute_surface(self):
        from repro.charm4py.chare import PyChare

        results = []

        class Elem(PyChare):
            def go(self, cb):
                self.c4p.contribute(self, 1.0, ReduceOp.SUM, cb)

        c4p = Charm4py(MachineConfig.summit(nodes=1))
        group = c4p.create_group(Elem)
        group.go(CkCallback(fn=results.append))
        c4p.charm.run()
        assert results == [float(c4p.charm.n_pes)]
        assert c4p.reductions is c4p.charm.reductions


class TestShimModuleRemoved:
    def test_import_raises_with_pointer_to_methods(self):
        # the deprecation window and the tombstone after it are both gone
        with pytest.raises(ImportError):
            importlib.import_module("repro.ampi.collectives")

    def test_method_api_covers_the_old_surface(self):
        def program(rank):
            total = yield from rank.allreduce(rank.rank, op="sum")
            assert total == 6
            buf = rank.charm.cuda.malloc(rank.gpu, 4096)
            yield from rank.allreduce_device(buf, 4096, op="sum")

        _time(program)

    def test_old_positional_signatures_still_work(self):
        def program(rank):
            buf = rank.charm.cuda.malloc(rank.gpu, 64)
            yield from rank.allreduce_device(buf, 64, "sum")
            v = yield from rank.reduce(rank.rank, "max", 0)
            if rank.rank == 0:
                assert v == 3
            yield from rank.barrier()

        _time(program)


class TestTagNamespacing:
    def test_overlapping_gathers_do_not_alias(self):
        # back-to-back gathers share no barrier; with the old fixed tag the
        # root's wildcard receives could swallow the second invocation's
        # sends into the first result
        out = {}

        def program(rank):
            first = yield from rank.gather(("a", rank.rank), root=0)
            second = yield from rank.gather(("b", rank.rank), root=0)
            if rank.rank == 0:
                out["first"], out["second"] = first, second

        _time(program)
        assert out["first"] == [("a", r) for r in range(4)]
        assert out["second"] == [("b", r) for r in range(4)]

    @pytest.mark.parametrize("kind", ["ampi_world", "comm_view", "openmpi"])
    def test_device_collectives_do_not_leak_into_user_tag_space(self, kind):
        # the old device collectives ran on comm=0 with tags below
        # MAX_USER_TAG; a wildcard user receive could swallow them.  Each
        # rank kind sends them on its own collective wire context.
        out = {}

        def body(comm):
            buf = comm.charm.cuda.malloc(comm.gpu, 256)
            req = None
            if comm.rank == 0:
                user = comm.charm.cuda.malloc(comm.gpu, 256)
                req = comm.irecv(user, 256)  # ANY_SOURCE, ANY_TAG
            yield from comm.allreduce_device(buf, 256, op="sum")
            if comm.rank == 1:
                yield comm.send(buf, 256, 0, 42)
            if req is not None:
                status = yield req.event
                out["status"] = status

        if kind == "openmpi":
            lib = OpenMpi(MachineConfig.summit(nodes=1), n_ranks=4)
            lib.run_until(lib.launch(body), max_events=MAX_EVENTS)
        else:
            def program(rank):
                comm = rank
                if kind == "comm_view":
                    comm = yield from rank.comm_split(0)
                yield from body(comm)

            _time(program)
        assert out["status"].source == 1
        assert out["status"].tag == 42

    def test_seq_counters_are_per_communicator(self):
        seqs = {}
        drawn_at_call = []

        def program(rank):
            yield from rank.barrier()
            sub = yield from rank.comm_split(0)
            yield from sub.barrier()
            buf = rank.charm.cuda.malloc(rank.gpu, 256)
            for comm in (rank, sub):
                before = comm._coll_seq
                run = comm.allreduce_device(buf, 256)
                drawn_at_call.append(comm._coll_seq - before)
                yield from run
            seqs[rank.rank] = (rank._coll_seq, sub._coll_seq)

        _time(program)
        # world: barrier + the comm_split allgather + one allreduce_device;
        # sub: its own barrier + one allreduce_device.  Each device call
        # draws its one number when called, before it runs.
        assert drawn_at_call == [1] * 8
        for world_seq, sub_seq in seqs.values():
            assert world_seq == 3
            assert sub_seq == 2


class TestSessionFacade:
    def test_collectives_summary_and_knobs(self):
        sess = (api.session(MachineConfig.summit(nodes=2))
                .model("ampi").ranks(8).trace()
                .set({"collectives.hierarchical_enabled": False})
                .build())
        assert sess.config.collectives.hierarchical_enabled is False

        def program(rank):
            buf = rank.charm.cuda.malloc(rank.gpu, 1 << 20)
            yield from rank.allreduce_device(buf, 1 << 20, algorithm="recdbl")

        sess.run_until(sess.launch(program), max_events=MAX_EVENTS)
        summary = sess.collectives_summary()
        assert summary["invocations"]["allreduce"] == 8
        assert summary["invocations"]["allreduce.recdbl"] == 8
        assert summary["intra_time_us"] > 0
        assert summary["inter_time_us"] > 0
