"""The redesigned collective API surface.

Covers the :class:`ReduceOp` enum shared by every reduction surface, the
removal of the old free-function shim module (a clean ImportError with a
pointer to the rank methods), the per-rank sequence-number tag namespacing
(the fix for overlapping collectives aliasing and for device collectives
leaking into user tag space), and the session facade's collective
knobs/summary.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro.api as api
from repro.ampi.mpi import Ampi
from repro.charm import Charm, Chare, CkCallback
from repro.collectives import ReduceOp
from repro.config import MachineConfig

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
            group = charm.create_array(Elem, charm.n_pes)
            group.go(op, CkCallback(fn=results.append))
            charm.run()
            assert results == [2.0 * charm.n_pes]


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
            v = yield from rank.allreduce(rank.rank, "max")
            assert v == 3
            v = yield from rank.gather(rank.rank, 0)
            if rank.rank == 0:
                assert v == [0, 1, 2, 3]

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

    def test_device_collectives_do_not_leak_into_user_tag_space(self):
        # the old device collectives ran on comm=0 with tags below
        # MAX_USER_TAG; a wildcard user receive could swallow them.  They
        # travel on the collective wire context instead.
        out = {}

        def program(rank):
            buf = rank.charm.cuda.malloc(rank.gpu, 256)
            req = None
            if rank.rank == 0:
                user = rank.charm.cuda.malloc(rank.gpu, 256)
                req = rank.irecv(user, 256)  # ANY_SOURCE, ANY_TAG
            yield from rank.allreduce_device(buf, 256, op="sum")
            if rank.rank == 1:
                yield rank.send(buf, 256, 0, 42)
            if req is not None:
                out["status"] = yield req.event

        _time(program)
        assert out["status"].source == 1
        assert out["status"].tag == 42

    def test_each_collective_draws_one_seq_number_when_called(self):
        seqs = {}
        drawn_at_call = []

        def program(rank):
            yield from rank.gather(rank.rank)
            buf = rank.charm.cuda.malloc(rank.gpu, 256)
            before = rank._coll_seq
            run = rank.allreduce_device(buf, 256)
            drawn_at_call.append(rank._coll_seq - before)
            yield from run
            seqs[rank.rank] = rank._coll_seq

        _time(program)
        # the gather and the allreduce_device; the device call draws its
        # one number when called, before it runs
        assert drawn_at_call == [1] * 4
        assert set(seqs.values()) == {2}


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
