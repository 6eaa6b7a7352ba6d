"""Tests for AMPI point-to-point semantics and the GPU-aware path."""

import numpy as np
import pytest

import repro.api as api
from repro.ampi import ANY_SOURCE, ANY_TAG, Ampi
from repro.ampi.mpi import MAX_USER_TAG, MpiTruncationError
from repro.charm import Charm
from repro.config import KB, MachineConfig, MB


def run_ranks(program, nodes=2, ranks_per_pe=1, max_events=5_000_000):
    charm = Charm(MachineConfig.summit(nodes=nodes))
    ampi = Ampi(charm, ranks_per_pe=ranks_per_pe)
    done = ampi.launch(program)
    charm.run_until(done, max_events=max_events)
    return charm, ampi


class TestBasicPt2Pt:
    def test_host_eager_roundtrip(self):
        out = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc_host(mpi.node, 64)
            if mpi.rank == 0:
                buf.data[:] = 5
                yield mpi.send(buf, 64, dst=1, tag=7)
            elif mpi.rank == 1:
                status = yield mpi.recv(buf, 64, src=0, tag=7)
                out["status"] = status
                out["ok"] = bool((buf.data == 5).all())

        run_ranks(program)
        assert out["ok"]
        assert out["status"].source == 0
        assert out["status"].tag == 7
        assert out["status"].count == 64

    def test_host_rndv_roundtrip(self):
        out = {}
        size = 256 * KB

        def program(mpi):
            buf = mpi.charm.cuda.malloc_host(mpi.node, size)
            if mpi.rank == 0:
                buf.data[:] = 9
                yield mpi.send(buf, size, dst=1, tag=1)
            elif mpi.rank == 1:
                yield mpi.recv(buf, size, src=0, tag=1)
                out["ok"] = bool((buf.data == 9).all())

        run_ranks(program)
        assert out["ok"]

    def test_device_roundtrip(self):
        out = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc(mpi.gpu, 4 * KB)
            if mpi.rank == 0:
                buf.data[:] = 3
                yield mpi.send(buf, 4 * KB, dst=1, tag=2)
            elif mpi.rank == 1:
                yield mpi.recv(buf, 4 * KB, src=0, tag=2)
                out["ok"] = bool((buf.data == 3).all())

        run_ranks(program)
        assert out["ok"]

    def test_recv_before_send_and_after(self):
        """Both matching scenarios of SIII-C2."""
        out = {"orders": []}

        def program(mpi):
            buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            if mpi.rank == 0:
                # recv posted first (request queue path)
                st = yield mpi.recv(buf, 8, src=1, tag=1)
                out["orders"].append("recv-first")
                yield mpi.send(buf, 8, dst=1, tag=2)
            elif mpi.rank == 1:
                yield mpi.send(buf, 8, dst=0, tag=1)
                # delay so the message parks in the unexpected queue
                from repro.sim.primitives import Timeout

                yield Timeout(mpi.sim, 1e-3)
                st = yield mpi.recv(buf, 8, src=0, tag=2)
                out["orders"].append("unexpected")

        run_ranks(program)
        assert sorted(out["orders"]) == ["recv-first", "unexpected"]

    def test_any_source_any_tag(self):
        out = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            if mpi.rank == 2:
                statuses = []
                for _ in range(2):
                    st = yield mpi.recv(buf, 8, src=ANY_SOURCE, tag=ANY_TAG)
                    statuses.append((st.source, st.tag))
                out["statuses"] = sorted(statuses)
            elif mpi.rank in (0, 1):
                yield mpi.send(buf, 8, dst=2, tag=10 + mpi.rank)

        run_ranks(program)
        assert out["statuses"] == [(0, 10), (1, 11)]

    def test_message_ordering_same_pair(self):
        out = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            if mpi.rank == 0:
                for i in range(6):
                    buf2 = mpi.charm.cuda.malloc_host(mpi.node, 8)
                    buf2.data[:] = i
                    yield mpi.send(buf2, 8, dst=1, tag=4)
            elif mpi.rank == 1:
                got = []
                for _ in range(6):
                    yield mpi.recv(buf, 8, src=0, tag=4)
                    got.append(int(buf.data[0]))
                out["got"] = got

        run_ranks(program)
        assert out["got"] == list(range(6))

    def test_truncation_fails_request(self):
        out = {}

        def program(mpi):
            if mpi.rank == 0:
                big = mpi.charm.cuda.malloc_host(mpi.node, 128)
                yield mpi.send(big, 128, dst=1, tag=1)
            elif mpi.rank == 1:
                small = mpi.charm.cuda.malloc_host(mpi.node, 16)
                try:
                    yield mpi.recv(small, 16, src=0, tag=1)
                except MpiTruncationError:
                    out["truncated"] = True

        run_ranks(program)
        assert out["truncated"]

    def test_isend_irecv_waitall(self):
        out = {}

        def program(mpi):
            if mpi.rank > 1:
                return
            other = 1 - mpi.rank
            bufs = [mpi.charm.cuda.malloc_host(mpi.node, 8) for _ in range(4)]
            reqs = [mpi.irecv(bufs[i], 8, src=other, tag=i) for i in range(2)]
            reqs += [mpi.isend(bufs[2 + i], 8, dst=other, tag=i) for i in range(2)]
            statuses = yield mpi.waitall(reqs)
            out[mpi.rank] = len(statuses)

        run_ranks(program)
        assert out == {0: 4, 1: 4}

    def test_send_larger_than_buffer_rejected(self):
        def program(mpi):
            if mpi.rank == 0:
                buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
                with pytest.raises(ValueError):
                    mpi.send(buf, 16, dst=1)
            return
            yield  # pragma: no cover - makes this a generator

        run_ranks(program)

    def test_bad_destination_rejected(self):
        def program(mpi):
            if mpi.rank == 0:
                buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
                with pytest.raises(ValueError):
                    mpi.send(buf, 8, dst=999)
            return
            yield  # pragma: no cover

        run_ranks(program)


class TestGpuPath:
    def test_mixed_device_to_host_rejected(self):
        out = {}

        def program(mpi):
            if mpi.rank == 0:
                d = mpi.charm.cuda.malloc(mpi.gpu, 64)
                yield mpi.send(d, 64, dst=1, tag=1)
            elif mpi.rank == 1:
                h = mpi.charm.cuda.malloc_host(mpi.node, 64)
                try:
                    yield mpi.recv(h, 64, src=0, tag=1)
                except NotImplementedError:
                    out["raised"] = True

        run_ranks(program)
        assert out["raised"]

    def test_gpu_cache_warms(self):
        caches = {}

        def program(mpi):
            if mpi.rank == 0:
                d = mpi.charm.cuda.malloc(mpi.gpu, 64)
                for i in range(3):
                    yield mpi.send(d, 64, dst=1, tag=i)
                caches["stats"] = (
                    mpi.ampi.gpu_caches[0].hits, mpi.ampi.gpu_caches[0].misses
                )
            elif mpi.rank == 1:
                d = mpi.charm.cuda.malloc(mpi.gpu, 64)
                for i in range(3):
                    yield mpi.recv(d, 64, src=0, tag=i)

        run_ranks(program)
        assert caches["stats"] == (2, 1)

    def test_inter_node_device_large(self):
        out = {}
        size = 8 * MB

        def program(mpi):
            peers = (0, 6)  # different nodes
            if mpi.rank not in peers:
                return
            buf = mpi.charm.cuda.malloc(mpi.gpu, size)
            if mpi.rank == 0:
                buf.data[:] = 123
                yield mpi.send(buf, size, dst=6, tag=1)
            else:
                yield mpi.recv(buf, size, src=0, tag=1)
                out["ok"] = bool((buf.data == 123).all())

        run_ranks(program)
        assert out["ok"]


class TestVirtualization:
    def test_multiple_ranks_per_pe(self):
        out = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            send = mpi.isend(buf, 8, dst=right, tag=0)
            yield mpi.recv(buf, 8, src=left, tag=0)
            yield send.event
            out[mpi.rank] = True

        charm, ampi = run_ranks(program, ranks_per_pe=2)
        assert ampi.n_ranks == 2 * charm.n_pes
        assert len(out) == ampi.n_ranks

    def test_block_mapping(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        ampi = Ampi(charm, ranks_per_pe=2)
        assert ampi.rank_pe(0) == 0 and ampi.rank_pe(1) == 0
        assert ampi.rank_pe(2) == 1


def _ring_program(comm, out):
    """A ring exchange through the whole shared rank surface: device and
    host buffers over ``isend``/``irecv``/``waitall``, device ones from
    ``alloc_device``, identity from ``sim``/``charm``/``gpu``/``node``."""
    n = 64
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    t0 = comm.sim.now
    d_send, d_recv = (comm.alloc_device(n) for _ in range(2))
    h_send, h_recv = (comm.charm.cuda.malloc_host(comm.node, n) for _ in range(2))
    d_send.data[:] = comm.rank
    h_send.data[:] = 100 + comm.rank
    yield comm.waitall([comm.irecv(d_recv, n, src=left, tag=1),
                        comm.isend(d_send, n, dst=right, tag=1)])
    yield comm.waitall([comm.irecv(h_recv, n, src=right, tag=2),
                        comm.isend(h_send, n, dst=left, tag=2)])
    for buf in (d_send, d_recv):
        comm.free_device(buf)
    out[comm.rank] = (int(d_recv.data[0]), int(h_recv.data[0]),
                      comm.gpu is not None and comm.sim.now > t0)


class TestRankSurface:
    """An AMPI rank and an OpenMPI rank offer one surface around their wire
    protocols: a rank program written against it runs unchanged on both."""

    @staticmethod
    def _expected(size):
        return {r: ((r - 1) % size, 100 + (r + 1) % size, True) for r in range(size)}

    def test_ampi_world(self):
        out = {}
        _charm, ampi = run_ranks(lambda mpi: _ring_program(mpi, out), nodes=1)
        assert out == self._expected(ampi.n_ranks)

    def test_openmpi(self):
        sess = api.session(MachineConfig.summit(nodes=1)).model("openmpi").build()
        out = {}
        sess.run_until(sess.launch(lambda mpi: _ring_program(mpi, out)),
                       max_events=5_000_000)
        assert out == self._expected(sess.lib.n_ranks)


@pytest.mark.parametrize("tag", [-5, MAX_USER_TAG, MAX_USER_TAG - 1],
                         ids=["negative", "max", "max_minus_1"])
def test_user_tag_range_is_checked(tag):
    """A user ``send`` takes a tag in ``[0, MAX_USER_TAG)``."""
    accepted = tag == MAX_USER_TAG - 1
    out = {}

    def program(mpi):
        buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
        if mpi.rank == 0:
            if accepted:
                yield mpi.send(buf, 8, 1, tag)
            else:
                with pytest.raises(ValueError):
                    mpi.send(buf, 8, 1, tag)
                out["rejected"] = True
        elif mpi.rank == 1 and accepted:
            status = yield mpi.recv(buf, 8, src=0, tag=tag)
            out["tag"] = status.tag

    run_ranks(program, nodes=1)
    assert out == ({"tag": tag} if accepted else {"rejected": True})

