"""Tests for AMPI point-to-point semantics and the GPU-aware path."""

import numpy as np
import pytest

from repro.ampi import ANY_SOURCE, ANY_TAG, Ampi
from repro.ampi.mpi import MpiTruncationError
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

    def test_sendrecv(self):
        out = {}

        def program(mpi):
            if mpi.rank > 1:
                return
            other = 1 - mpi.rank
            sb = mpi.charm.cuda.malloc_host(mpi.node, 8)
            rb = mpi.charm.cuda.malloc_host(mpi.node, 8)
            sb.data[:] = mpi.rank + 1
            yield mpi.sendrecv(sb, 8, other, rb, 8, other)
            out[mpi.rank] = int(rb.data[0])

        run_ranks(program)
        assert out == {0: 2, 1: 1}

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
    """A ring exchange through the whole shared rank surface: device buffers
    from ``alloc_device`` over ``isend``/``irecv``/``waitall``, host buffers
    over ``sendrecv``, identity from ``sim``/``charm``/``gpu``/``node``."""
    n = 64
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    t0 = comm.sim.now
    d_send, d_recv = (comm.alloc_device(n) for _ in range(2))
    h_send, h_recv = (comm.charm.cuda.malloc_host(comm.node, n) for _ in range(2))
    d_send.data[:] = comm.rank
    h_send.data[:] = 100 + comm.rank
    yield comm.waitall([comm.irecv(d_recv, n, src=left, tag=1),
                        comm.isend(d_send, n, dst=right, tag=1)])
    yield comm.sendrecv(h_send, n, left, h_recv, n, right, sendtag=2, recvtag=2)
    for buf in (d_send, d_recv):
        comm.free_device(buf)
    out[comm.rank] = (int(d_recv.data[0]), int(h_recv.data[0]),
                      comm.gpu is not None and comm.sim.now > t0)


class TestRankSurface:
    """AMPI's world rank, an AMPI sub-communicator and an OpenMPI rank offer
    one surface around their wire protocols: a rank program written against
    it runs unchanged on all three."""

    @staticmethod
    def _expected(size):
        return {r: ((r - 1) % size, 100 + (r + 1) % size, True) for r in range(size)}

    def test_ampi_world(self):
        out = {}
        _charm, ampi = run_ranks(lambda mpi: _ring_program(mpi, out), nodes=1)
        assert out == self._expected(ampi.n_ranks)

    def test_ampi_comm_split(self):
        outs = {0: {}, 1: {}}

        def program(mpi):
            sub = yield from mpi.comm_split(mpi.rank % 2)
            yield from _ring_program(sub, outs[mpi.rank % 2])

        run_ranks(program, nodes=1)  # 6 ranks: two sub-communicators of 3
        assert outs == {0: self._expected(3), 1: self._expected(3)}

    def test_openmpi(self):
        from repro.openmpi import OpenMpi

        lib = OpenMpi(MachineConfig.summit(nodes=1))
        out = {}
        lib.run_until(lib.launch(lambda mpi: _ring_program(mpi, out)),
                      max_events=5_000_000)
        assert out == self._expected(lib.n_ranks)


class TestIprobeAndCommSplit:
    def test_iprobe(self):
        out = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            if mpi.rank == 0:
                yield mpi.send(buf, 8, dst=1, tag=42)
            elif mpi.rank == 1:
                from repro.sim.primitives import Timeout

                yield Timeout(mpi.sim, 1e-3)  # let the envelope arrive
                flag, st = mpi.iprobe(src=0, tag=42)
                out["flag"] = flag
                out["tag"] = st.tag if st else None
                out["miss"] = mpi.iprobe(src=0, tag=7)[0]
                yield mpi.recv(buf, 8, src=0, tag=42)

        charm = Charm(MachineConfig.summit(nodes=1))
        ampi = Ampi(charm)
        charm.run_until(ampi.launch(program), max_events=5_000_000)
        assert out == {"flag": True, "tag": 42, "miss": False}

    def test_comm_split_even_odd(self):
        out = {}

        def program(mpi):
            sub = yield from mpi.comm_split(color=mpi.rank % 2)
            out[mpi.rank] = (sub.rank, sub.size)
            # ring exchange inside the sub-communicator
            buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            buf.data[:] = mpi.rank
            right = (sub.rank + 1) % sub.size
            left = (sub.rank - 1) % sub.size
            send = sub.isend(buf, 8, dst=right, tag=1)
            rbuf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            st = yield sub.recv(rbuf, 8, src=left, tag=1)
            yield send.event
            # the world rank we heard from has the same parity
            assert int(rbuf.data[0]) % 2 == mpi.rank % 2

        charm = Charm(MachineConfig.summit(nodes=2))
        ampi = Ampi(charm)
        charm.run_until(ampi.launch(program), max_events=20_000_000)
        evens = [r for r in out if r % 2 == 0]
        assert all(out[r][1] == len(evens) for r in evens)
        # local ranks are ordered by world rank
        assert out[0][0] == 0 and out[2][0] == 1

    def test_comm_split_traffic_isolated(self):
        """Same tag on world and sub-communicator must not cross-match."""
        out = {}

        def program(mpi):
            if mpi.rank > 1:
                yield from mpi.comm_split(color=1)
                return
            sub = yield from mpi.comm_split(color=0)
            buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            if mpi.rank == 0:
                buf.data[:] = 1
                yield mpi.send(buf, 8, dst=1, tag=7)  # world
                buf2 = mpi.charm.cuda.malloc_host(mpi.node, 8)
                buf2.data[:] = 2
                yield sub.send(buf2, 8, dst=1, tag=7)  # sub-comm
            else:
                world = mpi.charm.cuda.malloc_host(mpi.node, 8)
                subb = mpi.charm.cuda.malloc_host(mpi.node, 8)
                yield sub.recv(subb, 8, src=0, tag=7)
                yield mpi.recv(world, 8, src=0, tag=7)
                out["sub"] = int(subb.data[0])
                out["world"] = int(world.data[0])

        charm = Charm(MachineConfig.summit(nodes=1))
        ampi = Ampi(charm)
        charm.run_until(ampi.launch(program), max_events=20_000_000)
        assert out == {"sub": 2, "world": 1}
