"""Tests for the beyond-the-paper extensions: probe/cancel,
device collectives, sub-communicators, load balancing."""

import numpy as np
import pytest

from repro.ampi import Ampi
from repro.charm import Charm, Chare
from repro.config import MachineConfig
from repro.hardware.topology import Machine
from repro.ucx.context import UcpContext
from repro.ucx.status import UcsStatus


def make_workers(nodes=1):
    m = Machine(MachineConfig.summit(nodes=nodes))
    ctx = UcpContext(m)
    wa = ctx.create_worker(0, 0, 0)
    wb = ctx.create_worker(1, 0, 0)
    return m, wa, wb


class TestProbeCancel:
    def test_probe_sees_unexpected_without_consuming(self):
        m, wa, wb = make_workers()
        src = m.alloc_host(0, 64)
        wa.tag_send_nb(wa.ep(1), src, 64, tag=5)
        m.sim.run()
        assert wb.tag_probe_nb(5) == (5, 64)
        assert wb.tag_probe_nb(6) is None
        assert len(wb.unexpected) == 1  # still there

    def test_cancel_posted_receive(self):
        m, wa, wb = make_workers()
        dst = m.alloc_host(0, 64)
        req = wb.tag_recv_nb(dst, 64, tag=9)
        assert wb.cancel(req)
        assert req.status is UcsStatus.ERR_CANCELED
        assert not wb.posted

    def test_cancel_completed_request_fails(self):
        m, wa, wb = make_workers()
        src, dst = m.alloc_host(0, 8), m.alloc_host(0, 8)
        req = wb.tag_recv_nb(dst, 8, tag=1)
        wa.tag_send_nb(wa.ep(1), src, 8, tag=1)
        m.sim.run()
        assert not wb.cancel(req)


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


class TestLoadBalancing:
    class Worker(Chare):
        def __init__(self):
            pass

        def spin(self, cost):
            self.charm.charge_current_pe(cost)

    def test_greedy_rebalance_spreads_load(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        # 12 chares all piled onto PE 0 with varying loads
        arr = charm.create_array(self.Worker, 12, mapping=lambda i: 0)
        for i in range(12):
            arr[i].spin((i + 1) * 1e-6)
        charm.run()
        moves = charm.rebalance_greedy()
        assert moves  # something moved
        pes = {charm.chare_pe[arr[i].chare_id] for i in range(12)}
        assert len(pes) == charm.n_pes  # spread over every PE

    def test_rebalance_balances_measured_load(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        arr = charm.create_array(self.Worker, 12, mapping=lambda i: i % 2)
        for i in range(12):
            arr[i].spin(1e-6)
        charm.run()
        charm.rebalance_greedy()
        loads = {pe: 0.0 for pe in range(charm.n_pes)}
        for i in range(12):
            cid = arr[i].chare_id
            loads[charm.chare_pe[cid]] += charm.chares[cid]._load
        assert max(loads.values()) <= 2 * (sum(loads.values()) / charm.n_pes) + 1e-12

    def test_groups_do_not_migrate(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        g = charm.create_group(self.Worker)
        charm.rebalance_greedy()
        for pe in range(charm.n_pes):
            assert charm.chare_pe[g[pe].chare_id] == pe

    def test_messages_follow_after_rebalance(self):
        log = []

        class Logger(Chare):
            def __init__(self):
                pass

            def spin(self, cost):
                self.charm.charge_current_pe(cost)

            def note(self):
                log.append(self.pe)

        charm = Charm(MachineConfig.summit(nodes=1))
        arr = charm.create_array(Logger, 6, mapping=lambda i: 0)
        for i in range(6):
            arr[i].spin(1e-6)
        charm.run()
        charm.rebalance_greedy()
        for i in range(6):
            arr[i].note()
        charm.run()
        assert sorted(log) == sorted(
            charm.chare_pe[arr[i].chare_id] for i in range(6)
        )
