"""Cross-model parity tests: the same semantics hold in every model."""

import numpy as np
import pytest

import repro.api as api
from repro.charm import Charm, CkCallback, CkDeviceBuffer
from repro.charm4py import Charm4py, PyChare
from repro.config import KB, MachineConfig


class TestCharm4pyReductions:
    """PyChares participate in the Charm++ reduction machinery."""

    class Elem(PyChare):
        def __init__(self, sink):
            self.sink = sink

        def go(self, value, cb):
            self.charm.reductions.contribute(self, value, "sum", cb)

    def test_group_reduction_through_pychares(self):
        c4p = Charm4py(MachineConfig.summit(nodes=1))
        results = []
        g = c4p.create_array(self.Elem, c4p.charm.n_pes, results)
        cb = CkCallback(fn=results.append)
        for pe in range(c4p.charm.n_pes):
            g[pe].go(pe + 1, cb)
        c4p.charm.run()
        assert results == [sum(range(1, c4p.charm.n_pes + 1))]


class TestDataIntegrityParity:
    """An identical payload survives every model's device path bit-for-bit."""

    SIZE = 32 * KB

    def _payload(self):
        return np.random.default_rng(11).integers(
            0, 255, self.SIZE, dtype=np.uint8
        )

    def test_charm_path(self):
        payload = self._payload()
        got = {}

        from repro.charm import Chare

        class Rx(Chare):
            def __init__(self):
                self.buf = self.charm.cuda.malloc(self.gpu, TestDataIntegrityParity.SIZE)

            def take_post(self, posts):
                posts[0].buffer = self.buf

            def take(self, data):
                got["data"] = data.data.copy()

        class Tx(Chare):
            def __init__(self, payload):
                self.buf = self.charm.cuda.malloc(self.gpu, TestDataIntegrityParity.SIZE)
                self.buf.data[:] = payload

            def go(self, peer):
                peer.take(CkDeviceBuffer.wrap(self.buf))

        charm = Charm(MachineConfig.summit(nodes=2))
        tx = charm.create_chare(Tx, 0, payload)
        rx = charm.create_chare(Rx, 9)
        tx.go(rx)
        charm.run()
        assert (got["data"] == payload).all()

    @pytest.mark.parametrize("lib", ["ampi", "openmpi"])
    def test_mpi_paths(self, lib):
        payload = self._payload()
        got = {}
        size = self.SIZE

        def program(mpi):
            buf = mpi.charm.cuda.malloc(mpi.gpu, size)
            if mpi.rank == 0:
                buf.data[:] = payload
                yield mpi.send(buf, size, dst=9, tag=1)
            elif mpi.rank == 9:
                yield mpi.recv(buf, size, src=0, tag=1)
                got["data"] = buf.data.copy()

        sess = api.session(MachineConfig.summit(nodes=2)).model(lib).build()
        sess.run_until(sess.launch(program), max_events=5_000_000)
        assert (got["data"] == payload).all()

    def test_charm4py_path(self):
        payload = self._payload()
        got = {}
        size = self.SIZE

        class Pair(PyChare):
            def __init__(self):
                self.buf = self.c4p.cuda.malloc(self.gpu, size)

            def run(self, partner):
                ch = self.c4p.channel(self, partner)
                if self.thisIndex == 0:
                    self.buf.data[:] = payload
                    yield ch.send(self.buf, size)
                else:
                    yield ch.recv(self.buf, size)
                    got["data"] = self.buf.data.copy()

        c4p = Charm4py(MachineConfig.summit(nodes=2))
        arr = c4p.create_array(Pair, 2, mapping=lambda i: (0, 9)[i])
        arr[0].run(arr[1])
        arr[1].run(arr[0])
        c4p.charm.run(max_events=2_000_000)
        assert (got["data"] == payload).all()


class TestCapacityAndErrors:
    def test_gpu_oom_through_charm_allocation(self):
        from repro.hardware.memory import OutOfMemory

        charm = Charm(MachineConfig.summit(nodes=1))
        cap = charm.cfg.topology.gpu_memory_capacity
        charm.cuda.malloc(0, cap - 100)
        with pytest.raises(OutOfMemory):
            charm.cuda.malloc(0, 4096)

    def test_free_returns_capacity_to_jacobi_scale(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        cap = charm.cfg.topology.gpu_memory_capacity
        big = charm.cuda.malloc(0, cap // 2)
        charm.cuda.free(big)
        charm.cuda.malloc(0, cap // 2 + 1024)  # fits again

    def test_jacobi_paper_scale_fits_v100(self):
        """The weak-scaling base block (1536^3/6 doubles, two fields + face
        buffers) must fit a 16 GB V100 — as it did on Summit."""
        from repro.apps.jacobi3d.common import BlockState
        from repro.apps.jacobi3d.decomposition import Decomposition
        from repro.hardware.cuda import CudaRuntime
        from repro.hardware.topology import Machine

        m = Machine(MachineConfig.summit(nodes=1))
        cuda = CudaRuntime(m)
        decomp = Decomposition.create((1536, 1536, 1536), 6)
        BlockState(cuda, 0, decomp, 0, functional=False)  # must not OOM
        used = m.allocators[0].used
        assert used < m.cfg.topology.gpu_memory_capacity
        assert used > 2 * decomp.cells_per_block * 8  # two fields


class TestPeerRange:
    """An MPI rank of either library rejects a peer outside ``[0, size)``
    when called: not later, from inside the engine, and not as a drained
    agenda with the receive still waiting."""

    @pytest.mark.parametrize("call", ["send_to_size", "send_to_minus_1",
                                      "recv_from_size"])
    @pytest.mark.parametrize("model", ["ampi", "openmpi"])
    def test_out_of_range_peer_raises_at_the_call(self, model, call):
        sess = api.session(MachineConfig.summit(nodes=1)).model(model).build()
        rank = sess.lib.ranks[0]
        buf = sess.machine.alloc_host(rank.node, 8)
        pending = sess.sim.pending_events
        with pytest.raises(ValueError, match="out of range"):
            if call == "recv_from_size":
                rank.recv(buf, 8, src=rank.size)
            else:
                rank.send(buf, 8, dst=rank.size if call == "send_to_size" else -1)
        assert sess.sim.pending_events == pending  # nothing was put in flight
