"""Tests for GPUs, streams, kernels, and the CUDA runtime facade."""

import numpy as np
import pytest

from repro.config import MachineConfig, MB
from repro.hardware.cuda import CudaRuntime
from repro.hardware.gpu import Kernel
from repro.hardware.topology import Machine


@pytest.fixture
def rt():
    return CudaRuntime(Machine(MachineConfig.summit(nodes=1)))


class TestStreams:
    def test_stream_serialises_operations(self, rt):
        sim = rt.sim
        s = rt.create_stream(0)
        d = rt.malloc(0, 1 * MB)
        h = rt.malloc_host(0, 1 * MB)
        rt.memcpy_dtoh(h, d, s)
        rt.memcpy_htod(d, h, s)
        first = rt.stream_synchronize(s)
        sim.run()
        # two sequential 1 MB copies over NVLink plus overheads
        topo = rt.machine.cfg.topology
        per_copy = rt.cfg.memcpy_launch_overhead + topo.nvlink.transfer_time(1 * MB)
        assert sim.now == pytest.approx(
            2 * per_copy + rt.cfg.stream_sync_overhead, rel=1e-6
        )
        assert first.triggered

    def test_independent_streams_overlap(self, rt):
        s1, s2 = rt.create_stream(0), rt.create_stream(1)
        d0, d1 = rt.malloc(0, 1 * MB), rt.malloc(1, 1 * MB)
        h = rt.malloc_host(0, 1 * MB)
        h2 = rt.malloc_host(0, 1 * MB)
        rt.memcpy_dtoh(h, d0, s1)
        rt.memcpy_dtoh(h2, d1, s2)
        rt.sim.run()
        topo = rt.machine.cfg.topology
        per_copy = rt.cfg.memcpy_launch_overhead + topo.nvlink.transfer_time(1 * MB)
        assert rt.sim.now == pytest.approx(per_copy, rel=1e-6)

    def test_sync_on_empty_stream_is_cheap(self, rt):
        s = rt.create_stream(0)
        done = rt.stream_synchronize(s)
        rt.sim.run()
        assert done.triggered
        assert rt.sim.now == pytest.approx(rt.cfg.stream_sync_overhead)


class TestMemcpy:
    def test_moves_data(self, rt):
        d = rt.malloc(0, 64)
        h = rt.malloc_host(0, 64)
        h.data[:] = np.arange(64, dtype=np.uint8)
        s = rt.create_stream(0)
        rt.memcpy_htod(d, h, s)
        rt.sim.run()
        assert (d.data == h.data).all()

    def test_direction_validation(self, rt):
        d = rt.malloc(0, 64)
        h = rt.malloc_host(0, 64)
        s = rt.create_stream(0)
        with pytest.raises(ValueError):
            rt.memcpy_dtoh(d, h, s)
        with pytest.raises(ValueError):
            rt.memcpy_htod(h, d, s)

    def test_dtod_between_gpus(self, rt):
        a = rt.malloc(0, 64)
        b = rt.malloc(1, 64)
        a.data[:] = 5
        s = rt.create_stream(0)
        rt.memcpy_async(b, a, s)
        rt.sim.run()
        assert (b.data == 5).all()


class TestKernels:
    def test_memory_bound_duration(self, rt):
        k = Kernel("sweep", bytes_moved=800 * 1024 * 1024)
        assert k.duration(800e9, 7e12) == pytest.approx(800 * 1024 * 1024 / 800e9)

    def test_flop_bound_duration(self, rt):
        k = Kernel("gemm", bytes_moved=1, flops=7_000_000)
        assert k.duration(800e9, 7e12) == pytest.approx(1e-6)

    def test_body_runs_at_completion(self, rt):
        fired = []
        k = Kernel("f", bytes_moved=1024, body=lambda: fired.append(rt.sim.now))
        rt.launch(0, k)
        rt.sim.run()
        assert len(fired) == 1 and fired[0] > 0

    def test_kernels_serialise_on_exec_units_across_streams(self, rt):
        """Memory-bound kernels saturate the device: two streams' kernels
        run back to back, not concurrently."""
        s1, s2 = rt.create_stream(0), rt.create_stream(0)
        dur_bytes = 8 * 1024 * 1024 * 100  # ~1 ms at 800 GB/s
        done = []
        rt.launch(0, Kernel("a", dur_bytes), s1).add_callback(
            lambda _e: done.append(rt.sim.now)
        )
        rt.launch(0, Kernel("b", dur_bytes), s2).add_callback(
            lambda _e: done.append(rt.sim.now)
        )
        rt.sim.run()
        assert done[1] >= 2 * (dur_bytes / (800 * 1024**3))

    def test_kernels_on_different_gpus_overlap(self, rt):
        dur_bytes = 8 * 1024 * 1024 * 100
        done = []
        for g in (0, 1):
            rt.launch(g, Kernel("k", dur_bytes)).add_callback(
                lambda _e: done.append(rt.sim.now)
            )
        rt.sim.run()
        assert done[0] == pytest.approx(done[1])

    def test_launch_counts(self, rt):
        rt.launch(0, Kernel("x", 10))
        rt.launch(0, Kernel("y", 10))
        rt.sim.run()
        assert rt.gpu(0).kernels_launched == 2


class TestIpc:
    def test_first_open_expensive_then_cached(self, rt):
        buf = rt.malloc(0, 1024)
        first = rt.ipc_open_cost(1, buf)
        second = rt.ipc_open_cost(1, buf)
        assert first == rt.cfg.ipc_handle_open_cost
        assert second == rt.cfg.ipc_cached_open_cost
        assert rt.machine.tracer.counters["cuda_ipc.open_new"] == 1
        assert rt.machine.tracer.counters["cuda_ipc.open_cached"] == 1

    def test_cache_is_per_opener(self, rt):
        buf = rt.malloc(0, 1024)
        rt.ipc_open_cost(1, buf)
        assert rt.ipc_open_cost(2, buf) == rt.cfg.ipc_handle_open_cost

    def test_views_share_their_base_allocation(self, rt):
        buf = rt.malloc(0, 1024)
        rt.ipc_open_cost(1, buf.view(0, 512))
        assert rt.ipc_open_cost(1, buf.view(512, 512)) == rt.cfg.ipc_cached_open_cost
        assert rt.ipc_open_cost(1, buf) == rt.cfg.ipc_cached_open_cost

    def test_host_buffer_rejected(self, rt):
        h = rt.malloc_host(0, 64)
        with pytest.raises(ValueError):
            rt.ipc_open_cost(1, h)

    def test_real_free_drops_the_allocation_s_opens(self, rt):
        buf = rt.malloc(0, 1024)
        rt.ipc_open_cost(1, buf)
        rt.ipc_open_cost(2, buf.view(0, 512))
        assert len(rt._ipc_open_cache) == 1
        rt.free(buf)
        assert len(rt._ipc_open_cache) == 0

    @pytest.mark.parametrize("model", ["openmpi", "ampi", "charm4py"])
    def test_open_cache_does_not_grow_with_run_length(self, model):
        """Every shuffle round opens fresh allocations and frees them; the
        cache holds live allocations only, so its length is the same after
        2 and 4 rounds while the open counts double."""
        import repro.api as api
        from repro.apps.shuffle import run_shuffle

        lengths, opens = [], []
        for rounds in (2, 4):
            sess = api.session(MachineConfig.summit(nodes=1)).model(model).build()
            run_shuffle(model, rounds=rounds, chunk=256 * 1024, session=sess)
            lengths.append(len((sess.charm or sess.lib).cuda._ipc_open_cache))
            opens.append(sess.counters["cuda_ipc.open_new"])
        if model == "openmpi":
            assert opens == [60, 120]
        assert opens[1] == 2 * opens[0] > 0, opens
        assert lengths[0] == lengths[1], lengths

    def test_counts_opens_when_open_costs_are_equal(self):
        """Whether an open hit the cache is the cache's answer, not a
        comparison of the two costs: with equal costs an intra-node device
        rendezvous still counts its first opens as new."""
        import repro.api as api
        from repro.apps.osu.runner import run_latency

        cfg = MachineConfig.summit(nodes=1).override(
            "cuda.ipc_handle_open_cost=4e-7")
        assert cfg.cuda.ipc_handle_open_cost == cfg.cuda.ipc_cached_open_cost
        sess = api.session(cfg).model("openmpi").build()
        run_latency("openmpi", 64 * 1024, "intra", True, session=sess,
                    iters=2, skip=1)
        counters = sess.machine.tracer.counters
        assert counters["cuda_ipc.open_new"] == 2
        assert counters["cuda_ipc.open_cached"] == 4


class TestDeviceEventRecord:
    def test_fence_fires_with_stream_position(self):
        from repro.hardware.cuda import CudaRuntime
        from repro.hardware.gpu import DeviceEventRecord
        from repro.hardware.topology import Machine

        m = Machine(MachineConfig.summit(nodes=1))
        rt = CudaRuntime(m)
        s = rt.create_stream(0)
        d = rt.malloc(0, 1024)
        h = rt.malloc_host(0, 1024)
        rt.memcpy_dtoh(h, d, s)
        record = DeviceEventRecord(stream=s, fence=s.drained())
        m.sim.run()
        assert record.fence.triggered
