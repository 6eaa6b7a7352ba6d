"""Additional OSU-suite coverage: sweeps, placements, window sensitivity."""

import pytest

from repro.apps.osu import run_bandwidth, run_latency, run_bandwidth_sweep, run_latency_sweep
from repro.config import KB, MachineConfig, MB


class TestSweeps:
    def test_latency_sweep_returns_all_sizes(self):
        sizes = [8, 1 * KB, 64 * KB]
        out = run_latency_sweep("charm", "intra", True, sizes, iters=4, skip=1)
        assert list(out) == sizes
        assert all(v > 0 for v in out.values())

    def test_bandwidth_sweep_returns_all_sizes(self):
        sizes = [4 * KB, 256 * KB]
        out = run_bandwidth_sweep("openmpi", "inter", True, sizes, loops=2, skip=1,
                                  window=8)
        assert list(out) == sizes

    def test_custom_config_respected(self):
        """A slower NIC must show up in inter-node latency."""
        from dataclasses import replace

        from repro.config import GB, LinkParams

        slow = MachineConfig.summit(nodes=2)
        slow = replace(
            slow,
            topology=replace(slow.topology, nic=LinkParams(0.8e-6, 1 * GB)),
        )
        fast = run_latency("charm", 1 * MB, "inter", True, MachineConfig.summit(nodes=2),
                           iters=3, skip=1)
        slower = run_latency("charm", 1 * MB, "inter", True, slow, iters=3, skip=1)
        assert slower > 3 * fast


class TestWindowSensitivity:
    def test_larger_window_does_not_reduce_bandwidth(self):
        small = run_bandwidth("charm", 256 * KB, "intra", True, loops=2, skip=1,
                              window=4)
        large = run_bandwidth("charm", 256 * KB, "intra", True, loops=2, skip=1,
                              window=32)
        assert large >= small * 0.9

    def test_latency_insensitive_to_iteration_count(self):
        a = run_latency("openmpi", 4 * KB, "intra", True, iters=5, skip=2)
        b = run_latency("openmpi", 4 * KB, "intra", True, iters=20, skip=2)
        assert a == pytest.approx(b, rel=0.02)


class TestPlacementContrast:
    @pytest.mark.parametrize("model", ["charm", "ampi", "openmpi", "charm4py"])
    def test_intra_beats_inter_at_bulk_sizes(self, model):
        intra = run_bandwidth(model, 4 * MB, "intra", True, loops=2, skip=1)
        inter = run_bandwidth(model, 4 * MB, "inter", True, loops=2, skip=1)
        assert intra > 2 * inter  # NVLink vs one EDR rail

    def test_cross_socket_pair_slower_than_same_socket(self):
        """X-Bus adds latency for socket-crossing pairs."""
        import repro.api as api
        from repro.apps.osu.charm_impl import charm_latency

        cfg = MachineConfig.summit(nodes=1)
        same = charm_latency(api.session(cfg).build(), 1 * MB, (0, 1), True,
                             iters=4, skip=1)
        cross = charm_latency(api.session(cfg).build(), 1 * MB, (0, 4), True,
                              iters=4, skip=1)
        assert cross >= same
