"""Tests for the machine topology, routing, and link transfers."""

import pytest

from repro.config import MachineConfig, MB
from repro.hardware.links import (
    Route,
    path_bottleneck,
    path_latency,
    path_transfer,
    path_transfer_time,
)
from repro.hardware.memory import MemoryKind
from repro.hardware.topology import Machine


@pytest.fixture
def machine():
    return Machine(MachineConfig.summit(nodes=2))


class TestIndexing:
    def test_node_of_gpu(self, machine):
        assert machine.node_of_gpu(0) == 0
        assert machine.node_of_gpu(5) == 0
        assert machine.node_of_gpu(6) == 1

    def test_socket_of_gpu(self, machine):
        assert machine.socket_of_gpu(0) == 0
        assert machine.socket_of_gpu(2) == 0
        assert machine.socket_of_gpu(3) == 1
        assert machine.socket_of_gpu(9) == 1  # gpu 3 of node 1

    def test_total_gpus(self, machine):
        assert machine.cfg.topology.total_gpus == 12


class TestRouting:
    def _names(self, machine, src, dst):
        return [l.name for l in machine.route(src, dst)]

    def test_same_gpu_uses_hbm(self, machine):
        loc = machine.device_location(2)
        assert self._names(machine, loc, loc) == ["n0.hbm2"]

    def test_same_socket_gpu_pair(self, machine):
        names = self._names(
            machine, machine.device_location(0), machine.device_location(1)
        )
        assert names == ["n0.nvlink0.tx", "n0.nvlink1.rx"]

    def test_cross_socket_traverses_xbus(self, machine):
        names = self._names(
            machine, machine.device_location(0), machine.device_location(4)
        )
        assert names == ["n0.nvlink0.tx", "n0.xbus.d0", "n0.nvlink4.rx"]

    def test_xbus_direction_depends_on_sockets(self, machine):
        back = self._names(
            machine, machine.device_location(4), machine.device_location(0)
        )
        assert "n0.xbus.d1" in back

    def test_gpu_to_host_same_node(self, machine):
        names = self._names(
            machine, machine.device_location(1), machine.host_location(0)
        )
        assert names == ["n0.nvlink1.tx"]

    def test_host_to_host_same_node(self, machine):
        names = self._names(
            machine, machine.host_location(0), machine.host_location(0, socket=1)
        )
        assert names == ["n0.hostmem"]

    def test_inter_node_device_route(self, machine):
        names = self._names(
            machine, machine.device_location(0), machine.device_location(6)
        )
        assert names == [
            "n0.nvlink0.tx", "n0.nic0.tx", "n1.nic0.rx", "n1.nvlink0.rx"
        ]

    def test_rail_follows_socket(self, machine):
        # gpu 3 is on socket 1 -> rail 1
        names = self._names(
            machine, machine.device_location(3), machine.device_location(6)
        )
        assert "n0.nic1.tx" in names and "n1.nic0.rx" in names

    def test_host_rail_follows_socket_hint(self, machine):
        names = self._names(
            machine, machine.host_location(0, socket=1), machine.host_location(1)
        )
        assert "n0.nic1.tx" in names

    def test_route_bandwidths(self, machine):
        topo = machine.cfg.topology
        route = machine.route(machine.device_location(0), machine.device_location(6))
        assert path_bottleneck(route) == topo.nic.bandwidth
        assert path_latency(route) == pytest.approx(
            2 * topo.nvlink.latency + 2 * topo.nic.latency
        )


class TestAllocation:
    def test_large_buffers_virtual(self, machine):
        buf = machine.alloc_device(0, 64 * MB)
        assert buf.is_virtual

    def test_device_capacity_enforced(self, machine):
        from repro.hardware.memory import OutOfMemory

        cap = machine.cfg.topology.gpu_memory_capacity
        machine.alloc_device(3, cap - 1024)
        with pytest.raises(OutOfMemory):
            machine.alloc_device(3, 2048)


class TestPathTransfer:
    def test_uncontended_time(self, machine):
        route = machine.route(machine.device_location(0), machine.device_location(1))
        size = 1 * MB
        expect = path_transfer_time(route, size)
        done = path_transfer(machine.sim, route, size)
        machine.sim.run()
        assert done.triggered
        assert machine.sim.now == pytest.approx(expect)

    def test_contention_serialises_on_shared_link(self, machine):
        route = machine.route(machine.device_location(0), machine.device_location(1))
        size = 1 * MB
        t1 = path_transfer(machine.sim, route, size)
        t2 = path_transfer(machine.sim, route, size)
        machine.sim.run()
        assert machine.sim.now == pytest.approx(2 * path_transfer_time(route, size))
        assert t1.triggered and t2.triggered

    def test_disjoint_paths_parallel(self, machine):
        r1 = machine.route(machine.device_location(0), machine.device_location(1))
        r2 = machine.route(machine.device_location(2), machine.device_location(5))
        size = 1 * MB
        path_transfer(machine.sim, r1, size)
        path_transfer(machine.sim, r2, size)
        machine.sim.run()
        assert machine.sim.now == pytest.approx(
            max(path_transfer_time(r1, size), path_transfer_time(r2, size))
        )

    def test_waiting_transfer_does_not_convoy_unrelated(self, machine):
        """A transfer queued behind an incast hotspot must not block traffic
        that shares only its *source* link while it waits (atomicity)."""
        sim = machine.sim
        into_b = machine.route(machine.device_location(0), machine.device_location(1))
        also_into_b = machine.route(machine.device_location(2), machine.device_location(1))
        unrelated = machine.route(machine.device_location(2), machine.device_location(5))
        size = 4 * MB
        path_transfer(sim, into_b, size)          # occupies nvlink1.rx
        path_transfer(sim, also_into_b, size)     # waits for nvlink1.rx
        t3 = path_transfer(sim, unrelated, size)  # shares nvlink2.tx with #2
        finish = {}
        t3.add_callback(lambda _e: finish.setdefault("t3", sim.now))
        sim.run()
        # the unrelated transfer completed in one uncontended pass
        assert finish["t3"] == pytest.approx(path_transfer_time(unrelated, size))

    def test_empty_path_is_pure_delay(self, machine):
        done = path_transfer(machine.sim, Route([]), 1024, extra_time=1.5e-6)
        machine.sim.run()
        assert done.triggered and machine.sim.now == pytest.approx(1.5e-6)

    def test_bytes_accounted(self):
        """The transfer's bytes are granted its route's links, in acquisition
        order (the telemetry record's grant row)."""
        machine = Machine(MachineConfig.summit(nodes=2).override("telemetry=true"))
        route = machine.route(machine.device_location(0), machine.device_location(1))
        path_transfer(machine.sim, route, 999)
        machine.sim.run()
        grants = [(row[2], row[3]) for row in machine.tracer.timeline.rows
                  if row[0] == "grant"]
        assert grants == [(route.ordered, 999)]
