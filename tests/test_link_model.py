"""Tests for link-model refinements: control bypass, rails, pipelined
rendezvous occupancy, and the order in which blocked transfers are woken."""

import random
import sys

import pytest

import repro.hardware.links as links_mod
from repro.config import KB, LinkParams, MachineConfig, MB
from repro.faults import BandwidthWindow, FaultPlan
from repro.faults.injector import FaultInjector
from repro.hardware.links import (
    CTRL_BYPASS_BYTES, Link, Route, _Transfer, path_transfer, path_transfer_time,
)
from repro.hardware.topology import Machine
from repro.sim.engine import Simulator
from repro.ucx.context import UcpContext
from tests.oracles.hook_wake import HookLink, HookTransfer


@pytest.fixture
def machine():
    return Machine(MachineConfig.summit(nodes=2))


class TestControlBypass:
    def test_small_messages_skip_occupancy(self, machine):
        """A control message is not delayed by a bulk transfer holding the
        same links (inline sends on InfiniBand)."""
        sim = machine.sim
        route = machine.route(machine.host_location(0), machine.host_location(1))
        bulk_done = path_transfer(sim, route, 4 * MB)
        ctrl_done = path_transfer(sim, route, 64)
        times = {}
        bulk_done.add_callback(lambda _e: times.setdefault("bulk", sim.now))
        ctrl_done.add_callback(lambda _e: times.setdefault("ctrl", sim.now))
        sim.run()
        assert times["ctrl"] == pytest.approx(path_transfer_time(route, 64))
        assert times["ctrl"] < times["bulk"]

    def test_bypass_threshold(self, machine):
        sim = machine.sim
        route = machine.route(machine.host_location(0), machine.host_location(1))
        path_transfer(sim, route, 4 * MB)  # occupies the rail
        big_ctrl = path_transfer(sim, route, CTRL_BYPASS_BYTES + 1)
        t = {}
        big_ctrl.add_callback(lambda _e: t.setdefault("done", sim.now))
        sim.run()
        # above the threshold: queues behind the bulk transfer
        assert t["done"] > path_transfer_time(route, 4 * MB)

    def test_bypass_still_counts_bytes(self, machine):
        route = machine.route(machine.host_location(0), machine.host_location(1))
        path_transfer(machine.sim, route, 64)
        machine.sim.run()
        assert all(l.bytes_carried == 64 for l in route)


class TestPipelinedOccupancy:
    def test_staged_rndv_leaves_nvlinks_free(self, machine):
        """Inter-node device rendezvous stages through host memory: the bulk
        occupies the NIC rails, not the GPUs' NVLinks, so an intra-node
        transfer on the same GPU proceeds concurrently."""
        ctx = UcpContext(machine)
        wa = ctx.create_worker(0, 0, 0)
        wb = ctx.create_worker(1, 1, 0)
        wc = ctx.create_worker(2, 0, 0)
        size = 4 * MB
        inter_src = machine.alloc_device(0, size)
        inter_dst = machine.alloc_device(6, size)
        wb.tag_recv_nb(inter_dst, size, tag=1)
        wa.tag_send_nb(wa.ep(1), inter_src, size, tag=1)
        # concurrently, gpu0 -> gpu1 intra-node IPC over the same nvlink0.tx
        intra_src = machine.alloc_device(0, size)
        intra_dst = machine.alloc_device(1, size)
        req = wc.tag_recv_nb(intra_dst, size, tag=2)
        wa.tag_send_nb(wa.ep(2), intra_src, size, tag=2)
        machine.sim.run()
        assert req.completed
        # intra transfer finished well before the inter one would have, had
        # the pipeline held nvlink0.tx for its full wire time
        nvlink_time = size / machine.cfg.topology.nvlink.bandwidth
        assert req.completed_at < 3 * nvlink_time + machine.cfg.cuda.ipc_handle_open_cost

    def test_gpudirect_route_does_hold_nvlinks(self):
        from dataclasses import replace

        cfg = MachineConfig.summit(nodes=2)
        cfg = replace(cfg, ucx=replace(cfg.ucx, gpudirect_rdma=True))
        machine = Machine(cfg)
        ctx = UcpContext(machine)
        wa = ctx.create_worker(0, 0, 0)
        wb = ctx.create_worker(1, 1, 0)
        size = 4 * MB
        src = machine.alloc_device(0, size)
        dst = machine.alloc_device(6, size)
        wb.tag_recv_nb(dst, size, tag=1)
        wa.tag_send_nb(wa.ep(1), src, size, tag=1)
        machine.sim.run()
        assert machine.nodes[0].nvlink_tx[0].bytes_carried >= size


class TestRailAffinity:
    def test_sockets_use_distinct_rails(self, machine):
        ctx = UcpContext(machine)
        # gpu 0 (socket 0) and gpu 3 (socket 1) each stream to node 1
        w0 = ctx.create_worker(0, 0, machine.socket_of_gpu(0))
        w3 = ctx.create_worker(3, 0, machine.socket_of_gpu(3))
        w6 = ctx.create_worker(6, 1, 0)
        w9 = ctx.create_worker(9, 1, 1)
        size = 2 * MB
        bufs = {g: machine.alloc_device(g, size) for g in (0, 3, 6, 9)}
        w6.tag_recv_nb(bufs[6], size, tag=1)
        w9.tag_recv_nb(bufs[9], size, tag=2)
        w0.tag_send_nb(w0.ep(6), bufs[0], size, tag=1)
        w3.tag_send_nb(w3.ep(9), bufs[3], size, tag=2)
        machine.sim.run()
        node0 = machine.nodes[0]
        assert node0.nic_tx[0].bytes_carried >= size
        assert node0.nic_tx[1].bytes_carried >= size


class TestContinuationForm:
    """``path_transfer(..., then=...)`` is the one implementation; the event
    form is that with ``event.succeed`` as the continuation.  Both must
    complete at bit-identical times, in every lane of the function."""

    @staticmethod
    def _completion_times(cfg, use_then, plan):
        """Replay ``plan`` — ``(start_delay, route_name, size, extra)`` rows
        — and return each transfer's completion time, in plan order."""
        machine = Machine(cfg)
        sim = machine.sim
        routes = {
            "nic": machine.route(machine.host_location(0), machine.host_location(1)),
            "nvlink": machine.route(machine.device_location(0),
                                    machine.device_location(1)),
            "unrouted": Route([machine.nodes[0].nic_tx[0], machine.nodes[1].nic_rx[0]]),
            "empty": Route([]),
        }
        times = [None] * len(plan)

        def landed(i):
            assert times[i] is None
            times[i] = sim.now

        def start(i, route, size, extra):
            if use_then:
                assert path_transfer(sim, route, size, extra, landed, (i,)) is None
            else:
                path_transfer(sim, route, size, extra).add_callback(
                    lambda _e: landed(i))

        for i, (delay, name, size, extra) in enumerate(plan):
            sim.call_later(delay, start, i, routes[name], size, extra)
        sim.run()
        assert None not in times
        return times, sim.event_count

    PLAN = [
        # a contended NIC rail: three bulk transfers queue, FIFO
        (0.0, "nic", 4 * MB, 0.0),
        (0.0, "nic", 1 * MB, 0.0),
        (1e-6, "nic", 2 * MB, 3e-6),
        # the same links as a route built outside Machine.route
        (2e-6, "unrouted", 1 * MB, 0.0),
        # control-sized: bypasses occupancy, rides ahead of the bulk
        (0.0, "nic", 64, 0.0),
        (1e-6, "nic", CTRL_BYPASS_BYTES, 1e-6),
        # an empty route: latency-free, extra_time only
        (0.0, "empty", 4 * MB, 2e-6),
        (5e-6, "empty", 8, 0.0),
        # an uncontended NVLink pair
        (0.0, "nvlink", 1 * MB, 0.0),
    ]

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "degraded"])
    def test_bit_identical_to_the_event_form(self, faults):
        cfg = MachineConfig.summit(nodes=2)
        if faults:
            # the window opens mid-plan: some transfers sample factor 1.0
            # (memoized hold reused), later ones the degraded bottleneck
            cfg = cfg.with_faults(FaultPlan(
                bandwidth_windows=(BandwidthWindow("n0.nic*", 0.5, t0=1e-6),)))
        by_event, n_event = self._completion_times(cfg, False, self.PLAN)
        by_then, n_then = self._completion_times(cfg, True, self.PLAN)
        assert by_then == by_event  # ==, not approx: bit-identical floats
        assert n_then == n_event  # the continuation adds or drops no event
        if faults:
            clean, _ = self._completion_times(
                MachineConfig.summit(nodes=2), True, self.PLAN)
            assert by_then != clean  # the window really was sampled


# ---------------------------------------------------------------------------
# who is granted next: the parked-transfer wake against the hook-per-waiter
# implementation it replaced (tests/oracles/hook_wake.py)
# ---------------------------------------------------------------------------

class _GrantLog(Simulator):
    """Records every grant: the timer that ends a hold is armed exactly when
    a bulk transfer takes its links, by either implementation."""

    def __init__(self) -> None:
        super().__init__()
        self.grants = []

    def call_later(self, delay, fn, *args):
        xfer = getattr(fn, "__self__", None)
        if isinstance(xfer, _Transfer):
            self.grants.append((self.now, xfer.then_args[0], xfer.blocked_on))
        super().call_later(delay, fn, *args)


class _Telemetry:
    """What ``_Transfer`` asks of ``sim.telemetry``, recorded."""

    def __init__(self) -> None:
        self.acquired = []

    def ambient_category(self) -> str:
        return "test"

    def link_acquired(self, links, size, waited, blocker, category) -> None:
        self.acquired.append((tuple(l.name for l in links), size, waited, blocker))

    def link_released(self, links, size) -> None:
        pass


_LINK_PARAMS = [  # (latency, bandwidth, capacity): L2 takes two at a time
    (1.0e-6, 12.5e9, 1), (0.7e-6, 42.1e9, 1), (0.4e-6, 58.0e9, 2),
    (1.3e-6, 12.5e9, 1), (0.9e-6, 17.0e9, 1), (0.5e-6, 25.0e9, 1),
]


def _random_plan(seed: int):
    """30-200 bulk transfers over random 1-3-link subsets of six links, at
    start times quantized so that many tie and most find a link busy."""
    rng = random.Random(seed)
    rows = []
    for _ in range(rng.randint(30, 200)):
        subset = rng.sample(range(6), rng.randint(1, 3))
        size = rng.choice([CTRL_BYPASS_BYTES + 1, 4 * KB, 64 * KB, 256 * KB,
                           MB, rng.randint(600, 4 * MB)])
        rows.append((rng.randint(0, 60) * 5e-6, subset, size))
    return rows


def _replay(plan, link_cls, degraded: bool, telemetry: bool):
    sim = _GrantLog()
    if telemetry:
        sim.telemetry = _Telemetry()
    if degraded:
        # opens and closes mid-plan: holds are sampled inside and outside it
        sim.fault_injector = FaultInjector(FaultPlan(bandwidth_windows=(
            BandwidthWindow("L[13]", 0.5, t0=40e-6, t1=600e-6),)), None)
    links = [link_cls(sim, LinkParams(lat, bw), f"L{i}", capacity=cap)
             for i, (lat, bw, cap) in enumerate(_LINK_PARAMS)]
    done = [None] * len(plan)

    def landed(i):
        assert done[i] is None
        done[i] = sim.now

    for i, (start, subset, size) in enumerate(plan):
        sim.call_later(start, path_transfer, sim, Route(links[j] for j in subset),
                       size, 0.0, landed, (i,))
    sim.run()
    assert None not in done and all(l.in_use == 0 for l in links)
    return {
        "grants": sim.grants,
        "done": done,
        "events": sim.event_count,
        "links": [(l.total_acquisitions, l.busy_time, l.bytes_carried)
                  for l in links],
        "acquired": sim.telemetry.acquired if telemetry else None,
    }


class TestWakeOrder:
    @pytest.mark.parametrize("telemetry", [False, True], ids=["quiet", "telemetry"])
    @pytest.mark.parametrize("degraded", [False, True], ids=["clean", "degraded"])
    @pytest.mark.parametrize("seed", range(50))
    def test_grants_match_the_hook_wake(self, seed, degraded, telemetry, monkeypatch):
        plan = _random_plan(seed)
        new = _replay(plan, Link, degraded, telemetry)
        monkeypatch.setattr(links_mod, "_Transfer", HookTransfer)
        old = _replay(plan, HookLink, degraded, telemetry)
        # every float compared with ==: same grants at the same instants
        assert new["grants"] == old["grants"]
        assert new["done"] == old["done"]
        assert new["events"] == old["events"]
        assert new["links"] == old["links"]
        assert new["acquired"] == old["acquired"]
        # the plan did contend: some transfer was granted out of plan order
        # after waiting, and under telemetry it knows on which link
        waited = [g for g in new["grants"] if g[0] > plan[g[1]][0]]
        assert waited and [g[1] for g in new["grants"]] != sorted(
            range(len(plan)), key=lambda i: plan[i][0])
        if telemetry:
            assert all(g[2] is not None for g in waited)

    def test_a_release_reexamines_only_what_is_still_parked(self):
        """N transfers parked on one capacity-1 link: the k-th release looks
        at the N-k+1 still parked, starts exactly the oldest, re-parks the
        rest in order — and no ``try_acquire`` frame runs after submission."""

        class CountingLink(Link):
            # under telemetry a failed examination records the blocking
            # link's name, and nothing else here reads it
            name_reads = 0

            @property
            def name(self):
                self.name_reads += 1
                return self._name

            @name.setter
            def name(self, value):
                self._name = value

        class Telemetry(_Telemetry):
            def link_acquired(self, *args) -> None:  # reads no name
                pass

        n = 9
        sim = _GrantLog()
        sim.telemetry = Telemetry()
        link = CountingLink(sim, LinkParams(1e-6, 1e9), "hot")
        frames = 0

        def count(frame, event, _arg):
            nonlocal frames
            if event == "call" and frame.f_code is _Transfer.try_acquire.__code__:
                frames += 1

        finished = []
        sys.setprofile(count)
        try:
            for i in range(n + 1):  # transfer 0 takes the link, 1..n park
                path_transfer(sim, Route([link]), 4 * KB, then=finished.append,
                              then_args=(i,))
            assert frames == n + 1 and link.name_reads == n
            assert [x.then_args[0] for x in link._parked] == list(range(1, n + 1))
            for k in range(1, n + 1):
                reads = link.name_reads
                assert len(link._parked) == n - k + 1
                assert sim.step()  # transfer k-1 finishes: the k-th release
                assert link.name_reads - reads == n - k  # the ones re-parked
                assert [x.then_args[0] for x in link._parked] == list(
                    range(k + 1, n + 1))
                assert sim.grants[-1][1] == k and len(sim.grants) == k + 1
            assert sim.step() and not sim.step()
        finally:
            sys.setprofile(None)
        assert frames == n + 1  # once each, at submission
        assert finished == list(range(n + 1))
        assert link.total_acquisitions == n + 1 and link.in_use == 0
