"""Node and machine topology: the simulated Summit.

Builds the link graph of an AC922 cluster and resolves routes between
buffer locations.  Routes are memoized :class:`~repro.hardware.links.Route`
sequences of :class:`~repro.hardware.links.Link` objects; protocol code
composes them (e.g. the pipelined inter-node device rendezvous stages
through host memory and therefore uses the NVLink route and the NIC route
separately rather than one end-to-end route).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import MachineConfig
from repro.hardware.links import Link, Route
from repro.hardware.memory import (
    Buffer,
    DeviceAllocator,
    MemoryKind,
    OutOfMemory,
    PooledAllocator,
    RecordingPool,
    host_buffer,
)
from repro.obs.tracing import Tracer
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class Location:
    """Where a buffer lives: host memory of a node, or one GPU's memory.

    ``socket`` is a routing hint for host locations: inter-node traffic
    leaves/enters through the NIC rail of that socket (socket-affine HCA
    binding).  Device locations derive their socket from the GPU.

    :class:`Machine` interns one instance per place and numbers it:
    ``ident`` (its index in interning order) is what the route memo is keyed
    by, and ``on_device`` and the hash are computed once.
    """

    node: int
    kind: MemoryKind
    device: Optional[int] = None  # global GPU index for DEVICE locations
    socket: int = 0
    ident: int = field(default=-1, compare=False, repr=False)
    on_device: bool = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "on_device", self.kind is MemoryKind.DEVICE)
        object.__setattr__(
            self, "_hash", hash((self.node, self.kind, self.device, self.socket)))

    def __hash__(self) -> int:
        return self._hash


class Node:
    """One AC922 node: 2 sockets x 3 GPUs, X-Bus, one EDR NIC.

    Physical links are full duplex, so each is modelled as a *pair* of
    directional :class:`Link` resources: ``*_tx`` carries traffic leaving the
    component, ``*_rx`` traffic entering it.  Bidirectional halo exchanges in
    Jacobi3D therefore run at full rate both ways, as on the real machine.
    """

    def __init__(self, machine: "Machine", index: int) -> None:
        cfg = machine.cfg.topology
        sim = machine.sim
        self.machine = machine
        self.index = index
        self.nvlink_tx: List[Link] = [
            Link(sim, cfg.nvlink, name=f"n{index}.nvlink{g}.tx")
            for g in range(cfg.gpus_per_node)
        ]
        self.nvlink_rx: List[Link] = [
            Link(sim, cfg.nvlink, name=f"n{index}.nvlink{g}.rx")
            for g in range(cfg.gpus_per_node)
        ]
        # X-Bus directions: [0] socket0->socket1, [1] socket1->socket0
        self.xbus_dir: List[Link] = [
            Link(sim, cfg.xbus, name=f"n{index}.xbus.d{d}") for d in range(2)
        ]
        # Dual-rail EDR InfiniBand: one rail per socket (socket-affine HCA
        # binding, as on Summit).  A single process pair therefore sees one
        # rail's bandwidth; a full node drives both.
        self.nic_tx: List[Link] = [
            Link(sim, cfg.nic, name=f"n{index}.nic{r}.tx") for r in range(cfg.nic_rails)
        ]
        self.nic_rx: List[Link] = [
            Link(sim, cfg.nic, name=f"n{index}.nic{r}.rx") for r in range(cfg.nic_rails)
        ]
        self.host_mem = Link(
            sim, cfg.host_mem, name=f"n{index}.hostmem", capacity=cfg.host_mem_channels
        )
        # Secondary NVLink bricks (multirail only): each V100 drives more
        # than one brick per neighbour, but the seed's collapsed single-rail
        # model leaves the extras idle.  The rail planner routes the striped
        # protocols' second intra-node path over these — down to host memory
        # and up the peer's secondary brick (the CPU-staged sideband of the
        # multi-path CUDA-graphs paper).  Built only when multirail is
        # enabled so disabled configs construct the exact seed link graph.
        self.nvlink_alt_tx: List[Link] = []
        self.nvlink_alt_rx: List[Link] = []
        if machine.cfg.multirail.enabled:
            self.nvlink_alt_tx = [
                Link(sim, cfg.nvlink, name=f"n{index}.nvlalt{g}.tx")
                for g in range(cfg.gpus_per_node)
            ]
            self.nvlink_alt_rx = [
                Link(sim, cfg.nvlink, name=f"n{index}.nvlalt{g}.rx")
                for g in range(cfg.gpus_per_node)
            ]
        # per-GPU HBM channel for same-device copies (capacity 2: copy engines)
        self.hbm: List[Link] = [
            Link(sim, cfg.device_mem, name=f"n{index}.hbm{g}", capacity=2)
            for g in range(cfg.gpus_per_node)
        ]

    def xbus(self, from_socket: int, to_socket: int) -> Link:
        return self.xbus_dir[0] if from_socket < to_socket else self.xbus_dir[1]


class Machine:
    """The whole simulated cluster plus its clock and tracer."""

    def __init__(self, cfg: MachineConfig) -> None:
        self.cfg = cfg
        self.sim = Simulator()
        self.tracer = Tracer(self.sim, enabled=cfg.trace, flight=cfg.flight,
                             telemetry=cfg.telemetry)
        topo = cfg.topology
        #: by global GPU index: the GPU's index on its node, and its socket
        self.gpu_local: List[int] = [g % topo.gpus_per_node
                                     for g in range(topo.total_gpus)]
        self.gpu_socket: List[int] = [g // topo.gpus_per_socket
                                      for g in self.gpu_local]
        self.nodes: List[Node] = [Node(self, n) for n in range(topo.nodes)]
        self.allocators: Dict[int, DeviceAllocator] = {
            g: DeviceAllocator(topo.gpu_memory_capacity, g, self.node_of_gpu(g))
            for g in range(topo.total_gpus)
        }
        self._error_notifiers: List = []
        # Pooled allocation (MemoryConfig.allocator == "pool"): one slab
        # pool per GPU in front of the bump allocator.  The direct path is
        # untouched when pooling is off — byte-identical to the seed.
        # With telemetry on, the Tracer has set sim.telemetry to its record
        # (repro.obs.timeline): the engine and links.py append rows to it
        # through the simulator handle, like the fault injector's, and so
        # does each pool, a RecordingPool.  Disabled runs keep
        # sim.telemetry = None: one None-check per transfer and per event.
        self.pools: Dict[int, PooledAllocator] = {}
        if cfg.memory.pooled:
            record = self.sim.telemetry
            self.pools = {
                g: PooledAllocator(self.allocators[g], cfg.memory,
                                   count=self.tracer.count)
                if record is None else
                RecordingPool(self.allocators[g], cfg.memory,
                              self.tracer.count, record)
                for g in range(topo.total_gpus)
            }
        self._route_cache: Dict[tuple, Route] = {}  # (src, dst) idents
        self._locations: Dict[tuple, Location] = {}  # (node, device, socket)
        # Multi-path transfer planning (repro.hardware.rails): enumerates
        # disjoint link paths per (src, dst) pair for the striped protocols.
        # Constructed lazily-cheap either way; consulted only when
        # cfg.multirail.enabled.
        from repro.hardware.rails import RailPlanner

        self.rail_planner = RailPlanner(self)
        # Fault injection: built only for non-empty plans, so empty-plan
        # runs take the exact code paths (and event schedule) of plain runs.
        self.fault_injector = None
        if cfg.faults is not None and not cfg.faults.empty:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(cfg.faults, self.tracer)
            # links.py reaches the injector through the simulator handle to
            # avoid a hardware-internal import cycle
            self.sim.fault_injector = self.fault_injector

    # -- indexing -------------------------------------------------------------
    def node_of_gpu(self, gpu: int) -> int:
        return gpu // self.cfg.topology.gpus_per_node

    def local_gpu(self, gpu: int) -> int:
        return self.gpu_local[gpu]

    def socket_of_gpu(self, gpu: int) -> int:
        return self.gpu_socket[gpu]

    def location_of(self, buf: Buffer) -> Location:
        return (self._locations.get((buf.node, buf.device, 0))
                or self._location(buf.node, buf.device))

    def staging_location(self, buf: Buffer) -> Location:
        """Host memory on ``buf``'s socket for a device buffer (where a
        pipelined transfer stages it), else ``buf``'s own location."""
        key = (buf.node, None, self.gpu_socket[buf.device] if buf.on_device else 0)
        return self._locations.get(key) or self._location(*key)

    def _location(self, node: int, device: Optional[int], socket: int = 0) -> Location:
        """The interned location: ``device`` is ``None`` for host memory."""
        key = (node, device, socket)
        loc = self._locations.get(key)
        if loc is None:
            kind = MemoryKind.HOST if device is None else MemoryKind.DEVICE
            loc = self._locations[key] = Location(
                node, kind, device, socket, len(self._locations))
        return loc

    # -- allocation -------------------------------------------------------------
    def alloc_device(self, gpu: int, size: int) -> Buffer:
        """Allocate ``size`` bytes on ``gpu`` (bytes built on first touch).

        With pooling enabled the request is served from the GPU's slab pool
        (the returned buffer may be a size-class block larger than ``size``,
        whose bytes are a slice of its slab's).
        Exhaustion at either layer raises :class:`OutOfMemory` after
        notifying the registered error handlers — the runtimes surface it
        through their comm-error paths like any other transport fault."""
        pool = self.pools.get(gpu)
        try:
            if pool is not None:
                return pool.alloc(size)
            return self.allocators[gpu].alloc(size)
        except OutOfMemory as exc:
            self.tracer.count("fault", "oom")
            for notify in self._error_notifiers:
                notify("alloc", 0, exc)
            raise

    def free_device(self, buf: Buffer) -> None:
        if self.pools:
            pool = self.pools.get(buf.device)
            if pool is not None and pool.owns(buf):
                pool.free(buf)
                return
        self.allocators[buf.device].free(buf)

    def add_error_notifier(self, notify) -> None:
        """Register ``notify(kind, tag, exc)`` for machine-level resource
        faults (currently ``kind="alloc"`` on :class:`OutOfMemory`).
        Notification only — the exception still propagates to the caller."""
        self._error_notifiers.append(notify)

    def add_device_free_hook(self, hook) -> None:
        """Run ``hook(buf)`` whenever any GPU buffer of this machine is freed
        (see :meth:`DeviceAllocator.add_free_hook`)."""
        for allocator in self.allocators.values():
            allocator.add_free_hook(hook)

    def alloc_host(self, node: int, size: int) -> Buffer:
        return host_buffer(node, size)

    # -- routing --------------------------------------------------------------
    def route(self, src: Location, dst: Location) -> Route:
        """Links traversed by a direct transfer from ``src`` to ``dst``.

        The route is symmetric; protocol layers decide *whether* a direct
        route is usable (e.g. inter-node device transfers normally stage
        through host memory instead of taking the GPUDirect route below).

        Routes are memoized per ``(src, dst)`` pair, keyed by the two
        interned locations' ``ident`` ints: the link graph is static after
        construction, so the per-message path is a dict lookup returning a
        :class:`Route` whose acquisition order and cost terms were computed
        once (``path_transfer`` consumes them directly).
        """
        key = (src.ident, dst.ident)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = self._route_cache[key] = Route(self._build_route(src, dst))
        return cached

    def _build_route(self, src: Location, dst: Location) -> List[Link]:
        same_loc = (src.node == dst.node and src.kind is dst.kind
                    and src.device == dst.device)
        if same_loc:
            # same-location copy: same-GPU DtoD uses HBM; host-host uses hostmem
            if src.on_device:
                node = self.nodes[src.node]
                return [node.hbm[self.local_gpu(src.device)]]
            return [self.nodes[src.node].host_mem]

        same_node = src.node == dst.node
        links: List[Link] = []

        if same_node:
            node = self.nodes[src.node]
            if src.on_device and dst.on_device:
                a, b = self.local_gpu(src.device), self.local_gpu(dst.device)
                links = [node.nvlink_tx[a]]
                sa, sb = self.socket_of_gpu(src.device), self.socket_of_gpu(dst.device)
                if sa != sb:
                    links.append(node.xbus(sa, sb))
                links.append(node.nvlink_rx[b])
            elif src.on_device:
                links = [node.nvlink_tx[self.local_gpu(src.device)]]
            elif dst.on_device:
                links = [node.nvlink_rx[self.local_gpu(dst.device)]]
            else:
                links = [node.host_mem]
            return links

        # inter-node
        src_node, dst_node = self.nodes[src.node], self.nodes[dst.node]
        rails = self.cfg.topology.nic_rails
        src_rail = (self.socket_of_gpu(src.device) if src.on_device else src.socket) % rails
        dst_rail = (self.socket_of_gpu(dst.device) if dst.on_device else dst.socket) % rails
        if src.on_device:
            links.append(src_node.nvlink_tx[self.local_gpu(src.device)])
        links.append(src_node.nic_tx[src_rail])
        links.append(dst_node.nic_rx[dst_rail])
        if dst.on_device:
            links.append(dst_node.nvlink_rx[self.local_gpu(dst.device)])
        return links

    def host_location(self, node: int, socket: int = 0) -> Location:
        return self._location(node, None, socket)

    def device_location(self, gpu: int) -> Location:
        return self._location(self.node_of_gpu(gpu), gpu)
