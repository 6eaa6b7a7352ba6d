"""UCP context: global UCX state shared by all workers of the simulation."""

from __future__ import annotations

from typing import Dict

from repro.hardware.cuda import CudaRuntime
from repro.hardware.gdrcopy import GdrCopy
from repro.hardware.topology import Machine


class UcpContext:
    """Owns protocol configuration, the GDRCopy handle, and the worker
    registry.  One context per simulated job (mirrors ``ucp_context_h``)."""

    def __init__(self, machine: Machine) -> None:
        from repro.ucx.worker import UcpWorker  # local import: cycle guard

        self.machine = machine
        self.sim = machine.sim
        self.cfg = machine.cfg.ucx
        self.cuda = CudaRuntime(machine)
        self.gdrcopy = GdrCopy(self.cfg)
        injector = machine.fault_injector
        if injector is not None and injector.gdrcopy_probe_fails():
            # probe failure is a context-init-time event, as with the real
            # library dlopen: every worker of this context loses the fast path
            self.gdrcopy.forced_unavailable = True
            machine.tracer.count("fault", "gdrcopy_forced_off")
        self._workers: Dict[int, "UcpWorker"] = {}
        # Memoized per-size staging-copy times, one table per staging path
        # (host memcpy / GDRCopy BAR1 / no-GDR cudaMemcpy staging).  The
        # underlying expressions are pure functions of static config, and
        # benchmark loops revisit a handful of sizes (see
        # repro.ucx.protocols.common.staging_copy_time).
        self.staging_time_cache: Dict[tuple, float] = {}
        # NIC registration cache: buffers already pinned for RDMA (keyed by
        # address).  Repeat rendezvous from the same user buffer skip the
        # registration cost, as with UCX's rcache.
        self.reg_cache: set = set()
        # -- endpoint/registration lifecycle (all default-off) ----------------
        # First-touch peer mappings: (buffer base address, worker pair).
        # Mapping a device buffer into a peer's transport (IPC open + IB
        # registration of the window) is charged once per pair; pooled
        # buffers share their slab's base, so a whole pool maps per peer
        # once.  Pool *returns* never run free hooks, so reuse keeps the
        # mapping warm; only the direct allocator's real frees invalidate.
        self.mapping_cost = self.cfg.mapping_cost
        self.mapping_enabled = self.mapping_cost > 0.0
        # Insertion-ordered dict used as an LRU set: a mapping hit moves its
        # key to the back when a capacity cap is configured, and overflow
        # evicts the front (least-recently-touched).  ``max_mappings=None``
        # never reorders or evicts — behaviour (and fingerprints) identical
        # to the unbounded set it replaces.
        self.map_cache: Dict[tuple, None] = {}
        self.map_limit = self.cfg.max_mappings
        self._map_by_base: Dict[int, set] = {}
        self._map_by_pair: Dict[tuple, set] = {}
        self.ep_setup_cost = self.cfg.ep_setup_cost
        self.ep_limit = self.cfg.max_endpoints
        self.ep_lifecycle_enabled = (
            self.ep_setup_cost > 0.0 or self.ep_limit is not None
        )
        if self.mapping_enabled:
            machine.add_device_free_hook(self._drop_base_mappings)
        self._worker_cls = UcpWorker
        self.ep_total = 0  # endpoints across all workers (live, not closed)

    # -- first-touch peer mappings -----------------------------------------------
    @staticmethod
    def _base_address(buf) -> int:
        return buf.address if buf.base is None else buf.base.address

    def first_touch(self, src, dst, worker_a: int, worker_b: int) -> float:
        """Mapping cost of a transfer from ``src`` to ``dst`` between the
        ``worker_a``<->``worker_b`` pair: each *device* end is charged
        :meth:`mapping_charge`, the sender end first (the order feeds the
        LRU cap).  Host ends map nothing.  The device eager send and every
        rendezvous lane but ``cma`` pay it.  Call only when
        :attr:`mapping_enabled`."""
        cost = 0.0
        if src.on_device:
            cost += self.mapping_charge(src, worker_a, worker_b)
        if dst.on_device:
            cost += self.mapping_charge(dst, worker_a, worker_b)
        return cost

    def mapping_charge(self, buf, worker_a: int, worker_b: int) -> float:
        """Cost of having ``buf``'s base allocation mapped for the
        ``worker_a``<->``worker_b`` pair: ``mapping_cost`` on first touch,
        0 afterwards.  Call only when :attr:`mapping_enabled`."""
        pair = (worker_a, worker_b) if worker_a <= worker_b else (worker_b, worker_a)
        base = self._base_address(buf)
        key = (base, pair)
        if key in self.map_cache:
            if self.map_limit is not None:
                # LRU touch — only tracked when a cap can actually evict
                del self.map_cache[key]
                self.map_cache[key] = None
            self.machine.tracer.count("ucx", "mapping_hit")
            return 0.0
        if self.map_limit is not None and len(self.map_cache) >= self.map_limit:
            victim = next(iter(self.map_cache))
            self._drop_mapping_keys((victim,))
            self.machine.tracer.count("ucx", "mapping_evicted")
        self.map_cache[key] = None
        self._map_by_base.setdefault(base, set()).add(key)
        self._map_by_pair.setdefault(pair, set()).add(key)
        self.machine.tracer.count("ucx", "mapping_new")
        self.machine.tracer.gauge("ucx.mapping_cache", len(self.map_cache), "entries")
        return self.mapping_cost

    def _drop_mapping_keys(self, keys) -> None:
        for key in keys:
            self.map_cache.pop(key, None)
            base, pair = key
            for index, idx_key in ((self._map_by_base, base),
                                   (self._map_by_pair, pair)):
                bucket = index.get(idx_key)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del index[idx_key]
        self.machine.tracer.gauge("ucx.mapping_cache", len(self.map_cache), "entries")

    def _drop_base_mappings(self, buf) -> None:
        """Real free of a buffer: its mappings die (free-hook callback)."""
        keys = self._map_by_base.get(self._base_address(buf))
        if keys:
            self._drop_mapping_keys(list(keys))

    def drop_pair_mappings(self, worker_a: int, worker_b: int) -> None:
        """An endpoint between the pair closed (LRU eviction): the peer
        mappings established through it are torn down with it."""
        pair = (worker_a, worker_b) if worker_a <= worker_b else (worker_b, worker_a)
        keys = self._map_by_pair.get(pair)
        if keys:
            self._drop_mapping_keys(list(keys))

    def create_worker(self, worker_id: int, node: int, socket: int = 0) -> "UcpWorker":
        """Create (or return) the worker with this id, pinned to ``node``
        (``socket`` selects the NIC rail for its host traffic)."""
        if worker_id in self._workers:
            existing = self._workers[worker_id]
            if existing.node != node:
                raise ValueError(
                    f"worker {worker_id} already exists on node {existing.node}"
                )
            return existing
        w = self._worker_cls(self, worker_id, node, socket)
        self._workers[worker_id] = w
        return w

    def worker(self, worker_id: int) -> "UcpWorker":
        return self._workers[worker_id]
