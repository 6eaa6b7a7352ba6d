"""The Charm++ runtime: chare registry, entry dispatch, GPU-aware sends.

Construction builds the whole stack of the paper's Fig. 1: a simulated
machine, one PE per GPU (the non-SMP configuration of §IV-A), a UCP worker
per PE inside the UCX machine layer, and Converse on top.  AMPI and
Charm4py instantiate this class and layer themselves over it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.converse.cmi import Converse
from repro.converse.message import CmiMessage
from repro.converse.pe import Pe
from repro.core.device_buffer import CkDeviceBuffer, DeviceRdmaOp, DeviceRecvType
from repro.core.machine_ucx import UcxMachineLayer
from repro.charm.chare import Chare
from repro.charm.proxy import ArrayProxy, ChareProxy, GroupProxy
from repro.charm.reduction import ReductionManager
from repro.charm.zerocopy import PendingInvocation
from repro.hardware.memory import Buffer, is_ndarray
from repro.hardware.topology import Machine
from repro.obs.stages import METADATA_ARRIVED, METADATA_SENT
from repro.sim.primitives import SimEvent


def marshal_bytes(args: Tuple[Any, ...]) -> int:
    """Host-side payload bytes of an entry invocation's arguments.

    ``CkDeviceBuffer`` arguments contribute nothing here — their GPU payload
    travels separately and their metadata size is charged per buffer by
    Converse.  Host buffers and arrays contribute their full size; small
    scalars a pointer-sized slot each.
    """
    total = 0
    for a in args:
        if isinstance(a, CkDeviceBuffer):
            continue
        if isinstance(a, Buffer):
            if a.on_device:
                raise TypeError(
                    "raw device Buffers cannot be entry arguments; wrap them "
                    "in CkDeviceBuffer (the nocopydevice attribute)"
                )
            total += a.size
        elif is_ndarray(a):
            total += a.nbytes
        elif isinstance(a, (bytes, bytearray, memoryview)):
            total += len(a)
        else:
            total += 8
    return total


class Charm:
    """One simulated Charm++ job."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.cfg = config if config is not None else MachineConfig.summit()
        self.machine = Machine(self.cfg)
        n_pes = self.cfg.topology.total_gpus
        # paper §IV-A: one process (= PE) per GPU device, in GPU order
        pe_node = [self.machine.node_of_gpu(g) for g in range(n_pes)]
        pe_gpu: List[Optional[int]] = list(range(n_pes))
        self.layer = UcxMachineLayer(self.machine, n_pes, pe_node)
        self.cuda = self.layer.cuda
        self.converse = Converse(self.machine, self.layer, pe_node, pe_gpu)
        self.converse.register_handler("charm_entry", self._handle_entry)
        self.converse.register_handler("charm_entry_ready", self._handle_entry_ready)
        self.layer.register_device_recv_handler(DeviceRecvType.CHARM, self._on_device_recv)
        self.layer.set_error_handler(self._route_comm_error)
        self.machine.add_error_notifier(self._notify_resource_error)
        self._comm_error_cbs: List[Callable[[str, int, Any], None]] = []

        self.chares: Dict[int, Chare] = {}
        self.chare_pe: Dict[int, int] = {}
        self.collections: Dict[int, List[int]] = {}
        self._chare_coll: Dict[int, int] = {}
        self._next_chare_id = 0
        self._pending: Dict[int, Tuple[PendingInvocation, List[CkDeviceBuffer]]] = {}
        self._current_pe: Optional[int] = None
        self.reductions = ReductionManager(self)

    # -- simulation control ------------------------------------------------------
    @property
    def sim(self):
        return self.machine.sim

    @property
    def time(self) -> float:
        return self.machine.sim.now

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.machine.sim.run(until=until, max_events=max_events)

    def run_until(self, event: SimEvent, max_events: Optional[int] = None) -> Any:
        return self.machine.sim.run_until_complete(event, max_events=max_events)

    def run_to_quiescence(self, max_events: Optional[int] = None) -> float:
        """Quiescence detection, simulator-style: run until no event remains
        on the agenda (no messages in flight, no work pending anywhere) and
        return the simulated time.  The moral equivalent of Charm++'s
        ``CkStartQD`` for this in-process model."""
        self.machine.sim.run(max_events=max_events)
        return self.machine.sim.now

    # -- communication errors ------------------------------------------------------
    def on_comm_error(self, cb: Callable[[str, int, Any], None]) -> None:
        """Register ``cb(kind, tag, status)``, invoked when a device transfer
        fails (endpoint timeout under fault injection, truncation, or
        cancellation).  Without any registered callback a failure aborts the
        run — the moral of ``CkAbort`` on an unrecoverable comm error."""
        self._comm_error_cbs.append(cb)

    def _notify_resource_error(self, kind: str, tag: int, exc) -> None:
        """Machine-level resource fault (OutOfMemory at the allocator or
        pool layer).  Unlike transfer errors this is notification-only: the
        exception already propagates to the allocating call site, so an
        empty callback list is not fatal."""
        from repro.ucx.status import UcsStatus

        for cb in self._comm_error_cbs:
            cb(kind, tag, UcsStatus.ERR_NO_MEMORY)

    def _route_comm_error(self, kind: str, tag: int, status) -> None:
        if not self._comm_error_cbs:
            raise RuntimeError(
                f"Charm++ fatal: device {kind} failed with {status.name} "
                f"(tag {tag}) and no comm-error callback registered"
            )
        for cb in self._comm_error_cbs:
            cb(kind, tag, status)

    # -- PE context --------------------------------------------------------------
    @property
    def n_pes(self) -> int:
        return self.converse.n_pes

    def pe_object(self, pe: int) -> Pe:
        return self.converse.pes[pe]

    def charge_current_pe(self, cost: float) -> None:
        if self._current_pe is not None:
            self.converse.pes[self._current_pe].charge(cost)

    def gpu_of_pe(self, pe: int) -> Optional[int]:
        return self.converse.pes[pe].gpu

    # -- chare creation ------------------------------------------------------------
    def _register(self, cls, pe: int, index: int, args, kwargs) -> int:
        if not issubclass(cls, Chare):
            raise TypeError(f"{cls.__name__} must subclass Chare")
        cid = self._next_chare_id
        self._next_chare_id += 1
        obj = cls.__new__(cls)
        obj.charm = self
        obj.thisProxy = ChareProxy(self, cid)
        obj.pe = pe
        obj.gpu = self.gpu_of_pe(pe)
        obj.thisIndex = index
        hook = getattr(self, "chare_init_hook", None)
        if hook is not None:
            hook(obj)
        self.chares[cid] = obj
        self.chare_pe[cid] = pe
        prev, self._current_pe = self._current_pe, pe
        try:
            obj.__init__(*args, **kwargs)
        finally:
            self._current_pe = prev
        return cid

    def create_chare(self, cls, pe: int, *args, **kwargs) -> ChareProxy:
        """Create a singleton chare on ``pe``; returns its proxy."""
        return ChareProxy(self, self._register(cls, pe, -1, args, kwargs))

    def _register_collection(self, ids: List[int]) -> None:
        coll = len(self.collections)
        self.collections[coll] = ids
        for cid in ids:
            self._chare_coll[cid] = coll

    def create_group(self, cls, *args, **kwargs) -> GroupProxy:
        """Create a chare group: one element per PE (element i on PE i)."""
        ids = [self._register(cls, pe, pe, args, kwargs) for pe in range(self.n_pes)]
        self._register_collection(ids)
        return GroupProxy(self, ids)

    def create_array(
        self,
        cls,
        n: int,
        *args,
        mapping: Optional[Callable[[int], int]] = None,
        **kwargs,
    ) -> ArrayProxy:
        """Create a 1-D chare array of ``n`` elements.

        ``mapping(i) -> pe`` defaults to round-robin; with n == n_pes that is
        the paper's no-overdecomposition configuration, with n > n_pes it is
        overdecomposition (the §VI future-work ablation)."""
        mapfn = mapping if mapping is not None else (lambda i: i % self.n_pes)
        ids = [self._register(cls, mapfn(i), i, args, kwargs) for i in range(n)]
        self._register_collection(ids)
        return ArrayProxy(self, ids)

    # -- entry-method send path (paper Fig. 6) -----------------------------------
    def invoke(self, chare_id: int, method: str, args: Tuple[Any, ...]) -> None:
        rt = self.cfg.runtime
        topo = self.cfg.topology
        dst_pe = self.chare_pe[chare_id]
        dev_bufs = [a for a in args if isinstance(a, CkDeviceBuffer)]
        src_pe = self._current_pe
        if src_pe is None:
            # driver-initiated send (mainchare territory): attribute it to
            # the PE owning the first device buffer, else to the target PE.
            src_pe = (
                self.pe_of_gpu(dev_bufs[0].ptr.device) if dev_bufs else dst_pe
            )
        pe = self.converse.pes[src_pe]

        host_bytes = marshal_bytes(args)
        cost = rt.charm_send_overhead
        if host_bytes > 0:
            cost += topo.host_mem.transfer_time(host_bytes)
        pe.charge(cost)

        # (1)-(4): each GPU buffer goes through CmiSendDevice/LrtsSendDevice,
        # which assigns and stores its tag in the metadata object.
        for b in dev_bufs:
            self.converse.cmi_send_device(src_pe, dst_pe, b, on_complete=b.cb)

        # (5): pack metadata with host-side data and send.
        msg = CmiMessage(
            handler="charm_entry",
            payload=(chare_id, method, args),
            host_bytes=host_bytes,
            src_pe=src_pe,
            dst_pe=dst_pe,
            device_bufs=list(dev_bufs),
        )
        self.converse.cmi_send(src_pe, msg)
        for b in dev_bufs:
            self.machine.tracer.stage(METADATA_SENT, b.tag)

    def pe_of_gpu(self, gpu: int) -> int:
        """Inverse of the 1:1 PE<->GPU mapping."""
        if gpu >= self.n_pes:
            raise ValueError(f"GPU {gpu} has no PE (job uses {self.n_pes} PEs)")
        return gpu

    # -- entry-method receive path (paper §III-B2) ---------------------------------
    def _handle_entry(self, pe: Pe, msg: CmiMessage):
        rt = self.cfg.runtime
        topo = self.cfg.topology
        chare_id, method, args = msg.payload
        chare = self.chares[chare_id]
        cost = rt.entry_dispatch_overhead
        if msg.host_bytes > 0:
            cost += topo.host_mem.transfer_time(msg.host_bytes)
        # models layered on Charm++ (Charm4py) add their own dispatch cost
        cost += getattr(chare, "dispatch_overhead", 0.0)
        pe.charge(cost)

        if not msg.device_bufs:
            return self._run_entry(pe, chare, method, args)

        for b in msg.device_bufs:
            self.machine.tracer.stage(METADATA_ARRIVED, b.tag)
        post_fn = getattr(chare, f"{method}_post", None)
        if post_fn is None:
            raise RuntimeError(
                f"{type(chare).__name__}.{method} takes nocopydevice parameters "
                f"but defines no post entry method {method}_post"
            )
        posts = PendingInvocation.make_posts(msg.device_bufs,
                                             announced_at=self.sim.now)
        pe.charge(rt.post_entry_overhead)
        prev, self._current_pe = self._current_pe, pe.index
        try:
            post_fn(posts, *[a for a in args if not isinstance(a, CkDeviceBuffer)])
        finally:
            self._current_pe = prev
        for p in posts:
            p.validate()

        pending = PendingInvocation(
            chare_id=chare_id,
            method=method,
            args=args,
            posts=posts,
            remaining=len(posts),
        )
        self._pending[pending.pending_id] = (pending, msg.device_bufs)
        for dev_buf, post in zip(msg.device_bufs, posts):
            op = DeviceRdmaOp(
                dest=post.buffer,
                size=dev_buf.size,
                tag=dev_buf.tag,
                recv_type=DeviceRecvType.CHARM,
                context=pending.pending_id,
            )
            self.converse.cmi_recv_device(pe.index, op)
        return None

    def _on_device_recv(self, op: DeviceRdmaOp) -> None:
        """Machine-layer handler: one GPU buffer of a pending invocation
        arrived.  When the last one lands, the regular entry method is
        enqueued on the owning PE."""
        pending, dev_bufs = self._pending[op.context]
        pending.remaining -= 1
        if pending.remaining > 0:
            return
        del self._pending[op.context]
        final_args = []
        it = iter(pending.posts)
        for a in pending.args:
            final_args.append(next(it).buffer if isinstance(a, CkDeviceBuffer) else a)
        dst_pe = self.chare_pe[pending.chare_id]
        ready = CmiMessage(
            handler="charm_entry_ready",
            payload=(pending.chare_id, pending.method, tuple(final_args)),
            host_bytes=0,
            src_pe=dst_pe,
            dst_pe=dst_pe,
        )
        self.converse.pes[dst_pe].enqueue(ready)

    def _handle_entry_ready(self, pe: Pe, msg: CmiMessage):
        chare_id, method, args = msg.payload
        return self._run_entry(pe, self.chares[chare_id], method, args)

    def _run_entry(self, pe: Pe, chare: Chare, method: str, args: Tuple[Any, ...]):
        fn = getattr(chare, method, None)
        if fn is None:
            raise RuntimeError(f"{type(chare).__name__} has no entry method {method!r}")
        prev, self._current_pe = self._current_pe, pe.index
        try:
            result = fn(*args)
        finally:
            self._current_pe = prev
        if result is not None and hasattr(result, "send"):
            return self._wrap_threaded(pe, result)
        return None

    def _wrap_threaded(self, pe: Pe, gen):
        """Drive a [threaded] entry method, keeping the PE context set during
        each resumption and flushing accrued CPU debt at suspension points."""
        to_send: Any = None
        exc: Optional[BaseException] = None
        while True:
            self._current_pe = pe.index
            try:
                if exc is not None:
                    item = gen.throw(exc)
                else:
                    item = gen.send(to_send)
            except StopIteration:
                debt = pe.take_debt()
                if debt > 0.0:
                    yield debt
                return
            finally:
                self._current_pe = None
            exc = None
            debt = pe.take_debt()
            if debt > 0.0:
                yield debt
            try:
                to_send = yield item
            except BaseException as e:  # noqa: BLE001 - forwarded to the entry
                exc = e
