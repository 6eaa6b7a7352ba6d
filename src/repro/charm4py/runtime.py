"""The Charm4py runtime: Python chares, channels, futures over Charm++.

Fig. 9's stack: user code -> Charm4py runtime (Python) -> Cython layer ->
Charm++ runtime system -> UCX machine layer -> network.  Each hop's cost is
charged by :class:`~repro.charm4py.cython_layer.CythonLayer`; the transport
below is the *same* Charm++/UCX stack the other models use, which is the
paper's whole point.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.charm.charm import Charm
from repro.charm.proxy import ChareProxy
from repro.charm4py.channels import Channel, _Endpoint, _Packet
from repro.charm4py.chare import PyChare
from repro.charm4py.cython_layer import CythonLayer
from repro.charm4py.futures import Future
from repro.collectives.ops import ReduceOp
from repro.config import MachineConfig
from repro.core.device_buffer import DeviceRdmaOp, DeviceRecvType
from repro.obs.stages import C4P_RECV, METADATA_ARRIVED


class _PyInvoker:
    __slots__ = ("_c4p", "_inner")

    def __init__(self, c4p: "Charm4py", inner) -> None:
        self._c4p = c4p
        self._inner = inner

    def __call__(self, *args: Any) -> None:
        # Python-side marshalling cost before entering the C++ runtime.
        self._c4p.charm.charge_current_pe(self._c4p.cython.call_cost())
        self._inner(*args)


class PyProxy:
    """Wraps a Charm++ proxy, charging Python/Cython cost per invocation."""

    __slots__ = ("_c4p", "_proxy")

    def __init__(self, c4p: "Charm4py", proxy: ChareProxy) -> None:
        self._c4p = c4p
        self._proxy = proxy

    @property
    def chare_id(self) -> int:
        return self._proxy.chare_id

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return _PyInvoker(self._c4p, getattr(self._proxy, name))


class Charm4py:
    """One Charm4py job over a :class:`Charm` runtime."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.charm = Charm(config)
        self.rt = self.charm.cfg.runtime
        self.cython = CythonLayer(self.rt)
        self.charm.converse.register_handler("c4p_chan", self._handle_channel_msg)
        self.charm.layer.register_device_recv_handler(
            DeviceRecvType.CHARM4PY, lambda op: None  # completion via op.on_complete
        )
        # (channel key, owner chare id) -> endpoint state
        self._endpoints: Dict[Tuple[Tuple[int, int], int], _Endpoint] = {}
        # inject the Python-runtime attributes before chare __init__ runs
        overhead = self.rt.py_call_overhead + self.rt.cython_crossing_overhead

        def _init_hook(obj) -> None:
            if isinstance(obj, PyChare):
                obj.c4p = self
                obj.dispatch_overhead = overhead

        self.charm.chare_init_hook = _init_hook

    # -- conveniences -----------------------------------------------------------
    @property
    def sim(self):
        return self.charm.sim

    @property
    def cuda(self):
        return self.charm.cuda

    def run_until(self, event, max_events: Optional[int] = None):
        return self.charm.run_until(event, max_events=max_events)

    def on_comm_error(self, cb) -> None:
        """Register ``cb(kind, tag, status)`` for failed device transfers;
        delegates to the underlying Charm++ runtime's error routing."""
        self.charm.on_comm_error(cb)

    def make_future(self) -> Future:
        return Future(self)

    def channel(self, local_chare: PyChare, remote_proxy) -> Channel:
        return Channel(self, local_chare, remote_proxy)

    # -- reductions -------------------------------------------------------------
    @property
    def reductions(self):
        """The underlying Charm++ reduction manager (shared tree)."""
        return self.charm.reductions

    def contribute(self, chare, value: Any, op=ReduceOp.SUM, callback=None) -> None:
        """Charm4py-side ``contribute``: pays the Python call and Cython
        crossing before entering the C++ reduction tree (Fig. 9's stack);
        ``op`` is a :class:`ReduceOp` or its string name."""
        self.charm.charge_current_pe(
            self.rt.py_call_overhead + self.rt.cython_crossing_overhead
        )
        self.charm.reductions.contribute(chare, value, op, callback)

    # -- chare creation ------------------------------------------------------------
    def create_chare(self, cls, pe: int, *args, **kwargs) -> PyProxy:
        return PyProxy(self, self.charm.create_chare(cls, pe, *args, **kwargs))

    def create_array(self, cls, n: int, *args, mapping=None, **kwargs):
        return _PyCollection(
            self, self.charm.create_array(cls, n, *args, mapping=mapping, **kwargs)
        )

    def create_group(self, cls, *args, **kwargs):
        return _PyCollection(self, self.charm.create_group(cls, *args, **kwargs))

    # -- channel plumbing -------------------------------------------------------------
    def _register_endpoint(self, key: Tuple[int, int], owner_id: int) -> None:
        self._endpoints.setdefault((key, owner_id), _Endpoint())

    def _endpoint(self, key: Tuple[int, int], owner_id: int) -> _Endpoint:
        return self._endpoints.setdefault((key, owner_id), _Endpoint())

    def _handle_channel_msg(self, pe, msg) -> None:
        key, owner_id, pkt = msg.payload
        pe.charge(self.rt.cython_crossing_overhead)
        tracer = self.charm.machine.tracer
        tracer.charge("charm4py", self.rt.cython_crossing_overhead)
        if pkt.kind == "dev":
            tracer.stage(METADATA_ARRIVED, pkt.dev_meta.tag)
        ep = self._endpoint(key, owner_id)
        if ep.waiting:
            future, dst = ep.waiting.popleft()
            self._deliver(owner_id, pkt, future, dst)
        else:
            ep.packets.append(pkt)

    def _post_channel_recv(self, key, owner_id: int, future: Future, dst) -> None:
        ep = self._endpoint(key, owner_id)
        if ep.packets:
            self._deliver(owner_id, ep.packets.popleft(), future, dst)
        else:
            ep.waiting.append((future, dst))

    def _deliver(self, owner_id: int, pkt: _Packet, future: Future, dst) -> None:
        tracer = self.charm.machine.tracer
        if pkt.kind == "host":
            if dst is not None:
                raise TypeError("channel.recv(buffer, size) but a host object arrived")
            cost = self.cython.serialize_cost(pkt.nbytes)  # deserialisation
            tracer.charge("charm4py", cost)
            self.sim.call_later(cost, future.send, pkt.value)
            return
        if dst is None:
            raise TypeError("GPU data arrived but recv() posted no device buffer")
        buf, size = dst
        meta = pkt.dev_meta
        if meta.size > size:
            raise ValueError(f"incoming GPU data of {meta.size} B exceeds posted {size} B")
        pe_index = self.charm.chare_pe[owner_id]
        # Rendezvous-size device receives cross the Cython layer several
        # times (RTS handling, posting, completion); pipelined inter-node
        # transfers additionally pay a Python-side cost per staged chunk.
        # Both costs scale with the fraction of a pipeline chunk actually
        # touched, so mid-size messages pay proportionally.
        delay = 0.0
        ucx = self.charm.cfg.ucx
        if meta.size >= ucx.device_eager_threshold:
            chunk_frac = meta.size / ucx.pipeline_chunk
            delay += self.rt.charm4py_rndv_post_overhead * min(1.0, chunk_frac)
            src_node = self.charm.machine.node_of_gpu(meta.ptr.device)
            dst_node = self.charm.pe_object(pe_index).node
            if src_node != dst_node and not ucx.gpudirect_rdma:
                delay += chunk_frac * self.rt.charm4py_pipeline_chunk_overhead
        rsp = tracer.stage(
            C4P_RECV, cost=delay, attrs=(pe_index, meta.size, True))

        def _recv_complete(_op) -> None:
            rsp.end()
            future.send(None)

        op = DeviceRdmaOp(
            dest=buf,
            size=meta.size,
            tag=meta.tag,
            recv_type=DeviceRecvType.CHARM4PY,
            on_complete=_recv_complete,
        )
        if delay > 0.0:
            def _post() -> None:
                with tracer.under(rsp):
                    self.charm.converse.cmi_recv_device(pe_index, op)

            self.sim.call_later(delay, _post)
        else:
            with tracer.under(rsp):
                self.charm.converse.cmi_recv_device(pe_index, op)


class _PyCollection:
    """Array/group proxy with Python-cost invokers and indexing."""

    def __init__(self, c4p: Charm4py, inner) -> None:
        self._c4p = c4p
        self._inner = inner

    def __len__(self) -> int:
        return len(self._inner)

    def __getitem__(self, index: int) -> PyProxy:
        return PyProxy(self._c4p, self._inner[index])

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        inner_invoker = getattr(self._inner, name)
        return _PyInvoker(self._c4p, inner_invoker)
