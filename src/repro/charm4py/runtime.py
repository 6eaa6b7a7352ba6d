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
from repro.config import MachineConfig
from repro.core.device_buffer import DeviceRdmaOp, DeviceRecvType
from repro.obs.stages import C4P_RECV, METADATA_ARRIVED
from repro.ucx.protocols.rndv import PIPELINE, rndv_lane
from repro.ucx.protocols.select import Protocol, choose_send_protocol


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
        self.sim = self.charm.sim
        self.rt = self.charm.cfg.runtime
        self.cython = CythonLayer(self.rt)
        self.charm.converse.register_handler("c4p_chan", self._handle_channel_msg)
        # (channel key, owner chare id) -> endpoint state
        self._endpoints: Dict[Tuple[Tuple[int, int], int], _Endpoint] = {}
        # inject the Python-runtime attributes before chare __init__ runs
        overhead = self.cython.call_time

        def _init_hook(obj) -> None:
            if isinstance(obj, PyChare):
                obj.c4p = self
                obj.dispatch_overhead = overhead

        self.charm.chare_init_hook = _init_hook

    # -- conveniences -----------------------------------------------------------
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

    # -- chare creation ------------------------------------------------------------
    def create_array(self, cls, n: int, *args, mapping=None, **kwargs):
        return _PyCollection(
            self, self.charm.create_array(cls, n, *args, mapping=mapping, **kwargs)
        )

    # -- channel plumbing -------------------------------------------------------------
    def _endpoint(self, key: Tuple[int, int], owner_id: int) -> _Endpoint:
        """Channel ``key``'s receive side at chare ``owner_id``, made on first
        use: a packet may arrive before its receiver builds its end."""
        ep = self._endpoints.get((key, owner_id))
        if ep is None:
            ep = self._endpoints[key, owner_id] = _Endpoint()
        return ep

    def _handle_channel_msg(self, pe, msg) -> None:
        key, owner_id, pkt = msg.payload
        pe.charge(self.rt.cython_crossing_overhead)
        tracer = self.charm.machine.tracer
        tracer.charge("charm4py", self.rt.cython_crossing_overhead)
        if pkt.kind == "dev":
            tracer.note(METADATA_ARRIVED, pkt.dev_meta.tag)
        ep = self._endpoint(key, owner_id)
        if ep.waiting:
            future, dst = ep.waiting.pop(0)
            self._deliver(owner_id, pkt, future, dst)
        else:
            ep.packets.append(pkt)

    def _post_channel_recv(self, key, owner_id: int, future: Future, dst) -> None:
        ep = self._endpoint(key, owner_id)
        if ep.packets:
            self._deliver(owner_id, ep.packets.pop(0), future, dst)
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
        delay = self.device_post_delay(meta.ptr, buf, meta.size)
        future.span = tracer.note(
            C4P_RECV, cost=delay, attrs=(pe_index, meta.size, True))
        op = DeviceRdmaOp(
            dest=buf,
            size=meta.size,
            tag=meta.tag,
            recv_type=DeviceRecvType.CHARM4PY,
            owner=future,
        )
        if delay > 0.0:
            self.sim.call_later(delay, self._post_device_recv, pe_index, op, future.span)
        else:
            with tracer.under(future.span):
                self.charm.converse.cmi_recv_device(pe_index, op)

    def device_post_delay(self, src, dst, size: int) -> float:
        """Python-side delay before posting a device receive: a rendezvous
        crosses the Cython layer several times, a pipelined one also pays
        per staged chunk; both scale with the fraction of a chunk touched."""
        delay = 0.0
        ucx = self.charm.cfg.ucx
        if choose_send_protocol(ucx, src, size) is Protocol.RNDV:
            chunk_frac = size / ucx.pipeline_chunk
            delay += self.rt.charm4py_rndv_post_overhead * min(1.0, chunk_frac)
            if rndv_lane(ucx, src, dst) is PIPELINE:
                delay += chunk_frac * self.rt.charm4py_pipeline_chunk_overhead
        return delay

    def _post_device_recv(self, pe_index: int, op: DeviceRdmaOp, rsp) -> None:
        with self.charm.machine.tracer.under(rsp):
            self.charm.converse.cmi_recv_device(pe_index, op)


class _PyCollection:
    """Array proxy with Python-cost invokers and indexing."""

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
