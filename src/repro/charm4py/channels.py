"""Charm4py channels: streamed connections between chares (paper §II-E, [14]).

A channel gives two chares explicit send/receive semantics while keeping
asynchrony: the receiving coroutine suspends on a future until the message
arrives (§III-D).  Host payloads are serialised (pickled) into the message;
device payloads take the GPU-aware path of Fig. 9 — the Python layer builds
a ``CkDeviceBuffer`` through Cython, the machine layer assigns the tag and
sends the GPU data, and the metadata message posts the receive on arrival,
whose completion callback fulfils the receiver's future.

Usage inside coroutine entry methods (cf. the paper's Fig. 8)::

    ch = self.c4p.channel(self, partner_proxy)
    yield ch.send(d_send_data, size)        # GPU-aware send
    yield ch.recv(d_recv_data, size)        # suspends until GPU data lands
    value = yield ch.recv()                 # host-object receive
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.converse.message import CmiMessage
from repro.core.device_buffer import CkDeviceBuffer
from repro.hardware.memory import Buffer, is_ndarray
from repro.obs.stages import C4P_SEND_DEVICE, C4P_SEND_HOST, METADATA_SENT
from repro.sim.primitives import SimEvent, Timeout


def _host_payload_bytes(args: Tuple[Any, ...]) -> int:
    total = 0
    for a in args:
        if is_ndarray(a):
            total += a.nbytes
        elif isinstance(a, Buffer):
            total += a.size
        elif isinstance(a, (bytes, bytearray)):
            total += len(a)
        else:
            total += 64  # pickled python object overhead
    return total


@dataclass(slots=True)
class _Packet:
    kind: str  # "host" | "dev"
    value: Any = None
    nbytes: int = 0
    dev_meta: Optional[CkDeviceBuffer] = None


class _Endpoint:
    """Receive-side state of one channel at one chare."""

    __slots__ = ("packets", "waiting")

    def __init__(self) -> None:
        self.packets: List[_Packet] = []
        self.waiting: List[Tuple[Any, Optional[Tuple[Buffer, int]]]] = []


class Channel:
    """One endpoint of a chare-to-chare channel."""

    def __init__(self, c4p, local_chare, remote_proxy) -> None:
        self.c4p = c4p
        self.charm = c4p.charm
        self.local = local_chare
        self.local_id = local_chare.thisProxy.chare_id
        self.remote_id = remote_proxy.chare_id
        self.key = (min(self.local_id, self.remote_id), max(self.local_id, self.remote_id))

    # -- send ---------------------------------------------------------------------
    def send(self, *args) -> SimEvent:
        """Send host objects, or ``send(device_buffer, size)`` for GPU data.

        Returns the *injection* event: it fires once the Python/Cython/
        serialisation work is done and the message is on its way (the
        channel send itself is asynchronous)."""
        c4p = self.c4p
        sim = c4p.sim
        src_pe = self.charm.chare_pe[self.local_id]
        dst_pe = self.charm.chare_pe[self.remote_id]

        if args and isinstance(args[0], Buffer) and args[0].on_device:
            if len(args) != 2:
                raise TypeError("device send is channel.send(buffer, size)")
            buf, size = args
            if size > buf.size:
                raise ValueError(f"send of {size} B from {buf.size} B buffer")
            cost = c4p.cython.call_cost() + c4p.cython.device_send_cost()
            dev_meta = CkDeviceBuffer(ptr=buf, size=size)
            sp = self.charm.machine.tracer.stage(
                C4P_SEND_DEVICE, cost=cost, attrs=(src_pe, dst_pe, size, True))
            sim.call_later(cost, self._go_device, src_pe, dst_pe, dev_meta, sp)
            return Timeout(sim, cost)

        if any(isinstance(a, Buffer) and a.on_device for a in args):
            raise TypeError("device buffer must be the first and only payload")
        nbytes = _host_payload_bytes(args)
        cost = c4p.cython.call_cost() + c4p.cython.serialize_cost(nbytes)
        value = args[0] if len(args) == 1 else args
        sp = self.charm.machine.tracer.stage(
            C4P_SEND_HOST, cost=cost, attrs=(src_pe, dst_pe, nbytes, False))
        sim.call_later(cost, self._go_host, src_pe, dst_pe, value, nbytes, sp)
        return Timeout(sim, cost)

    def _go_device(self, src_pe: int, dst_pe: int, dev_meta: CkDeviceBuffer,
                   sp) -> None:
        tracer = self.charm.machine.tracer
        with tracer.under(sp):
            self.charm.converse.cmi_send_device(src_pe, dst_pe, dev_meta)
            pkt = _Packet(kind="dev", dev_meta=dev_meta)
            self._post_packet(src_pe, dst_pe, pkt, host_bytes=0)
        tracer.note(METADATA_SENT, dev_meta.tag)
        tracer.end(sp)

    def _go_host(self, src_pe: int, dst_pe: int, value: Any, nbytes: int,
                 sp) -> None:
        tracer = self.charm.machine.tracer
        with tracer.under(sp):
            pkt = _Packet(kind="host", value=value, nbytes=nbytes)
            self._post_packet(src_pe, dst_pe, pkt, host_bytes=nbytes)
        tracer.end(sp)

    def _post_packet(self, src_pe: int, dst_pe: int, pkt: _Packet, host_bytes: int) -> None:
        msg = CmiMessage(
            handler="c4p_chan",
            payload=(self.key, self.remote_id, pkt),
            host_bytes=host_bytes,
            src_pe=src_pe,
            dst_pe=dst_pe,
        )
        self.charm.converse.cmi_send(src_pe, msg)

    # -- receive -------------------------------------------------------------------
    def recv(self, *args) -> SimEvent:
        """``recv()`` for a host object (the event's value is the object);
        ``recv(device_buffer, size)`` to land GPU data in ``device_buffer``.
        Yield the returned event; the coroutine suspends until arrival."""
        c4p = self.c4p
        dst: Optional[Tuple[Buffer, int]] = None
        if args:
            if len(args) != 2 or not isinstance(args[0], Buffer) or not args[0].on_device:
                raise TypeError("device receive is channel.recv(buffer, size)")
            dst = (args[0], args[1])
        future = c4p.make_future()
        cost = c4p.cython.call_cost()
        c4p.sim.call_later(cost, c4p._post_channel_recv, self.key, self.local_id, future, dst)
        return future.get()
