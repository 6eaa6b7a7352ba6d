"""The UCX machine layer (LRTS) — the paper's §III-A.

Lowest layer of the Charm++ runtime stack, directly interfacing the
(simulated) interconnect through UCP workers.  Two paths:

* **host messages** — the pre-existing route: Converse hands a packed
  message down, the machine layer moves it with UCP and the destination
  PE's scheduler picks it out of the message queue.
* **device buffers** — this work's extension: ``lrts_send_device`` assigns
  a ``UCX_MSG_TAG_DEVICE`` tag from the per-PE generator (Fig. 3), stores it
  in the caller's ``CmiDeviceBuffer`` metadata (to be packed with the host
  message), and pushes the GPU buffer into ``ucp_tag_send_nb``;
  ``lrts_recv_device`` posts ``ucp_tag_recv_nb`` for an incoming GPU buffer
  and routes completion to the handler registered for the posting model
  (``DeviceRecvType`` -> Charm++/AMPI/Charm4py), mirroring the paper's
  per-model receive handlers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import MachineConfig
from repro.core.device_buffer import CmiDeviceBuffer, DeviceRdmaOp, DeviceRecvType
from repro.core.device_tags import TagGenerator
from repro.hardware.topology import Machine
from repro.obs.stages import LRTS_RECV_DEVICE, LRTS_SEND_DEVICE
from repro.ucx.context import UcpContext
from repro.ucx.request import UcxRequest
from repro.ucx.status import UcsStatus


class UcxMachineLayer:
    """LRTS implementation over :mod:`repro.ucx` (one worker per PE)."""

    def __init__(
        self,
        machine: Machine,
        n_pes: int,
        pe_node: List[int],
    ) -> None:
        if len(pe_node) != n_pes:
            raise ValueError("pe_node must have one entry per PE")
        self.machine = machine
        self.sim = machine.sim
        self.cfg: MachineConfig = machine.cfg
        self.ucp = UcpContext(machine)
        self.cuda = self.ucp.cuda
        self.n_pes = n_pes
        self.workers = [
            self.ucp.create_worker(pe, pe_node[pe], machine.socket_of_gpu(pe))
            for pe in range(n_pes)
        ]
        self.tag_gens = [TagGenerator(pe, self.cfg.tags) for pe in range(n_pes)]
        self._recv_handlers: Dict[DeviceRecvType, Callable[[DeviceRdmaOp], None]] = {}
        self._deliver: Optional[Callable] = None
        self._error_handler: Optional[Callable[[str, int, UcsStatus], None]] = None
        # Shared composite LRTS posting costs, summed once (the engine's
        # tie-break rule; see the repro.sim.engine docstring).  The posting
        # *delays* below deliberately keep their three-term form
        # ``departure_delay + overhead + alloc``: regrouping onto these
        # constants would change the float bits whenever the PE is busy
        # (``departure_delay`` is usually nonzero mid-iteration).
        rt = self.cfg.runtime
        self._send_device_charge = rt.lrts_send_device_overhead + rt.heap_alloc_cost
        self._recv_device_charge = rt.lrts_recv_device_overhead + rt.heap_alloc_cost
        for w in self.workers:
            w.set_am_handler(self._on_host_message)

    # -- wiring -------------------------------------------------------------------
    def attach(self, deliver: Callable[[int, object], None]) -> None:
        """Install the upcall that places an arrived host message on the
        destination PE's queue: ``deliver(dst_pe, msg)``."""
        self._deliver = deliver

    def register_device_recv_handler(
        self, recv_type: DeviceRecvType, handler: Callable[[DeviceRdmaOp], None]
    ) -> None:
        self._recv_handlers[recv_type] = handler

    def set_error_handler(
        self, handler: Callable[[str, int, UcsStatus], None]
    ) -> None:
        """Install the layer-level communication-error upcall, invoked as
        ``handler(kind, tag, status)`` with kind "send"/"recv" when a device
        transfer fails and the op carries no ``on_error`` of its own.
        Without one, a failed device receive raises (the seed behaviour)."""
        self._error_handler = handler

    def _route_error(self, kind: str, tag: int, status: UcsStatus) -> None:
        self.machine.tracer.count("machine", "device_error")
        if self._error_handler is not None:
            self._error_handler(kind, tag, status)
            return
        raise RuntimeError(f"device {kind} failed: {status.name} (tag {tag})")

    # -- host path -------------------------------------------------------------------
    def send_host_message(self, src_pe: int, dst_pe: int, msg, wire_bytes: int,
                          departure_delay: float = 0.0) -> None:
        """Move a packed Converse message to ``dst_pe``'s queue."""
        worker = self.workers[src_pe]
        ep = worker.ep(dst_pe)
        if departure_delay > 0.0:
            self.sim.call_later(departure_delay, worker.am_send, ep, wire_bytes, (dst_pe, msg))
        else:
            worker.am_send(ep, wire_bytes, (dst_pe, msg))

    def _on_host_message(self, payload, size: int, src_worker: int) -> None:
        dst_pe, msg = payload
        if self._deliver is None:
            raise RuntimeError("machine layer not attached to Converse")
        self._deliver(dst_pe, msg)

    # -- device path (the paper's API) ---------------------------------------------
    def lrts_send_device(
        self,
        src_pe: int,
        dst_pe: int,
        dev_buf: CmiDeviceBuffer,
        departure_delay: float = 0.0,
        on_complete: Optional[Callable[[], None]] = None,
        on_error: Optional[Callable[[UcsStatus], None]] = None,
    ) -> int:
        """``LrtsSendDevice``: assign the device tag, store it in the
        metadata object, and send the GPU buffer through UCP.  Returns the
        tag (also written to ``dev_buf.tag``)."""
        rt = self.cfg.runtime
        tag = self.tag_gens[src_pe].next_device_tag()
        dev_buf.tag = tag
        dev_buf.src_pe = src_pe
        worker = self.workers[src_pe]
        ep = worker.ep(dst_pe)
        delay = departure_delay + rt.lrts_send_device_overhead + rt.heap_alloc_cost
        tracer = self.machine.tracer
        sp = tracer.stage(
            LRTS_SEND_DEVICE, tag, dst_pe, self._send_device_charge,
            (src_pe, dst_pe, dev_buf.size, tag),
        )

        def _complete(_req: UcxRequest) -> None:
            sp.end()
            if _req.status is not UcsStatus.OK:
                if on_error is not None:
                    on_error(_req.status)
                else:
                    self._route_error("send", tag, _req.status)
                return
            if on_complete is not None:
                on_complete()

        def _launch() -> None:
            with tracer.under(sp):
                worker.tag_send_nb(ep, dev_buf.ptr, dev_buf.size, tag, cb=_complete)

        self.sim.call_later(delay, _launch)
        return tag

    def lrts_recv_device(self, pe: int, op: DeviceRdmaOp, departure_delay: float = 0.0) -> None:
        """``LrtsRecvDevice``: post the tagged receive for incoming GPU data;
        on completion, invoke the registered handler for ``op.recv_type``."""
        rt = self.cfg.runtime
        handler = self._recv_handlers.get(op.recv_type)
        if handler is None:
            raise RuntimeError(f"no device recv handler registered for {op.recv_type}")
        worker = self.workers[pe]
        tracer = self.machine.tracer
        sp = tracer.stage(
            LRTS_RECV_DEVICE, op.tag, pe, self._recv_device_charge,
            (pe, op.size, op.tag, op.recv_type.name),
        )

        def _complete(req: UcxRequest) -> None:
            # close the span on every outcome: an error must not leak it
            sp.end()
            if req.status is not UcsStatus.OK:
                if op.on_error is not None:
                    op.on_error(op, req.status)
                else:
                    self._route_error("recv", op.tag, req.status)
                return
            if op.on_complete is not None:
                op.on_complete(op)
            handler(op)

        delay = departure_delay + rt.lrts_recv_device_overhead + rt.heap_alloc_cost

        def _post() -> None:
            with tracer.under(sp):
                worker.tag_recv_nb(op.dest, op.size, op.tag, cb=_complete)

        self.sim.call_later(delay, _post)
