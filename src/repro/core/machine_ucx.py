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
  and completes it through the op the posting model built: its ``owner``
  is that model's record of the receive (Charm++, AMPI or Charm4py), whose
  ``landed`` is the paper's per-model receive handler.

The metadata object of each transfer is also its in-flight record (see
:mod:`repro.core.device_buffer`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import MachineConfig
from repro.core.device_buffer import CmiDeviceBuffer, DeviceRdmaOp
from repro.core.device_tags import TagGenerator
from repro.hardware.topology import Machine
from repro.obs.stages import LRTS_RECV_DEVICE, LRTS_SEND_DEVICE
from repro.ucx.context import UcpContext
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

    def set_error_handler(
        self, handler: Callable[[str, int, UcsStatus], None]
    ) -> None:
        """Install the layer-level communication-error upcall, invoked as
        ``handler(kind, tag, status)`` with kind "send"/"recv" when a device
        transfer fails and its record has no owner to tell.
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
        owner=None,
    ) -> int:
        """``LrtsSendDevice``: assign the device tag, store it in the
        metadata object, and send the GPU buffer through UCP; ``owner`` is
        told the outcome (``notify_sender()`` / ``send_failed(status)``).
        Returns the tag (also written to ``dev_buf.tag``)."""
        rt = self.cfg.runtime
        tag = self.tag_gens[src_pe].next_device_tag()
        dev_buf.tag = tag
        dev_buf.src_pe = src_pe
        worker = self.workers[src_pe]
        ep = worker.ep(dst_pe)
        delay = departure_delay + rt.lrts_send_device_overhead + rt.heap_alloc_cost
        dev_buf.layer = self
        dev_buf.owner = owner
        dev_buf.span = self.machine.tracer.stage(
            LRTS_SEND_DEVICE, tag, dst_pe, self._send_device_charge,
            (src_pe, dst_pe, dev_buf.size, tag),
        )
        self.sim.call_later(delay, self._launch_send, worker, ep, dev_buf)
        return tag

    def _launch_send(self, worker, ep, dev_buf: CmiDeviceBuffer) -> None:
        with self.machine.tracer.under(dev_buf.span):
            worker.tag_send_nb(ep, dev_buf.ptr, dev_buf.size, dev_buf.tag,
                               cb=dev_buf)

    def lrts_recv_device(self, pe: int, op: DeviceRdmaOp, departure_delay: float = 0.0) -> None:
        """``LrtsRecvDevice``: post the tagged receive for incoming GPU data;
        on completion, tell ``op.owner`` (``landed(op)``)."""
        rt = self.cfg.runtime
        op.layer = self
        op.span = self.machine.tracer.stage(  # _name_: the enum's plain field
            LRTS_RECV_DEVICE, op.tag, pe, self._recv_device_charge,
            (pe, op.size, op.tag, op.recv_type._name_),
        )
        delay = departure_delay + rt.lrts_recv_device_overhead + rt.heap_alloc_cost
        self.sim.call_later(delay, self._post_recv, self.workers[pe], op)

    def _post_recv(self, worker, op: DeviceRdmaOp) -> None:
        with self.machine.tracer.under(op.span):
            worker.tag_recv_nb(op.dest, op.size, op.tag, cb=op)
