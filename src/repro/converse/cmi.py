"""The Converse runtime: PEs, handler registry, and the Cmi* entry points.

Converse is where layer-specific headers are "added or extracted" (paper
Fig. 1): programming models register named handlers; :meth:`Converse.dispatch`
routes each arriving :class:`CmiMessage` to its handler on the owning PE.
``CmiSendDevice``/``CmiRecvDevice`` forward to the machine layer, adding the
Converse-level metadata handling costs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import MachineConfig
from repro.converse.message import CmiMessage
from repro.converse.pe import Pe
from repro.core.device_buffer import CmiDeviceBuffer, DeviceRdmaOp
from repro.core.machine_ucx import UcxMachineLayer
from repro.hardware.topology import Machine
from repro.obs.stages import CMI_RECV_DEVICE, CMI_SEND, CMI_SEND_DEVICE


class Converse:
    """One Converse instance spanning all PEs of the simulated job."""

    def __init__(self, machine: Machine, machine_layer: UcxMachineLayer,
                 pe_node: List[int], pe_gpu: List[Optional[int]]) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.cfg: MachineConfig = machine.cfg
        self.runtime_cfg = machine.cfg.runtime
        self.layer = machine_layer
        self.pes: List[Pe] = [
            Pe(self, i, pe_node[i], pe_gpu[i]) for i in range(len(pe_node))
        ]
        self._handlers: Dict[str, Callable[[Pe, CmiMessage], None]] = {}
        machine_layer.attach(self._deliver)

    @property
    def n_pes(self) -> int:
        return len(self.pes)

    # -- handlers -------------------------------------------------------------
    def register_handler(self, name: str, fn: Callable[[Pe, CmiMessage], None]) -> None:
        if name in self._handlers:
            raise ValueError(f"handler {name!r} already registered")
        self._handlers[name] = fn

    def dispatch(self, pe: Pe, msg: CmiMessage):
        """Run the handler; if it returns a generator (a *threaded* entry
        method), hand it back to the PE scheduler to drive as a process."""
        handler = self._handlers.get(msg.handler)
        if handler is None:
            raise RuntimeError(f"no Converse handler named {msg.handler!r}")
        return handler(pe, msg)

    def _deliver(self, dst_pe: int, msg: CmiMessage) -> None:
        self.pes[dst_pe].enqueue(msg)

    # -- messaging -----------------------------------------------------------------
    def cmi_send(self, src_pe: int, msg: CmiMessage) -> None:
        """Send a packed host-side message (``CmiSyncSendAndFree`` moral
        equivalent).  The departure observes the sending PE's current CPU
        debt, so marshalling time sequences correctly before injection."""
        rt = self.runtime_cfg
        wire = msg.wire_size(rt.converse_header_bytes, rt.device_metadata_bytes)
        pe = self.pes[src_pe]
        with self.machine.tracer.scope(CMI_SEND, attrs=(msg.handler, wire)):
            self.layer.send_host_message(
                src_pe, msg.dst_pe, msg, wire, departure_delay=pe.debt
            )

    def cmi_send_device(
        self,
        src_pe: int,
        dst_pe: int,
        dev_buf: CmiDeviceBuffer,
        owner=None,
    ) -> int:
        """``CmiSendDevice`` (paper Fig. 6, step 2): hand the GPU buffer to
        the machine layer; the assigned tag lands in ``dev_buf.tag`` and
        ``owner`` is told how the send ends."""
        pe = self.pes[src_pe]
        with self.machine.tracer.scope(
            CMI_SEND_DEVICE, attrs=(src_pe, dst_pe, dev_buf.size)
        ):
            return self.layer.lrts_send_device(
                src_pe, dst_pe, dev_buf,
                departure_delay=pe.debt,
                owner=owner,
            )

    def cmi_recv_device(self, pe_index: int, op: DeviceRdmaOp) -> None:
        """``CmiRecvDevice``: post the receive for announced GPU data."""
        pe = self.pes[pe_index]
        with self.machine.tracer.scope(CMI_RECV_DEVICE, attrs=(pe_index, op.size)):
            self.layer.lrts_recv_device(
                pe_index, op, departure_delay=pe.debt
            )
