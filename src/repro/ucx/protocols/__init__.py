"""UCP protocol implementations: eager, rendezvous, and the device
transports (GDRCopy eager, CUDA-IPC rendezvous, pipelined host staging).

The split mirrors how UCX layers UCP protocols over UCT transports:

* :mod:`repro.ucx.protocols.select` — choose eager vs rendezvous from the
  source memory type and size thresholds (``UCX_RNDV_THRESH``-style).
* :mod:`repro.ucx.protocols.eager` — copy-in / wire / copy-out; device
  buffers stage through GDRCopy (or slow cudaMemcpy staging when GDRCopy is
  not detected — the paper's §IV-B1 caveat).
* :mod:`repro.ucx.protocols.rndv` — RTS control message, receiver-driven
  data fetch, FIN back to the sender.  The lane (CMA, CUDA IPC, pipelined
  staging, GPUDirect RDMA, RDMA get) is chosen at *match* time from both
  buffers' locations, by one function, ``rndv_lane``.
* :mod:`repro.ucx.protocols.am` — the host-message (active-message) path
  with the same eager / RTS + single-copy-fetch cost structure.
* :mod:`repro.ucx.protocols.pipeline` — inter-node device rendezvous via
  chunked host staging with double buffering.
"""

from repro.ucx.protocols.select import Protocol, choose_send_protocol

__all__ = ["Protocol", "choose_send_protocol"]
