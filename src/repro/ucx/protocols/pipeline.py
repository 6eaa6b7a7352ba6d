"""Chunk-pipelined host staging for inter-node device rendezvous.

When a rendezvous transfer crosses nodes and touches device memory (and
GPUDirect RDMA is not available — the Summit configuration the paper ran),
UCX stages the data through host bounce buffers in chunks: DtoH of chunk
*i+1* overlaps the NIC transfer of chunk *i*, which overlaps HtoD of chunk
*i-1*.  With double buffering the steady-state rate is the bottleneck link
(the NIC), and the ends contribute one fill and one drain of a single chunk
through the staging links.

Total time modelled::

    fill  = chunk / dtoh_bw            (first chunk reaches host memory)
    wire  = size / nic_bw              (steady state, the bottleneck)
    drain = chunk / htod_bw            (last chunk leaves host memory)
    odds  = nchunks * per_chunk_cost   (progress calls, DMA kicks)

The occupancy charged to the links is handled by the caller (the full
device route is held for the wire time); this module only computes the
*extra* time beyond bottleneck serialisation.
"""

from __future__ import annotations

import math

from repro.config import MachineConfig


def pipeline_chunks(cfg: MachineConfig, size: int) -> int:
    """Number of staging chunks a pipelined transfer of ``size`` bytes uses."""
    if size <= 0:
        return 0
    return math.ceil(size / cfg.ucx.pipeline_chunk)


def pipeline_extra_time(cfg: MachineConfig, size: int) -> float:
    """Extra latency of the pipelined path beyond ``size / nic_bw``."""
    ucx = cfg.ucx
    topo = cfg.topology
    chunk = min(ucx.pipeline_chunk, size) if size > 0 else 0
    if chunk == 0:
        return 0.0
    nchunks = pipeline_chunks(cfg, size)
    fill = chunk / topo.nvlink.bandwidth
    drain = chunk / topo.nvlink.bandwidth
    odds = nchunks * ucx.pipeline_per_chunk_cost
    return fill + drain + odds

