"""Device-aware collectives with topology-aware algorithm selection.

The paper's §VI names GPU-data collectives, built by translating to this
work's GPU-aware point-to-point layer, as future work; this package is that
subsystem.  Layout:

* :mod:`~repro.collectives.ops` — the :class:`ReduceOp` enum and device
  combine/copy kernels shared by every model;
* :mod:`~repro.collectives.algorithms` — flat ring / binomial-tree /
  recursive-doubling algorithms over a :class:`CollContext`;
* :mod:`~repro.collectives.hierarchy` — two-level variants decomposed via
  ``hardware.topology`` (intra-node phases over NVLink, inter-node over
  the NIC);
* :mod:`~repro.collectives.selection` — the :class:`AlgorithmSpec`
  registry and link-model-derived cost ranking (``MachineConfig.collectives``
  holds the override knobs);
* :mod:`~repro.collectives.engine` — the execution context, tag
  namespacing and ``*_device`` entry points, which run on the calling
  rank (any :class:`~repro.ampi.mpi.MpiRank`: its ``coll_send``/
  ``coll_recv``, ``node_of`` and ``software_overhead``);
* :mod:`~repro.collectives.value` — the host-value collectives
  (barrier/bcast/.../alltoall) shared by AMPI world and sub-communicators.

Applications use the communicator-method API (``mpi.allreduce_device(buf,
nbytes, op=ReduceOp.SUM, algorithm=...)``) rather than calling this package
directly.
"""

from repro.collectives import algorithms as _algorithms  # noqa: F401  (registry)
from repro.collectives import hierarchy as _hierarchy  # noqa: F401  (registry)
from repro.collectives.engine import (
    COLL_COMM,
    CollContext,
    allgather_device,
    allreduce_device,
    bcast_device,
    reduce_device,
)
from repro.collectives.ops import DEVICE_OPS, ReduceOp
from repro.collectives.selection import (
    AlgorithmSpec,
    CollectiveCostModel,
    available_algorithms,
    select,
)

__all__ = [
    "AlgorithmSpec",
    "COLL_COMM",
    "CollContext",
    "CollectiveCostModel",
    "DEVICE_OPS",
    "ReduceOp",
    "allgather_device",
    "allreduce_device",
    "available_algorithms",
    "bcast_device",
    "reduce_device",
    "select",
]
