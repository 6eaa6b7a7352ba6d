"""Adaptive MPI: an MPI library over the Charm++ runtime system.

Each AMPI rank is a chare-like entity scheduled on a PE (paper §II-D);
communication travels through Converse and the UCX machine layer, which is
what lets a single machine-layer extension make ``MPI_Send``/``MPI_Recv``
CUDA-aware (paper §III-C): device buffers are detected through a per-PE
pointer cache, wrapped in ``CkDeviceBuffer`` metadata that rides inside the
AMPI envelope, and moved GPU-to-GPU by UCX while the envelope performs the
host-side matching.

Rank programs are generator functions driven by the simulator::

    def program(mpi):
        if mpi.rank == 0:
            yield mpi.send(buf, buf.size, dst=1, tag=7)
        else:
            status = yield mpi.recv(buf, buf.size, src=0, tag=7)

    ampi = Ampi(charm)
    done = ampi.launch(program)
    charm.run_until(done)

Collectives compose over point-to-point and are used with ``yield from``.
"""

from repro.ampi.mpi import ANY_SOURCE, ANY_TAG, Ampi, AmpiRank, MpiStatus
from repro.ampi.request import MpiRequest

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Ampi",
    "AmpiRank",
    "MpiRequest",
    "MpiStatus",
]
