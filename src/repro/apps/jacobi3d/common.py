"""Shared per-block state and result collection for the Jacobi3D variants."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.apps.jacobi3d.decomposition import Decomposition
from repro.apps.jacobi3d.kernels import pack_kernel, stencil_kernel, unpack_kernel
from repro.hardware.cuda import CudaRuntime
from repro.hardware.memory import Buffer
from repro.sim.primitives import SimEvent

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


def initial_field(decomp: Decomposition) -> np.ndarray:
    """Deterministic nonzero initial condition over the global domain —
    a smooth product of sines, so functional tests exercise real halo data."""
    import numpy as np

    nx, ny, nz = decomp.domain
    x = np.sin(2.0 * np.pi * np.arange(nx) / nx)
    y = np.cos(2.0 * np.pi * np.arange(ny) / ny)
    z = np.sin(4.0 * np.pi * np.arange(nz) / nz) + 1.5
    return x[:, None, None] * y[None, :, None] * z[None, None, :]


def initial_block(decomp: Decomposition, rank: int) -> np.ndarray:
    """This block's slice of :func:`initial_field`."""
    bx, by, bz = decomp.block
    x, y, z = decomp.coords(rank)
    return initial_field(decomp)[
        x * bx:(x + 1) * bx, y * by:(y + 1) * by, z * bz:(z + 1) * bz
    ]


class BlockState:
    """Device/host buffers and kernels of one Jacobi block.

    ``functional=True`` builds the ghosted field ``u``/``u_new`` as NumPy
    arrays (small grids only) and makes the kernels write the per-face send
    and ghost buffers, so tests can verify the distributed sweep
    bit-for-bit.  Otherwise no kernel touches a byte (the buffers stay
    size-only) and only the cost model runs.  Send and ghost buffers are
    double-buffered by iteration parity so a fast neighbour's
    next-iteration halo never clobbers in-flight data.
    """

    def __init__(
        self,
        cuda: CudaRuntime,
        gpu: int,
        decomp: Decomposition,
        rank: int,
        functional: bool = False,
    ) -> None:
        self.cuda = cuda
        self.gpu = gpu
        self.decomp = decomp
        self.rank = rank
        self.functional = functional
        self.node = cuda.machine.node_of_gpu(gpu)
        self.stream = cuda.create_stream(gpu)
        self.neighbors = decomp.neighbors(rank)
        bx, by, bz = decomp.block
        cells = decomp.cells_per_block

        if functional:
            import numpy as np

            self.u: Optional[np.ndarray] = np.zeros((bx + 2, by + 2, bz + 2))
            x0, y0, z0 = decomp.coords(rank)
            self.u[1:-1, 1:-1, 1:-1] = initial_block(decomp, rank)
            self.u_new: Optional[np.ndarray] = self.u.copy()
        else:
            self.u = self.u_new = None
        # interior field on the device (cost/capacity accounting)
        self.d_field = cuda.malloc(gpu, 2 * cells * decomp.dtype_bytes)

        self.d_send: Dict[str, List[Buffer]] = {}
        self.d_ghost: Dict[str, List[Buffer]] = {}
        self.h_send: Dict[str, Buffer] = {}
        self.h_recv: Dict[str, Buffer] = {}
        for d, _nbr in self.neighbors:
            fb = decomp.face_bytes(d)
            self.d_send[d] = [cuda.malloc(gpu, fb) for _ in range(2)]
            self.d_ghost[d] = [cuda.malloc(gpu, fb) for _ in range(2)]
            self.h_send[d] = cuda.malloc_host(self.node, fb)
            self.h_recv[d] = cuda.malloc_host(self.node, fb)

    # -- helpers -------------------------------------------------------------
    def _arr(self, buf: Buffer) -> Optional[np.ndarray]:
        return buf.data.view("f8") if self.functional else None

    def face_bytes(self, d: str) -> int:
        return self.decomp.face_bytes(d)

    # -- phases (each returns a stream-synchronised completion event) ------------
    def pack(self, parity: int) -> SimEvent:
        """Pack every outgoing face into its send buffer."""
        for d, _ in self.neighbors:
            buf = self.d_send[d][parity]
            k = pack_kernel(d, self.face_bytes(d), self.u, self._arr(buf))
            self.cuda.launch(self.gpu, k, self.stream)
        return self.cuda.stream_synchronize(self.stream)

    def unpack(self, parity: int) -> SimEvent:
        for d, _ in self.neighbors:
            buf = self.d_ghost[d][parity]
            k = unpack_kernel(d, self.face_bytes(d), self.u, self._arr(buf))
            self.cuda.launch(self.gpu, k, self.stream)
        return self.cuda.stream_synchronize(self.stream)

    def compute(self) -> SimEvent:
        k = stencil_kernel(self.decomp.cells_per_block, self.u, self.u_new)
        self.cuda.launch(self.gpu, k, self.stream)
        return self.cuda.stream_synchronize(self.stream)

    def residual(self) -> SimEvent:
        """Launch the residual kernel (max |u_new - u| over the interior);
        the completion event's local result is read via :attr:`last_residual`.
        Functional mode computes the real value; virtual mode costs only."""
        from repro.hardware.gpu import Kernel

        self.last_residual = 0.0

        def body() -> None:
            if self.u is not None and self.u_new is not None:
                diff = abs(
                    self.u_new[1:-1, 1:-1, 1:-1] - self.u[1:-1, 1:-1, 1:-1]
                )
                self.last_residual = float(diff.max())

        k = Kernel(
            "residual",
            bytes_moved=2 * self.decomp.cells_per_block * self.decomp.dtype_bytes,
            body=body if self.functional else None,
        )
        if not self.functional:
            # at paper scale there is no data; keep a deterministic proxy
            self.last_residual = 1.0
        self.cuda.launch(self.gpu, k, self.stream)
        return self.cuda.stream_synchronize(self.stream)

    def swap(self) -> None:
        if self.functional:
            self.u, self.u_new = self.u_new, self.u

    # -- host staging (the -H variants) ----------------------------------------
    def stage_out(self, parity: int) -> SimEvent:
        """DtoH-copy every packed face into host staging buffers."""
        for d, _ in self.neighbors:
            self.cuda.memcpy_dtoh(
                self.h_send[d], self.d_send[d][parity], self.stream, self.face_bytes(d)
            )
        return self.cuda.stream_synchronize(self.stream)

    def stage_in(self, d: str, parity: int) -> SimEvent:
        """HtoD-copy one received face from host staging to the ghost buffer."""
        self.cuda.memcpy_htod(
            self.d_ghost[d][parity], self.h_recv[d], self.stream, self.face_bytes(d)
        )
        return self.cuda.stream_synchronize(self.stream)


@dataclass
class BlockTimings:
    iter_times: List[float] = field(default_factory=list)
    comm_times: List[float] = field(default_factory=list)


class ResultCollector:
    """Gathers per-block timings (and final fields in functional mode)."""

    def __init__(self, sim, n_blocks: int, warmup: int) -> None:
        self.n_blocks = n_blocks
        self.warmup = warmup
        self.timings: Dict[int, BlockTimings] = {}
        self.fields: Dict[int, np.ndarray] = {}
        self.done = SimEvent(sim, name="jacobi.done")

    def report(self, rank: int, timings: BlockTimings,
               field_arr: Optional[np.ndarray] = None) -> None:
        if rank in self.timings:
            raise RuntimeError(f"block {rank} reported twice")
        self.timings[rank] = timings
        if field_arr is not None:
            self.fields[rank] = field_arr
        if len(self.timings) == self.n_blocks:
            self.done.succeed(None)

    # -- aggregation ------------------------------------------------------------
    def _per_iteration_max(self, attr: str) -> List[float]:
        counts = {len(getattr(t, attr)) for t in self.timings.values()}
        if len(counts) != 1:
            raise RuntimeError("blocks measured different iteration counts")
        n = counts.pop()
        return [
            max(getattr(t, attr)[i] for t in self.timings.values())
            for i in range(self.warmup, n)
        ]

    def avg_iter_time(self) -> float:
        times = self._per_iteration_max("iter_times")
        return sum(times) / len(times)

    def avg_comm_time(self) -> float:
        times = self._per_iteration_max("comm_times")
        return sum(times) / len(times)

    def assemble(self, decomp: Decomposition) -> np.ndarray:
        """Stitch the interior of every block's field into the global array
        (functional mode only)."""
        import numpy as np

        nx, ny, nz = decomp.domain
        out = np.zeros((nx, ny, nz))
        bx, by, bz = decomp.block
        for rank, u in self.fields.items():
            x, y, z = decomp.coords(rank)
            out[x * bx:(x + 1) * bx, y * by:(y + 1) * by, z * bz:(z + 1) * bz] = (
                u[1:-1, 1:-1, 1:-1]
            )
        return out


def halo_tag(direction_index: int, iteration: int) -> int:
    """MPI tag encoding (direction, iteration) for the halo exchange."""
    return 700 + direction_index * 64 + (iteration % 64)
