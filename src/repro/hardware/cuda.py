"""A CUDA-runtime-like facade over the simulated hardware.

This is the API that *application-level host staging* uses (the ``-H``
benchmark variants and Fig. 8's ``CudaDtoH``/``CudaHtoD`` calls), and that
UCX's device transports build on (IPC handles, staged copies).  Costs follow
:class:`repro.config.CudaConfig`: every memcpy pays a launch overhead, every
synchronize pays a sync overhead — the fixed costs that make host staging
so much slower than GPU-aware transfer for small messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.hardware.gpu import Gpu, Kernel, Stream
from repro.hardware.links import path_transfer
from repro.hardware.memory import Buffer
from repro.hardware.topology import Machine
from repro.sim.primitives import SimEvent


@dataclass(frozen=True)
class IpcHandle:
    """A CUDA IPC memory handle for a device buffer."""

    buffer_address: int
    device: int
    size: int


class CudaRuntime:
    """Simulated CUDA runtime bound to one :class:`Machine`."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.cfg = machine.cfg.cuda
        self._gpus: Dict[int, Gpu] = {
            g: Gpu(self.sim, g, machine.node_of_gpu(g), machine.cfg.topology.gpu_mem_bandwidth)
            for g in range(machine.cfg.topology.total_gpus)
        }
        self._ipc_registry: Dict[int, Buffer] = {}
        # (opener_gpu, handle address) -> opened;  models UCX's IPC handle cache
        self._ipc_open_cache: Dict[Tuple[int, int], bool] = {}

    # -- devices / streams ------------------------------------------------------
    def gpu(self, index: int) -> Gpu:
        return self._gpus[index]

    def create_stream(self, gpu: int) -> Stream:
        return self._gpus[gpu].create_stream()

    # -- memory -------------------------------------------------------------------
    def malloc(self, gpu: int, size: int) -> Buffer:
        return self.machine.alloc_device(gpu, size)

    def free(self, buf: Buffer) -> None:
        self.machine.free_device(buf)

    def malloc_host(self, node: int, size: int) -> Buffer:
        """Pinned host allocation (pinning cost not modelled; Charm++ and the
        benchmarks allocate staging buffers once and reuse them)."""
        return self.machine.alloc_host(node, size)

    # -- copies -------------------------------------------------------------------
    def memcpy_async(
        self,
        dst: Buffer,
        src: Buffer,
        stream: Stream,
        nbytes: Optional[int] = None,
    ) -> SimEvent:
        """cudaMemcpyAsync: enqueue a DMA on ``stream``; completion event is
        returned.  Direction (DtoH/HtoD/DtoD) is inferred from the buffers."""
        n = nbytes if nbytes is not None else min(dst.size, src.size)
        links = self.machine.route(
            self.machine.location_of(src), self.machine.location_of(dst)
        )
        return stream.enqueue(
            self._start_memcpy, links, n, self.cfg.memcpy_launch_overhead, dst, src)

    def _start_memcpy(self, op, links, n: int, launch: float,
                      dst: Buffer, src: Buffer) -> None:
        path_transfer(self.sim, links, n, launch,
                      self._memcpy_done, (op, dst, src, n))

    @staticmethod
    def _memcpy_done(op, dst: Buffer, src: Buffer, n: int) -> None:
        dst.copy_from(src, n)
        op.succeed(None)

    def memcpy_dtoh(self, dst: Buffer, src: Buffer, stream: Stream, nbytes=None) -> SimEvent:
        if not src.on_device or dst.on_device:
            raise ValueError("memcpy_dtoh needs device src and host dst")
        return self.memcpy_async(dst, src, stream, nbytes)

    def memcpy_htod(self, dst: Buffer, src: Buffer, stream: Stream, nbytes=None) -> SimEvent:
        if src.on_device or not dst.on_device:
            raise ValueError("memcpy_htod needs host src and device dst")
        return self.memcpy_async(dst, src, stream, nbytes)

    def stream_synchronize(self, stream: Stream) -> SimEvent:
        """cudaStreamSynchronize: completes ``sync_overhead`` after the
        stream drains (spin-wait cost on the calling CPU)."""
        done = SimEvent(self.sim, name="streamSync")
        stream.drained(self.sim.call_later,
                       (self.cfg.stream_sync_overhead, done.succeed, None))
        return done

    # -- kernels -------------------------------------------------------------------
    def launch(self, gpu: int, kernel: Kernel, stream: Optional[Stream] = None) -> SimEvent:
        return self._gpus[gpu].launch_kernel(
            kernel, stream, launch_overhead=self.cfg.kernel_launch_overhead
        )

    # -- IPC -----------------------------------------------------------------------
    def ipc_get_handle(self, buf: Buffer) -> IpcHandle:
        if not buf.on_device:
            raise ValueError("IPC handles are for device buffers")
        self._ipc_registry[buf.address] = buf
        return IpcHandle(buf.address, buf.device, buf.size)

    def ipc_open_cost(self, opener_gpu: int, handle: IpcHandle) -> float:
        """First open of a handle by a given GPU is expensive; UCX caches
        opened handles, so repeats are nearly free (paper §I cites exactly
        this optimisation burden for hand-rolled IPC).  Sub-range views
        share their base allocation's handle — CUDA IPC opens whole
        allocations, so chunked sends out of one buffer open once."""
        buf = self._ipc_registry.get(handle.buffer_address)
        base = buf.base if buf is not None and buf.base is not None else buf
        key = (opener_gpu, base.address if base is not None else handle.buffer_address)
        if key in self._ipc_open_cache:
            return self.cfg.ipc_cached_open_cost
        self._ipc_open_cache[key] = True
        return self.cfg.ipc_handle_open_cost
