"""A CUDA-runtime-like facade over the simulated hardware.

This is the API that *application-level host staging* uses (the ``-H``
benchmark variants and Fig. 8's ``CudaDtoH``/``CudaHtoD`` calls), and that
UCX's device transports build on (IPC handles, staged copies).  Costs follow
:class:`repro.config.CudaConfig`: every memcpy pays a launch overhead, every
synchronize pays a sync overhead — the fixed costs that make host staging
so much slower than GPU-aware transfer for small messages.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.hardware.gpu import Gpu, Kernel, Stream
from repro.hardware.links import path_transfer
from repro.hardware.memory import Buffer
from repro.hardware.topology import Machine
from repro.sim.primitives import SimEvent


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
        # base allocation address -> the GPUs that opened it, as a bitmask
        # (bit g: GPU g): UCX's IPC handle cache.  A real free drops the
        # allocation's entry (pool returns run no free hook, so a pooled
        # slab stays open while it lives).
        self._ipc_open_cache: Dict[int, int] = {}
        # (name, bytes, flops, GPU bandwidth) -> a shared (kernel, time)
        # pair; (caller's key, GPU bandwidth) -> a shared sequence of them
        self._priced: Dict[tuple, Tuple[Kernel, float]] = {}
        self._priced_seqs: Dict[tuple, Tuple[Tuple[Kernel, float], ...]] = {}
        machine.add_device_free_hook(self._drop_ipc_opens)

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
        return self._gpus[gpu].launch_kernel(kernel, self.kernel_time(gpu, kernel), stream)

    def kernel_time(self, gpu: int, kernel: Kernel) -> float:
        """Launch to completion of ``kernel`` on ``gpu``'s idle execution units."""
        g = self._gpus[gpu]
        return self.cfg.kernel_launch_overhead + kernel.duration(g.mem_bandwidth, g.FLOP_RATE)

    def priced(self, gpu: int, key: Hashable, kernels: Iterable[Kernel]
               ) -> Tuple[Tuple[Kernel, float], ...]:
        """``kernels`` (body-less), each with its :meth:`kernel_time` on
        ``gpu``, for a caller that launches them again and again
        (``gpu(g).launch_kernel(kernel, time, stream)`` is :meth:`launch`
        with the time known).  ``key`` names the sequence: per key and GPU
        bandwidth ``kernels`` (which may be a generator) is consumed once
        and the tuple shared by every caller; a kernel of the same name and
        size in another sequence is the same shared pair."""
        bandwidth = self._gpus[gpu].mem_bandwidth
        seq = self._priced_seqs.get((key, bandwidth))
        if seq is None:
            pairs = []
            for kernel in kernels:
                if kernel.body is not None:
                    raise ValueError("only a body-less kernel is shared")
                k = (kernel.name, kernel.bytes_moved, kernel.flops, bandwidth)
                pair = self._priced.get(k)
                if pair is None:
                    pair = self._priced[k] = (kernel, self.kernel_time(gpu, kernel))
                pairs.append(pair)
            seq = self._priced_seqs[(key, bandwidth)] = tuple(pairs)
        return seq

    # -- IPC -----------------------------------------------------------------------
    def ipc_open_cost(self, opener_gpu: int, buf: Buffer) -> float:
        """Cost of mapping ``buf`` into ``opener_gpu`` over CUDA IPC.  The
        first open by a given GPU is expensive; UCX caches opened handles,
        so repeats are nearly free (paper §I cites exactly this optimisation
        burden for hand-rolled IPC).  CUDA IPC opens whole allocations, so a
        sub-range view (a pooled block, a chunk of one buffer) shares its
        base allocation's entry.  Counts ``cuda_ipc.open_new`` /
        ``cuda_ipc.open_cached``."""
        if not buf.on_device:
            raise ValueError("IPC handles are for device buffers")
        base = buf.address if buf.base is None else buf.base.address
        openers = self._ipc_open_cache.get(base, 0)
        if openers >> opener_gpu & 1:
            self.machine.tracer.count("cuda_ipc", "open_cached")
            return self.cfg.ipc_cached_open_cost
        self._ipc_open_cache[base] = openers | 1 << opener_gpu
        self.machine.tracer.count("cuda_ipc", "open_new")
        return self.cfg.ipc_handle_open_cost

    def _drop_ipc_opens(self, buf: Buffer) -> None:
        """Real free of a buffer: its IPC opens die (free-hook callback)."""
        self._ipc_open_cache.pop(
            buf.address if buf.base is None else buf.base.address, None)
