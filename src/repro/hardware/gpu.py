"""GPUs, streams, and the kernel cost model.

A :class:`Stream` preserves CUDA's in-order execution semantics: operations
enqueued on one stream run one after another; ``synchronize`` completes when
everything enqueued so far has drained.  Kernels are cost-modelled as
memory-bandwidth-bound (the Jacobi stencil is) with a roofline fallback for
FLOP-bound kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent, Then
from repro.sim.resources import Resource


@dataclass(frozen=True)
class Kernel:
    """Cost description of one GPU kernel launch.

    ``bytes_moved`` is DRAM traffic (reads + writes); ``flops`` counts
    double-precision operations.  Duration is the roofline maximum of the
    two, plus the launch overhead charged by the stream.
    """

    name: str
    bytes_moved: int
    flops: int = 0
    body: Optional[Callable[[], None]] = None  # functional effect, if any

    def duration(self, mem_bandwidth: float, flop_rate: float) -> float:
        t_mem = self.bytes_moved / mem_bandwidth
        t_flop = self.flops / flop_rate if self.flops else 0.0
        return max(t_mem, t_flop)


@dataclass
class DeviceEventRecord:
    """A recorded cudaEvent: carries the completion event of the stream
    position at which it was recorded."""

    stream: "Stream"
    fence: SimEvent


class StreamOp(SimEvent):
    """One operation on a :class:`Stream`: its completion event, carrying
    what starts it.  ``_begin`` is the callback its predecessor fires."""

    __slots__ = ("start", "args")

    def _begin(self, _prev: Optional[SimEvent] = None) -> None:
        self.start(self, *self.args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StreamOp {self.start.__name__}{self.args} done={self._triggered}>"


class Stream:
    """An in-order CUDA stream.

    Operations are chained: each op starts when its predecessor's completion
    event fires.  ``enqueue`` takes a *starter*, called as ``start(op,
    *args)`` when the op's turn comes: it begins the operation and arranges
    for ``op.succeed(value)`` at its completion.
    """

    def __init__(self, sim: Simulator, gpu: "Gpu", index: int) -> None:
        self.sim = sim
        self.gpu = gpu
        self.index = index
        self._tail: Optional[SimEvent] = None
        self.ops_enqueued = 0

    def enqueue(self, start: Callable[..., None], *args) -> StreamOp:
        """Enqueue an async operation; returns its completion event."""
        op = StreamOp(self.sim, name="stream.op")
        op.start = start
        op.args = args
        self.ops_enqueued += 1
        tail = self._tail
        self._tail = op
        if tail is None or tail._triggered:
            op._begin()
        else:
            tail.add_callback(op._begin)
        return op

    def drained(self, then=None, then_args: tuple = ()) -> Optional[SimEvent]:
        """Run ``then(*then_args)`` when all currently-enqueued work has
        completed; without ``then``, return an event that fires then."""
        ev = None
        if then is None:
            ev = SimEvent(self.sim, name="stream.drained")
            then, then_args = ev.succeed, (None,)
        tail = self._tail
        if tail is None or tail._triggered:
            then(*then_args)
        else:
            tail.add_callback(Then((then, then_args)).run)
        return ev


class Gpu:
    """One V100: memory allocator lives in :class:`Machine`; this class owns
    streams and the kernel execution cost model."""

    #: double-precision roofline (V100: ~7 TF/s FP64)
    FLOP_RATE = 7.0e12

    def __init__(self, sim: Simulator, index: int, node: int, mem_bandwidth: float) -> None:
        self.sim = sim
        self.index = index
        self.node = node
        self.mem_bandwidth = mem_bandwidth
        self._streams: list[Stream] = []
        # Kernels from different streams share the SMs: model the execution
        # units as a single FIFO resource (memory-bound kernels saturate the
        # device, so concurrent kernels effectively serialise).
        self.exec_units = Resource(sim, capacity=1, name=f"gpu{index}.exec")
        self.default_stream = self.create_stream()
        self.kernels_launched = 0

    def create_stream(self) -> Stream:
        s = Stream(self.sim, self, len(self._streams))
        self._streams.append(s)
        return s

    def launch_kernel(
        self,
        kernel: Kernel,
        dur: float,
        stream: Optional[Stream] = None,
    ) -> SimEvent:
        """Launch ``kernel`` on ``stream`` (default stream if None) to run for
        ``dur`` seconds, launch included (``CudaRuntime.kernel_time``).

        The functional body (if any) runs when the kernel *completes*, so
        data dependencies through streams behave like CUDA's.
        """
        stream = stream or self.default_stream
        self.kernels_launched += 1
        return stream.enqueue(self._start_kernel, kernel, dur)

    def _start_kernel(self, op: StreamOp, kernel: Kernel, dur: float) -> None:
        if kernel.body is None:   # cost only: completion is the op's
            self.exec_units.occupy(dur, op.succeed, (None,))
        else:
            self.exec_units.occupy(dur, self._kernel_done, (op, kernel))

    @staticmethod
    def _kernel_done(op: StreamOp, kernel: Kernel) -> None:
        if kernel.body is not None:
            kernel.body()
        op.succeed(None)
