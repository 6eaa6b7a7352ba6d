"""Host and device buffers whose bytes exist once something touches them.

A :class:`Buffer` is the unit every layer passes around: it knows *where* it
lives (host memory of a node, or the memory of a specific GPU) and *how big*
it is.  Timing is charged from sizes alone, so a buffer holds no array until
a program reads or writes its bytes (:attr:`Buffer.data` builds the zeros on
first access).  A run that never touches a payload — the benchmarks,
gigabytes of Jacobi domain — allocates none, and need not load NumPy: byte
moves go through ``memoryview`` and :func:`is_ndarray` asks ``sys.modules``.

Buffers have process-unique integer ``address``\\ es; AMPI's device-pointer
software cache (paper §III-C) keys on these, exactly as the real
implementation caches raw CUDA pointers.
"""

from __future__ import annotations

import enum
import itertools
import sys
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class MemoryKind(enum.Enum):
    HOST = "host"
    DEVICE = "device"


class OutOfMemory(RuntimeError):
    """Device allocator exhausted (V100s have 16 GB)."""


_address_counter = itertools.count(0x7F00_0000_0000)


def is_ndarray(obj: Any) -> bool:
    """True when ``obj`` is a NumPy array.  Never imports NumPy: if no code
    has imported it, no object can be an ndarray."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray)


class Buffer:
    """A sized region of host or device memory.

    Parameters
    ----------
    kind:
        HOST or DEVICE.
    size:
        Size in bytes; must be positive.
    node:
        Index of the owning node.
    device:
        GPU index *within the machine* for DEVICE buffers; ``None`` for host.
    data:
        Optional C-contiguous NumPy array to wrap (its bytes are the
        payload); ``data.nbytes`` must equal ``size``.  Without it the bytes
        are zeros, built on first access to :attr:`data`.
    """

    __slots__ = ("kind", "on_device", "size", "node", "device", "_data",
                 "address", "freed", "base", "offset")

    def __init__(
        self,
        kind: MemoryKind,
        size: int,
        node: int,
        device: Optional[int] = None,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"buffer size must be positive, got {size}")
        if kind is MemoryKind.DEVICE and device is None:
            raise ValueError("device buffers need a device index")
        if kind is MemoryKind.HOST and device is not None:
            raise ValueError("host buffers must not name a device")
        if data is not None:
            if data.nbytes != size:
                raise ValueError(f"data is {data.nbytes} bytes but size={size}")
            if not data.flags.c_contiguous:
                raise ValueError(
                    "buffer data must be C-contiguous; pass "
                    "np.ascontiguousarray(data)")
        self.kind = kind
        self.on_device = kind is MemoryKind.DEVICE  # read on every message
        self.size = size
        self.node = node
        self.device = device
        self._data = data
        self.address = next(_address_counter)
        self.freed = False
        self.base: Optional["Buffer"] = None  # set on sub-range views
        self.offset = 0  # byte offset into ``base``

    @property
    def data(self) -> np.ndarray:
        """The payload, built as zeros on first access; a view slices its
        base's bytes."""
        data = self._data
        if data is None:
            base = self.base
            if base is None:
                import numpy as np  # loaded by the first touched payload only

                data = np.zeros(self.size, dtype=np.uint8)
            else:
                start = self.offset
                data = base.data.reshape(-1).view("u1")[start:start + self.size]
            self._data = data
        return data

    # -- predicates ---------------------------------------------------------
    @property
    def is_virtual(self) -> bool:
        """True while nothing has touched the bytes (size only, no array)."""
        base = self.base
        return self._data is None and (base is None or base._data is None)

    # -- functional payload movement -----------------------------------------
    def copy_from(self, src: "Buffer", nbytes: Optional[int] = None) -> None:
        """Copy payload bytes from ``src`` (functional effect only; timing is
        charged by whoever calls this).  Bytes move only when ``src`` has
        them; an untouched ``src`` reads as zeros, so it zero-fills the range
        of a destination that has bytes and leaves an untouched one alone.
        The bytes move through ``memoryview`` (payloads are C-contiguous)."""
        if self.freed or src.freed:
            raise RuntimeError("use-after-free of a Buffer")
        n = self.size if nbytes is None else nbytes
        if n > self.size or n > src.size:
            raise ValueError(
                f"copy of {n} bytes exceeds buffer sizes (dst={self.size}, src={src.size})"
            )
        # the is_virtual tests, spelled out on the slots: no call per copy
        base = src.base
        if src._data is not None or (base is not None and base._data is not None):
            memoryview(self.data).cast("B")[:n] = memoryview(src.data).cast("B")[:n]
            return
        base = self.base
        if self._data is not None or (base is not None and base._data is not None):
            memoryview(self.data).cast("B")[:n] = bytes(n)

    def view(self, offset: int, nbytes: int) -> "Buffer":
        """A sub-range view sharing this buffer's payload memory (the
        collectives send/combine per-rank blocks of one allocation; a pooled
        block is a view of its slab).  Views have their own ``address`` —
        address-keyed caches (the GPU-pointer cache) treat them as distinct
        pointers, as CUDA does for ``base + offset``."""
        if self.freed:
            raise RuntimeError("view of a freed Buffer")
        if offset < 0 or nbytes <= 0 or offset + nbytes > self.size:
            raise ValueError(
                f"view [{offset}, {offset + nbytes}) outside a {self.size} B buffer"
            )
        out = Buffer(self.kind, nbytes, self.node, self.device)
        out.base = self if self.base is None else self.base
        out.offset = self.offset + offset
        return out

    def fill(self, byte: int) -> None:
        self.data.reshape(-1).view("u1")[:] = byte

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = f"gpu{self.device}" if self.on_device else f"host(node{self.node})"
        tag = "virtual" if self.is_virtual else "real"
        return f"<Buffer {tag} {self.size}B @{where} addr=0x{self.address:x}>"


class DeviceAllocator:
    """Bump allocator with capacity tracking for one GPU's memory."""

    def __init__(self, capacity: int, device: int, node: int) -> None:
        self.capacity = capacity
        self.device = device
        self.node = node
        self.used = 0
        self.live_buffers = 0
        self._free_hooks: list = []

    def add_free_hook(self, hook) -> None:
        """Register ``hook(buf)`` to run when a buffer of this GPU is freed.

        Address-keyed caches (AMPI's GPU-pointer cache, §III-C) must drop a
        freed buffer's address here: the driver can hand the same address to
        a later allocation — even a host one — and a stale cache entry would
        keep answering "device memory" for it.
        """
        self._free_hooks.append(hook)

    def alloc(self, size: int) -> Buffer:
        if self.used + size > self.capacity:
            raise OutOfMemory(
                f"GPU {self.device}: requested {size} bytes, "
                f"{self.capacity - self.used} free of {self.capacity}"
            )
        self.used += size
        self.live_buffers += 1
        return Buffer(MemoryKind.DEVICE, size, self.node, self.device)

    def free(self, buf: Buffer) -> None:
        if buf.device != self.device:
            raise ValueError("buffer belongs to a different GPU")
        if buf.freed:
            raise RuntimeError("double free")
        buf.freed = True
        self.used -= buf.size
        self.live_buffers -= 1
        for hook in self._free_hooks:
            hook(buf)


class _Slab:
    """One backing allocation a pool carves blocks from."""

    __slots__ = ("buffer", "bump")

    def __init__(self, buffer: Buffer) -> None:
        self.buffer = buffer
        self.bump = 0  # carve offset


class _Block:
    """A size-class block carved out of a slab.

    The ``buffer`` object is created once and handed out again on every
    reuse: the address — and with it every address-keyed cache entry (NIC
    registration, IPC handle, peer mapping) — survives return-to-pool.
    """

    __slots__ = ("buffer", "class_size", "live")

    def __init__(self, buffer: Buffer, class_size: int) -> None:
        self.buffer = buffer
        self.class_size = class_size
        self.live = True


class PooledAllocator:
    """RMM-style slab pool over a backing :class:`DeviceAllocator`.

    Allocation rounds the request up to a power-of-two size class (at least
    ``pool_bin_quantum``), then reuses the most-recently-returned block of
    that class (LIFO — deterministic, and the hottest block has the warmest
    caches).  A miss carves a new block out of the current slab, growing the
    pool by whole slabs from the backing allocator as needed.

    ``free`` is a *pool return*: the block's buffer is NOT marked freed and
    the backing allocator's free hooks do NOT run — keeping registrations,
    IPC handles, and peer mappings valid is the entire point of pooling.
    Slabs are never given back to the device.
    """

    def __init__(self, backing: DeviceAllocator, policy, count=None) -> None:
        self.backing = backing
        self.policy = policy
        self._count = count  # tracer.count-style callable, or None
        self._slabs: list = []
        self._free: dict = {}  # class size -> LIFO stack of _Block
        self._by_address: dict = {}  # block buffer address -> _Block
        self.slab_bytes_total = 0
        # statistics (deterministic; the shuffle workload fingerprints them)
        self.hits = 0
        self.carves = 0
        self.grows = 0
        self.returns = 0
        # bytes in live (handed-out) blocks, counted at class granularity
        self.live_bytes = 0
        #: optional telemetry hook called as probe(live_bytes, slab_bytes,
        #: slab_count) after every alloc/free (repro.obs.timeline)
        self.probe = None

    # -- introspection -------------------------------------------------------
    @property
    def device(self) -> int:
        return self.backing.device

    def owns(self, buf: Buffer) -> bool:
        blk = self._by_address.get(buf.address)
        return blk is not None and blk.buffer is buf

    def _tick(self, name: str) -> None:
        if self._count is not None:
            self._count("mem", name)

    # -- size classes --------------------------------------------------------
    def class_size(self, size: int) -> int:
        q = self.policy.pool_bin_quantum
        if size <= q:
            return q
        return 1 << (size - 1).bit_length()

    # -- allocation ----------------------------------------------------------
    def alloc(self, size: int) -> Buffer:
        if size <= 0:
            raise ValueError(f"buffer size must be positive, got {size}")
        cls = self.class_size(size)
        stack = self._free.get(cls)
        if stack:
            blk = stack.pop()
            blk.live = True
            self.hits += 1
            self._tick("pool_hit")
        else:
            blk = self._carve(cls)
            self.carves += 1
            self._tick("pool_carve")
        self.live_bytes += cls
        if self.probe is not None:
            self.probe(self.live_bytes, self.slab_bytes_total,
                       len(self._slabs))
        return blk.buffer

    def _carve(self, cls: int) -> _Block:
        slab = self._slabs[-1] if self._slabs else None
        if slab is None or slab.bump + cls > slab.buffer.size:
            slab = self._grow(cls)
        view = slab.buffer.view(slab.bump, cls)
        slab.bump += cls
        blk = _Block(view, cls)
        self._by_address[view.address] = blk
        return blk

    def _grow(self, cls: int) -> _Slab:
        size = max(self.policy.pool_slab_bytes, cls)
        limit = self.policy.pool_max_bytes
        if limit is not None and self.slab_bytes_total + size > limit:
            raise OutOfMemory(
                f"GPU {self.device} pool: slab of {size} bytes would exceed "
                f"the {limit}-byte pool cap ({self.slab_bytes_total} held)"
            )
        slab = _Slab(self.backing.alloc(size))
        self._slabs.append(slab)
        self.slab_bytes_total += size
        self.grows += 1
        self._tick("pool_grow")
        return slab

    # -- return ---------------------------------------------------------
    def free(self, buf: Buffer) -> None:
        """Return ``buf`` to its size-class free list (NOT a real free: the
        buffer stays valid, no invalidation hooks run)."""
        blk = self._by_address.get(buf.address)
        if blk is None or blk.buffer is not buf:
            raise ValueError("buffer does not belong to this pool")
        if not blk.live:
            raise RuntimeError("double return of a pooled buffer")
        blk.live = False
        self._free.setdefault(blk.class_size, []).append(blk)
        self.returns += 1
        self._tick("pool_return")
        self.live_bytes -= blk.class_size
        if self.probe is not None:
            self.probe(self.live_bytes, self.slab_bytes_total,
                       len(self._slabs))


def host_buffer(node: int, size: int) -> Buffer:
    """Allocate a host buffer on ``node`` (host memory is not capacity-limited)."""
    return Buffer(MemoryKind.HOST, size, node)
