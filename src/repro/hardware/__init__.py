"""Simulated hardware: memory spaces, GPUs, links, and node topology.

Models a Summit-like machine (IBM AC922 nodes: 2 Power9 sockets, 3 NVIDIA
V100s per socket, NVLink/X-Bus/EDR-InfiniBand interconnect) as a set of
FIFO link resources plus functional host/device buffers.  Everything above
this package (UCX, Converse/Charm++, the programming models) talks to
hardware exclusively through these classes.
"""

from repro.hardware.memory import Buffer, MemoryKind, OutOfMemory
from repro.hardware.links import Link, path_transfer, path_transfer_time
from repro.hardware.topology import Location, Machine, Node
from repro.hardware.gpu import DeviceEventRecord, Gpu, Kernel, Stream
from repro.hardware.cuda import CudaRuntime
from repro.hardware.gdrcopy import GdrCopy

__all__ = [
    "Buffer",
    "CudaRuntime",
    "DeviceEventRecord",
    "GdrCopy",
    "Gpu",
    "Kernel",
    "Link",
    "Location",
    "Machine",
    "MemoryKind",
    "Node",
    "OutOfMemory",
    "Stream",
    "path_transfer",
    "path_transfer_time",
]
