"""The Cython layer: cost model of Python -> C++ runtime crossings.

Charm4py's core functionality is implemented with Cython (paper §III-D);
every channel/entry operation crosses from the interpreter into the
Charm++ runtime.  This module centralises those per-call and per-byte
costs so the channels/futures code reads like the real control flow.
"""

from __future__ import annotations

from repro.config import RuntimeConfig


class CythonLayer:
    """Cost helper bound to one runtime configuration."""

    def __init__(self, rt: RuntimeConfig) -> None:
        self.rt = rt
        self.crossings = 0
        #: one Python-level call entering the Cython layer, summed once
        self.call_time = rt.py_call_overhead + rt.cython_crossing_overhead

    def call_cost(self) -> float:
        """One Python-level API call entering the Cython layer (counted)."""
        self.crossings += 1
        return self.call_time

    def serialize_cost(self, nbytes: int) -> float:
        """Pickling/serialisation of a host payload of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self.rt.pickle_overhead + nbytes / self.rt.pickle_bandwidth

    def device_send_cost(self) -> float:
        """Extra Python-side driving cost of a device-buffer channel send
        (metadata object construction, address/size extraction, callbacks).
        This is the term that caps Charm4py's device bandwidth below
        Charm++'s (35.5 vs 44.7 GB/s intra-node, §IV-B2)."""
        return self.rt.charm4py_device_send_overhead

    def future_cost(self) -> float:
        """Fulfilling a future and rescheduling the suspended coroutine."""
        return self.rt.future_fulfill_overhead
