"""FIFO resources with occupancy accounting.

Hardware links (NVLink, X-Bus, PCIe, NIC, host memory buses) are modelled as
:class:`Resource` objects with ``capacity`` concurrent slots.  A transfer
acquires the resource, holds it for its duration, and releases it; waiting
requests are granted strictly FIFO.  This gives first-order contention: two
chares hammering the same NIC serialize, while transfers on disjoint NVLinks
proceed in parallel — the effect that shapes the Jacobi3D communication
times at scale.

A :class:`Resource` knows one kind of waiter: the ``(fn, args)`` pair that
wants *this* resource, granted in FIFO turn by :meth:`release`.  Waiting for
several resources at once (every link of a path free at the same moment) is
``hardware/links.py``'s business: those waiters park on the ``Link`` they
found busy and ``Link.release`` re-examines them.  How long a link was busy
is read from the telemetry record (:mod:`repro.obs.timeline`), not kept here.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent


class Resource:
    """A counted resource with FIFO granting."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Sequence = ()  # (fn, args) to run once granted, FIFO
        self.total_acquisitions = 0

    # -- state -------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    # -- acquire/release ----------------------------------------------------
    def _when_granted(self, fn, args: tuple) -> None:
        """Run ``fn(*args)`` holding a slot: now, or in FIFO turn on release."""
        if self._in_use < self.capacity:   # try_acquire, without the call
            self._in_use += 1
            self.total_acquisitions += 1
            fn(*args)
        elif self._waiters:
            self._waiters.append((fn, args))
        else:
            self._waiters = [(fn, args)]

    def try_acquire(self) -> bool:
        """Take a slot now if one is free; never queues: for callers that
        checked (or only want) an immediate grant — one per link per bulk
        transfer."""
        if self._in_use >= self.capacity:
            return False
        self._in_use += 1
        self.total_acquisitions += 1
        return True

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiters:
            self.try_acquire()  # the slot just freed
            fn, args = self._waiters.pop(0)
            fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"{self._in_use}/{self.capacity} waiting={len(self._waiters)}>")

    # -- composite helper ----------------------------------------------------
    def occupy(self, duration: float, then=None, then_args: tuple = ()):
        """Acquire, hold for ``duration``, release, then run
        ``then(*then_args)`` — at the moment the resource is freed: the idiom
        for charging an operation to a resource.  Without ``then`` the
        completion is an event, created here and returned to wait on.
        """
        done = None
        if then is None:
            done = SimEvent(self.sim, name="resource.occupy")
            then, then_args = done.succeed, (None,)
        self._when_granted(
            self.sim.call_later, (duration, self._vacate, then, then_args))
        return done

    def _vacate(self, then, then_args: tuple) -> None:
        self.release()
        then(*then_args)
