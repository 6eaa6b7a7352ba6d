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
found busy and ``Link.release`` re-examines them.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent


class Resource:
    """A counted resource with FIFO granting and utilisation statistics."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque = deque()  # (fn, args) to run once granted
        # statistics
        self.total_acquisitions = 0
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    # -- state -------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def utilisation(self) -> float:
        """Fraction of the run so far during which >=1 slot was held."""
        span = self.sim.now
        if span <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return min(1.0, busy / span)

    # -- acquire/release ----------------------------------------------------
    def _when_granted(self, fn, args: tuple) -> None:
        """Run ``fn(*args)`` holding a slot: now, or in FIFO turn on release."""
        if self.try_acquire():
            fn(*args)
        else:
            self._waiters.append((fn, args))

    def try_acquire(self) -> bool:
        """Take a slot now if one is free; never queues: for callers that
        checked (or only want) an immediate grant — one per link per bulk
        transfer."""
        if self._in_use >= self.capacity:
            return False
        self._in_use += 1
        self.total_acquisitions += 1
        if self._busy_since is None:
            self._busy_since = self.sim.now
        return True

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        if self._waiters:
            self.try_acquire()  # the slot just freed
            fn, args = self._waiters.popleft()
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
