"""Processing elements: one scheduler + message queue each.

The paper's experiments run the non-SMP build — one CPU core is the single
PE of each process, one process per GPU.  A :class:`Pe` therefore owns a
message queue, a scheduler process that drains it, and (by construction) a
1:1 association with a GPU.

CPU-time accounting
-------------------
Charm++ entry methods are run-to-completion callables: they cannot yield to
the simulator.  Costs accrued *inside* a handler are therefore charged to a
per-PE debt counter (:meth:`charge`); the scheduler advances simulated time
by the accumulated debt after the handler returns, before picking up the
next message.  Asynchronous operations started inside a handler (sends)
capture the debt-at-call-time as their departure delay, so a send issued
after 2 μs of marshalling leaves 2 μs later — first-order-correct CPU
serialisation without continuation gymnastics.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.primitives import SimQueue
from repro.sim.process import Process


class Pe:
    """One processing element (CPU core + its GPU)."""

    def __init__(self, converse: "Converse", index: int, node: int, gpu: Optional[int]) -> None:  # noqa: F821
        self.converse = converse
        self.sim = converse.sim
        self.index = index
        self.node = node
        self.gpu = gpu
        self.queue: SimQueue = SimQueue(self.sim, name=f"pe{index}.queue")
        #: CPU time accrued so far in the current handler: the departure
        #: delay of an async operation the handler starts now
        self.debt = 0.0
        self.messages_processed = 0
        self.busy_time = 0.0
        self._scheduler = Process(self.sim, self._scheduler_loop(), name=f"pe{index}.sched")

    # -- CPU-time debt ---------------------------------------------------------
    def charge(self, cost: float) -> None:
        """Accrue CPU time from inside a run-to-completion handler."""
        if cost < 0:
            raise ValueError("cannot charge negative time")
        self.debt += cost

    def take_debt(self) -> float:
        debt, self.debt = self.debt, 0.0
        return debt

    # -- scheduling ---------------------------------------------------------------
    def enqueue(self, msg) -> None:
        self.queue.put(msg)

    def _scheduler_loop(self):
        # a process sleeps on a bare float; the config may hold an int
        pickup = float(self.converse.runtime_cfg.scheduler_pickup_overhead)
        while True:
            msg = yield self.queue.get()
            yield pickup
            self.messages_processed += 1
            start = self.sim.now
            continuation = self.converse.dispatch(self, msg)
            debt, self.debt = self.debt, 0.0   # take_debt, without the call
            if debt > 0.0:
                yield debt
            if continuation is not None:
                # A *threaded* entry method (Charm++ [threaded] / Charm4py
                # coroutine): the handler returned a generator that may block
                # on CUDA synchronisation, channel receives, or futures.
                # Real runtimes run these on user-level threads: the PE's
                # scheduler resumes pumping messages whenever the coroutine
                # suspends.  We model that by running the continuation as a
                # concurrent process; its CPU costs are charged through the
                # sleeps it yields.
                Process(self.sim, continuation, name=f"pe{self.index}.threaded")
            self.busy_time += (self.sim.now - start) + pickup
