"""Hardware links as FIFO resources with alpha-beta timing.

A transfer along a *path* of links acquires every link atomically, holds
them for the path latency (the sum of the link alphas) plus the
serialisation time of the bottleneck link, then releases them and runs its
continuation (:func:`path_transfer`).  This coarse "cut-through with
bottleneck occupancy" model keeps aggregate bandwidth caps correct (six GPUs
sharing one NIC serialize; three pairs sharing the X-Bus cap at the X-Bus
rate) without simulating packets.

The parked-transfer wake
------------------------
A bulk transfer that cannot take all its links parks *itself* on the first
busy one (``Link._parked``, FIFO).  Every :meth:`Link.release` re-examines
the transfers parked on that link, oldest first: one whose links are now all
free starts; any other is appended to *its* first busy link — this link
again, keeping its place among the stayers, or another, behind whoever
waits there.  The policy is deliberately the naive one (a release looks at
everything parked on the link): the order of re-examination and re-parking
decides who is granted next, and ``tests/test_link_model.py`` holds it to
the hook-per-waiter implementation it replaced
(``tests/oracles/hook_wake.py``), grant for grant.  One loop
(:func:`_examine`) serves submission and release; it saves host time only:
a failed re-examination is a few attribute reads, not a callback.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from repro.config import LinkParams
from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent
from repro.sim.resources import Resource

_link_ids = itertools.count()


class Link(Resource):
    """One physical link (NVLink port, X-Bus, NIC, host memory channel)."""

    def __init__(
        self,
        sim: Simulator,
        params: LinkParams,
        name: str,
        capacity: int = 1,
    ) -> None:
        super().__init__(sim, capacity=capacity, name=name)
        self.params = params
        self.link_id = next(_link_ids)
        self._parked: Sequence[_Transfer] = ()  # blocked, oldest first

    def release(self) -> None:
        """Free a slot, then re-examine the transfers parked here, in order."""
        super().release()
        parked = self._parked
        if parked:
            self._parked = ()
            _examine(parked, self)

    @property
    def latency(self) -> float:
        return self.params.latency

    @property
    def bandwidth(self) -> float:
        return self.params.bandwidth


def path_latency(links: Sequence[Link]) -> float:
    return sum(l.latency for l in links)


def path_bottleneck(links: Sequence[Link]) -> float:
    """Bandwidth of the slowest link on the path (inf for empty paths)."""
    if not links:
        return float("inf")
    return min(l.bandwidth for l in links)


def path_transfer_time(links: Sequence[Link], size: int) -> float:
    """Uncontended time for ``size`` bytes along ``links``."""
    bw = path_bottleneck(links)
    ser = 0.0 if bw == float("inf") else size / bw
    return path_latency(links) + ser


class Route:
    """An immutable link path with its cost terms computed once.

    Iterates, measures and tests true as its links in path order (``path``),
    and carries what :func:`path_transfer` reads on every message: the
    canonical acquisition order ``ordered`` (by ``link_id``; the path tuple
    itself when already in that order), the path latency summed in that
    order, and the bottleneck bandwidth.  Slotted and memo-free: the
    uncontended hold ``latency + size/bottleneck`` is one division, so a
    route holds four references whatever sizes cross it.  Build one per
    path with ``Route(links)``; :meth:`Machine.route
    <repro.hardware.topology.Machine.route>` memoizes them per endpoint pair.
    """

    __slots__ = ("path", "ordered", "latency", "bottleneck")

    def __init__(self, links: Iterable[Link]) -> None:
        self.path = path = tuple(links)
        ordered = tuple(sorted(path, key=lambda l: l.link_id))
        self.ordered = path if ordered == path else ordered
        self.latency = path_latency(ordered)
        self.bottleneck = path_bottleneck(ordered)

    def __iter__(self) -> Iterator[Link]:
        return iter(self.path)

    def __len__(self) -> int:
        return len(self.path)

    def hold_time(self, size: int) -> float:
        """Uncontended hold for ``size`` bytes (an empty route: 0.0)."""
        return self.latency + size / self.bottleneck


#: Messages at or below this size bypass link *occupancy* (latency-only):
#: control traffic (RTS/FIN/metadata headers) travels inline on InfiniBand
#: and does not contend with bulk RDMA at the granularity modelled here.
CTRL_BYPASS_BYTES = 512


def degraded_bottleneck(
    ordered: Sequence[Link], injector, now: float
) -> float:
    """Bottleneck bandwidth of ``ordered`` under the fault injector's
    degraded-bandwidth windows, sampled at ``now``.

    This is the **one** place the scaled bottleneck is derived (the
    shared-composite-sum contract of ``sim/engine.py``).  ``bandwidth * 1.0``
    is exact in IEEE-754, so when every active factor resolves to 1.0 the
    result is bit-equal to :func:`path_bottleneck`, and so is the hold.

    A factor of exactly 0.0 marks a link *down* (see
    ``repro.faults.plan.BandwidthWindow``): the multirail rail planner
    excludes such rails, and routing bulk traffic over a down link is a
    modelling error surfaced here rather than a silent divide-by-zero.
    """
    bw = min(
        l.bandwidth * injector.bandwidth_factor(l.name, now) for l in ordered
    )
    if bw <= 0.0:
        down = [l.name for l in ordered
                if injector.bandwidth_factor(l.name, now) <= 0.0]
        raise RuntimeError(
            f"bulk transfer routed over down link(s) {down}: factor-0 "
            "bandwidth windows mark links down for the rail planner; "
            "regular routes must not traverse them"
        )
    return bw


def path_transfer(
    sim: Simulator,
    route: Route,
    size: int,
    extra_time: float = 0.0,
    then=None,
    then_args: tuple = (),
) -> Optional[SimEvent]:
    """Move ``size`` bytes along ``route``, then run ``then(*then_args)``.

    The continuation runs ``path_latency + size/bottleneck_bw + extra_time``
    after all links have been acquired.  Acquisition is **atomic**: the
    transfer waits until every link on the path has a free slot and only
    then occupies them all — a transfer never holds one link while queueing
    for another, so an incast hotspot at one node cannot convoy unrelated
    traffic (the behaviour of credit-based wormhole fabrics at the
    granularity we model).  Control-sized messages (<= ``CTRL_BYPASS_BYTES``)
    do not occupy the links at all: they ride inline ahead of bulk data.

    Without ``then`` the completion is an event, created here and returned
    for the caller to wait on; protocol code passes its next step instead.
    """
    done = None
    if then is None:
        done = SimEvent(sim, name="path_transfer")
        then, then_args = done.succeed, (None,)
    injector = sim.fault_injector
    # order and cost terms were computed when the route was built
    ordered = route.ordered
    # degraded-bandwidth windows scale per-link rates; the bottleneck is
    # re-derived from the scaled rates (a degraded fast link can become the
    # new bottleneck), sampled at start-of-transfer.  When every factor
    # resolves to 1.0 it is bit-equal to the route's, and so is the hold.
    bw = (degraded_bottleneck(ordered, injector, sim.now)
          if ordered and injector is not None else route.bottleneck)
    hold = route.latency + size / bw + extra_time

    if size <= CTRL_BYPASS_BYTES or not ordered:
        sim.call_later(hold, then, *then_args)
    else:
        _Transfer(sim, ordered, size, hold, then, then_args).try_acquire()
    return done


class _Transfer:
    """One bulk transfer of :func:`path_transfer`: waits for its links, holds
    them, releases them.

    An object that parks itself on a ``Link`` and hands its bound ``finish``
    to ``sim.call_later``, rather than a pair of closures: a closure that
    re-registers *itself* is a reference cycle, one per transfer, and the
    engine's loop runs with the cyclic collector suspended.

    While telemetry is on (``sim.telemetry``) it appends a row to the
    telemetry record when it parks, takes its links, and gives each back
    (``repro.obs.timeline``); a row never schedules and never alters
    ``hold``, so enabling it cannot perturb the simulation.
    """

    __slots__ = ("sim", "ordered", "size", "hold", "then", "then_args")

    def __init__(self, sim: Simulator, ordered: Sequence[Link], size: int,
                 hold: float, then, then_args: tuple) -> None:
        self.sim = sim
        self.ordered = ordered
        self.size = size
        self.hold = hold
        self.then = then
        self.then_args = then_args

    def try_acquire(self) -> None:
        """Submission: start now or park; :meth:`Link.release` does the rest."""
        _examine((self,))

    def start(self) -> None:
        """Occupy every link (all were just seen free) and arm the timer
        that ends the hold."""
        ordered = self.ordered
        for link in ordered:
            took = link.try_acquire()
            assert took  # free slot was just checked
        sim = self.sim
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.rows.append(
                ("grant", sim.now, ordered, self.size, id(self)))
        sim.call_later(self.hold, self.finish)

    def finish(self) -> None:
        ordered = self.ordered
        size = self.size
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.rows.append(("release", self.sim.now, ordered, size))
        for link in ordered:
            if telemetry is not None:
                # before release(): it re-examines the transfers parked on
                # the link at once, and the next may take it in the loop
                telemetry.rows.append(("free", self.sim.now, link))
            link.release()
        self.then(*self.then_args)


def _examine(transfers, parked_on: Optional[Link] = None) -> None:
    """Start each transfer whose links all have a free slot; park every other
    on its first busy link.  The one statement of the wake policy (see the
    module docstring): who is granted a contended link next follows from the
    order of this loop and of the ``_parked`` lists it appends to.

    ``parked_on`` is the link ``transfers`` were parked on (``None`` at
    submission): a transfer that parks there again appends no telemetry
    row, since its last park row already names that link (the fold reads a
    transfer's first park and the link of its last)."""
    for xfer in transfers:
        for link in xfer.ordered:
            if link._in_use >= link.capacity:
                telemetry = xfer.sim.telemetry
                if telemetry is not None and link is not parked_on:
                    stack = telemetry.stack
                    telemetry.rows.append((
                        "park", xfer.sim.now, id(xfer), link.name,
                        stack[-1] if stack else None))
                if link._parked:
                    link._parked.append(xfer)
                else:
                    link._parked = [xfer]
                break
        else:
            xfer.start()
