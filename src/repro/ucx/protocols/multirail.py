"""Striped bulk transfers across multiple rails with graph-batched launches.

The rendezvous protocols plan an eligible bulk transfer (multirail enabled,
size >= ``MultirailConfig.min_bytes``, >= 2 usable rails from the
:class:`~repro.hardware.rails.RailPlanner`) once with :func:`plan_striping`
and hand the plan to :func:`striped_transfer`.  Together they

* split the message into ``chunk_bytes`` chunks (last chunk carries the
  remainder),
* assign chunks to rails with a deterministic bandwidth-weighted greedy
  rule — each chunk goes to the rail that would finish its share soonest
  (``(assigned + chunk) / rail_bandwidth``, ties to the lower rail index),
  so a slow sideband rail only receives work while it actually shortens the
  critical path,
* keep at most ``window`` chunks in flight per rail (queued chunks start
  from the completion callback of earlier ones), and
* complete a single barrier event when every chunk has landed — the
  caller's matching/flight-record/FIN handling is identical to the
  single-route path.

Launch-cost model (the CUDA-graphs half of the multi-path paper): the
per-chunk copy kernels are captured into one CUDA graph — a single
``CudaConfig.graph_launch_overhead`` up front and the much smaller
``graph_per_chunk_cost`` per chunk node, instead of a
``memcpy_launch_overhead`` per individually launched chunk.  Per-chunk
costs ride ``path_transfer``'s ``extra_time`` (they extend each chunk's
link hold, the copy-engine occupancy of a kernel-driven chunk), while the
one-time graph launch delays the first chunk kick without occupying any
link.

Determinism: chunk sizes, rail assignment and issue order are pure
functions of (size, config, rail set); completions fire in simulator event
order.  Two identical runs interleave chunks identically (pinned by
``tests/test_multirail.py``).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

from repro.hardware.links import path_transfer

__all__ = ["plan_striping", "split_chunks", "assign_chunks", "striped_transfer"]


def plan_striping(machine, src_loc, dst_loc, size: int):
    """``(rails, queues)`` for this transfer — the usable rail set and each
    rail's chunk-size queue, planned once for :func:`striped_transfer` — or
    ``None`` to stay on the seed's single route.  Counts
    ``ucx.rail.fallback_single`` when a normally-multirail pair degrades to
    one rail (links down)."""
    mr = machine.cfg.multirail
    if not mr.enabled or size < mr.min_bytes:
        return None
    planner = machine.rail_planner
    if len(planner.rails(src_loc, dst_loc)) < 2:
        return None  # pair has no alternate path at all
    usable = planner.usable_rails(src_loc, dst_loc)
    if len(usable) < 2:
        machine.tracer.count("ucx", "rail.fallback_single")
        return None
    queues = assign_chunks(split_chunks(size, mr.chunk_bytes),
                           [rail.bandwidth for rail in usable])
    if sum(1 for q in queues if q) < 2:
        # greedy keeps every chunk on the fast rail at this size: striping
        # would only add chunking + launch overhead, so stay on the seed
        # route (break-even sizes never regress below single-rail)
        machine.tracer.count("ucx", "rail.single_assigned")
        return None
    return usable, queues


def split_chunks(size: int, chunk_bytes: int) -> List[int]:
    """Chunk sizes of one striped transfer (all ``chunk_bytes`` but the
    remainder-carrying last)."""
    nchunks = math.ceil(size / chunk_bytes)
    sizes = [chunk_bytes] * (nchunks - 1)
    sizes.append(size - chunk_bytes * (nchunks - 1))
    return sizes


def assign_chunks(
    chunk_sizes: Sequence[int], bandwidths: Sequence[float]
) -> List[List[int]]:
    """Greedy bandwidth-weighted assignment: per-rail chunk-size queues.

    Chunks are considered in order; each goes to the rail minimizing
    ``(assigned + chunk) / bandwidth`` (the rail's finish time with the
    chunk added), ties to the lower rail index.  A rail slower than the
    marginal cost of loading rail 0 further receives nothing — striping
    never loses to the single-rail plan by more than one chunk's
    granularity.
    """
    assigned = [0] * len(bandwidths)
    queues: List[List[int]] = [[] for _ in bandwidths]
    for csize in chunk_sizes:
        best = 0
        best_t = (assigned[0] + csize) / bandwidths[0]
        for r in range(1, len(bandwidths)):
            t = (assigned[r] + csize) / bandwidths[r]
            if t < best_t:
                best, best_t = r, t
        assigned[best] += csize
        queues[best].append(csize)
    return queues


def striped_transfer(
    sim,
    machine,
    plan,
    then: Callable[..., None],
    then_args: tuple = (),
    parent_span=None,
    tag: Optional[int] = None,
) -> None:
    """Move the chunks of ``plan`` (from :func:`plan_striping`) across its
    rails, then run ``then(*then_args)``.

    Mirrors the continuation form of
    :func:`~repro.hardware.links.path_transfer` (``then`` runs when all data
    has landed) so rendezvous callers swap it in without touching their
    completion handling.
    """
    cfg = machine.cfg
    tracer = machine.tracer
    rails, queues = plan
    upfront = cfg.cuda.graph_launch_overhead

    tracer.count("ucx", "rail.striped")
    for rail, queue in zip(rails, queues):
        if queue:
            tracer.count("ucx", f"rail.{rail.index}.chunks", len(queue))
            tracer.count("ucx", f"rail.{rail.index}.bytes", sum(queue))

    stripe = _Stripe(sim, tracer, plan, cfg.multirail.window,
                     cfg.cuda.graph_per_chunk_cost, parent_span, tag,
                     then, then_args)
    if upfront > 0.0:
        # graph capture+launch happens once, before any chunk kicks; it is
        # driver work and occupies no link
        sim.call_later(upfront, stripe.start)
    else:
        stripe.start()


class _Stripe:
    """One striped transfer: starts a :class:`_RailRun` per loaded rail and
    runs ``then(*then_args)`` when the last chunk of any rail has landed.

    The rail runs hold its bound ``chunk_landed``; it holds none of them, so
    the pair makes no reference cycle.
    """

    __slots__ = ("sim", "tracer", "plan", "window", "per_chunk", "parent_span",
                 "tag", "then", "then_args", "remaining")

    def __init__(self, sim, tracer, plan, window: int, per_chunk: float,
                 parent_span, tag: Optional[int], then, then_args: tuple) -> None:
        self.sim = sim
        self.tracer = tracer
        self.plan = plan
        self.window = window
        self.per_chunk = per_chunk
        self.parent_span = parent_span
        self.tag = tag
        self.then = then
        self.then_args = then_args
        self.remaining = sum(len(q) for q in plan[1])

    def start(self) -> None:
        for rail, queue in zip(*self.plan):
            if queue:
                rail_sp = self.tracer.span(
                    "ucx.rail", f"rail{rail.index}", parent=self.parent_span,
                    rail=rail.index, chunks=len(queue), bytes=sum(queue),
                    tag=self.tag,
                )
                _RailRun(self.sim, self.tracer, rail, queue, self.window,
                         self.per_chunk, rail_sp, self.chunk_landed).issue()

    def chunk_landed(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.then(*self.then_args)


class _RailRun:
    """One rail's share of a striped transfer: works through its chunk queue
    with at most ``window`` chunks in flight.

    An object handing out bound methods, not a pair of closures that call
    each other — that pair would be a reference cycle per rail per transfer,
    and the engine's loop runs with the cyclic collector suspended.
    """

    __slots__ = ("sim", "tracer", "rail", "queue", "window", "per_chunk",
                 "span", "chunk_landed", "inflight", "next", "live")

    def __init__(self, sim, tracer, rail, queue: List[int], window: int,
                 per_chunk: float, span, chunk_landed) -> None:
        self.sim = sim
        self.tracer = tracer
        self.rail = rail
        self.queue = queue
        self.window = window
        self.per_chunk = per_chunk
        self.span = span
        self.chunk_landed = chunk_landed
        self.inflight = f"ucx.rail.{rail.index}.inflight_chunks"
        self.next = 0
        self.live = 0

    def issue(self) -> None:
        # chunks beyond the in-flight window start from completion
        # callbacks, bounding queued link acquisitions per rail
        tracer = self.tracer
        queue = self.queue
        while self.next < len(queue) and self.live < self.window:
            csize = queue[self.next]
            self.next += 1
            self.live += 1
            tracer.gauge(self.inflight, self.live, "chunks")
            with tracer.under(self.span):
                path_transfer(self.sim, self.rail.route, csize,
                              self.per_chunk, self._done)

    def _done(self) -> None:
        self.live -= 1
        self.tracer.gauge(self.inflight, self.live, "chunks")
        self.chunk_landed()
        if self.next < len(self.queue):
            self.issue()
        elif self.live == 0:
            self.span.end()
