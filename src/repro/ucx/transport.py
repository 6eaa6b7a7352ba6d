"""The frame transport under the UCP worker (the model's UCT half).

A worker runs two message streams over this module — the **tagged** stream
(EAGER/RTS/FIN/ERR frames of ``tag_send_nb``) and the **AM** stream (host
messages of ``am_send``).  Both are plain callers: :class:`SequencedStream`
orders a stream's messages per directed pair, and :func:`send` moves one
frame (loopback shortcut, route occupancy, fault verdict, backoff
retransmit, give-up).  What differs between the streams is data on the
frame, not a second code path.

The streams route differently on purpose: tagged frames travel between
``host_location(node)`` end-points (socket 0's NIC rail), AM frames between
the workers' own sockets.  Every pinned fingerprint encodes that; making the
routes agree is a modelling change, not a refactor, so each worker hands
its two locations in with the frame.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict

from repro.hardware.links import path_transfer
from repro.obs.stages import RETRANSMIT
from repro.ucx.constants import CORRUPT, LOOPBACK_LATENCY, STALL

__all__ = ["PENDING", "SequencedStream", "end_then", "send"]

#: Offered as the entry, claims a slot for an entry still being produced (the
#: AM rendezvous fetch): nothing behind the slot is released until it is
#: filled by ``offer(..., reserved=True)``.
PENDING: Any = ("pending",)

_NO_HELD: Any = MappingProxyType({})


class SequencedStream:
    """One ordered message stream of a worker.

    In the link model small frames physically overtake bulk data and
    protocols add different pre-send delays, yet a directed pair's messages
    must be processed in send order (ordered-QP semantics).  Senders take a
    number at *post* time (:meth:`next_seq`); the receiver hands entries to
    ``release(src, entry)`` in that order (:meth:`offer`).  Every assigned
    number must eventually be offered — a cancelled or lost message still
    sends a slot-consuming entry — or the pair stalls behind the gap.
    """

    __slots__ = ("_tracer", "_release", "_tx", "_next", "_held")

    def __init__(self, tracer, release: Callable[[int, Any], None]) -> None:
        self._tracer = tracer
        self._release = release
        self._tx: Dict[int, int] = {}  # destination -> next number to assign
        self._next: Dict[int, int] = {}  # source -> next number to release
        # source -> early arrivals; a shared stand-in until the first one
        self._held: Dict[int, Dict[int, Any]] = _NO_HELD

    def next_seq(self, dst: int) -> int:
        seq = self._tx.get(dst, 0)
        self._tx[dst] = seq + 1
        return seq

    def offer(self, src: int, seq: int, entry: Any, reserved: bool = False) -> bool:
        """File ``entry`` under ``seq`` and release everything now in order.

        A slot that was already released or is occupied marks the frame as
        a copy from a stall/retransmit race: it is dropped (returning False)
        unless the caller holds the slot's reservation."""
        nxt = self._next.get(src, 0)
        held = self._held.get(src)
        if not reserved and (seq < nxt or (held is not None and seq in held)):
            self._tracer.count("fault", "duplicate_dropped")
            return False
        if seq != nxt or entry is PENDING:
            if held is None:
                if self._held is _NO_HELD:
                    self._held = {}
                held = self._held[src] = {}
            held[seq] = entry
            return True
        if reserved:
            del held[seq]
        release = self._release
        while True:
            nxt += 1
            self._next[src] = nxt
            release(src, entry)
            if not held:
                return True
            entry = held.get(nxt)
            if entry is None or entry is PENDING:
                return True
            del held[nxt]


def end_then(tracer, span: tuple, fn: Callable[..., None], args: tuple) -> None:
    """``fn(*args)`` preceded by closing ``span``: what a traced operation
    schedules in place of the bare ``fn``, so that observing it adds no
    simulator event."""
    tracer.end(span)
    fn(*args)


def send(worker, remote, frame: tuple, attempt: int = 0) -> None:
    """Move one frame from ``worker`` to ``remote``.  ``frame`` is ``(nbytes,
    fault_kind, src_loc, dst_loc, spans, flight_tag, deliver, args,
    on_give_up)``: ``deliver(*args)`` runs at the simulated arrival instant,
    or ``on_give_up(*args)`` once the retransmit budget is exhausted.

    ``nbytes`` includes the protocol header.  ``fault_kind`` is the frame
    kind fault rules select on (``None`` exempts the frame).  ``spans`` is
    ``None`` unless tracing: ``(stage, attrs, retry_attrs)`` for the wire
    stage covering each copy on the wire and for the ``retransmit_wait``
    span between copies.  ``flight_tag`` is the device-transfer tag of a
    frame whose retransmits belong to that transfer's record, else ``None``.
    """
    (nbytes, fault_kind, src_loc, dst_loc, spans, flight_tag,
     deliver, args, on_give_up) = frame
    sim = worker.sim
    machine = worker.ctx.machine
    tracer = machine.tracer
    loopback = remote is worker
    injector = machine.fault_injector
    verb = None
    stall = 0.0
    # loopback bypasses the link fabric, and with it fault injection
    if injector is not None and fault_kind is not None and not loopback:
        fault = injector.frame_fault(
            worker.worker_id, remote.worker_id, fault_kind, sim.now
        )
        if fault is not None:
            verb, stall = fault
    if verb is None or verb == STALL:
        # a stalled frame is late, not lost: it is delivered with the stall
        # added.  If the stall outlives the retry timer the sender
        # retransmits anyway and the receiver drops whichever copy arrives
        # second (by sequence number).
        fire, fire_args = deliver, args
        if spans is not None:
            fire = end_then
            fire_args = (tracer, tracer.stage(spans[0], more=spans[1]), deliver, args)
        if loopback:
            sim.call_later(LOOPBACK_LATENCY, fire, *fire_args)
        else:
            path_transfer(sim, machine.route(src_loc, dst_loc), nbytes, stall,
                          fire, fire_args)
        if (verb is None or attempt >= injector.max_retries
                or stall < injector.retry_wait(attempt)):
            return
    else:
        if verb == CORRUPT:
            # the frame occupies the wire but fails its integrity check
            path_transfer(sim, machine.route(src_loc, dst_loc), nbytes)
        if attempt >= injector.max_retries:
            tracer.count("fault", "endpoint_timeout")
            on_give_up(*args)
            return
    wait = injector.retry_wait(attempt)
    sp = tracer.stage(
        RETRANSMIT, flight_tag, remote.worker_id,
        more=None if spans is None else dict(spans[2], attempt=attempt),
    )
    if sp:
        tracer.end(sp, sim.now + wait)
    sim.call_later(wait, send, worker, remote, frame, attempt + 1)
