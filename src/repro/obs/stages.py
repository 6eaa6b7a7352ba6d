"""The stage table: what each message-lifecycle stage means to each recorder.

A hot-path site reports *what happened* — ``tracer.stage(STAGE, tag, dst,
cost=..., attrs=(...))`` — and names no recorder.  Each :class:`Stage` row
below declares, once, who hears about it:

``counter``
    the always-on ``(category, event)`` counter it increments (identical with
    observation on or off, so fingerprints cannot diverge);
``span`` / ``names``
    the ``(category, name)`` span it opens when tracing, and the attribute
    keys, in order, that the span stores for the leading values of the
    site's ``attrs`` tuple (values past the last name are facts only the
    flight fold reads);
``charge``
    the layer its modelled CPU ``cost`` is attributed to when tracing;
``latency`` / ``sizes``
    the histograms its span's ``end - start`` and ``size`` attribute land in
    when tracing;
``flight``
    what the stage means to the transfer's
    :class:`~repro.obs.flight.FlightRecord`: the record field it stamps
    with its time, or a named op (``begin``, ``ucx_send``, ``matched``,
    ``lane``, ``retransmit``, ``recv_cancel``, ``fail:<error>``).  While
    flight recording is on, ``Tracer.stage`` logs the stage as ``(time,
    flight, tag, dst, *attrs)`` in ``tracer.log`` and
    :func:`~repro.obs.flight.flight_records` folds that log — ``(tag, dst)``
    identifies the device transfer, ``dst`` being the destination worker
    where the site knows it.

Every field is data, never a callable: the table says what a stage means,
the tracer and the folds act on it.

The site passes values, not keywords: a ``**kwargs`` call builds a dict on
every message whether or not anything is recording, a tuple does not.

Telemetry's cumulative series subscribe to counters, not to sites:
:data:`COUNTER_SERIES` maps a counter key to the monotone series sampled
whenever that counter moves (through ``stage`` or plain ``tracer.count``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["COUNTER_SERIES", "Stage"]

#: counter key -> telemetry series bumped with it (when telemetry is on)
COUNTER_SERIES: Dict[Tuple[str, str], str] = {
    ("ucx", "ep_evicted"): "ucx.ep_evictions",
    ("ucx", "ep_connect"): "ucx.ep_connects",
    ("ucx", "mapping_evicted"): "ucx.mapping_evictions",
    ("ucx", "rail.striped"): "ucx.rail.striped_transfers",
    ("fault", "retransmit"): "fault.retransmits",
}


class Stage:
    """One row of the table (see the module docstring for the fields)."""

    __slots__ = ("counter", "span", "names", "charge", "flight", "series",
                 "latency", "sizes")

    def __init__(
        self,
        counter: Optional[Tuple[str, str]] = None,
        span: Optional[Tuple[str, str]] = None,
        names: Tuple[str, ...] = (),
        charge: Optional[str] = None,
        flight: Optional[str] = None,
        latency: Optional[str] = None,
        sizes: Optional[str] = None,
    ) -> None:
        self.counter = counter
        self.span = span
        self.names = names
        self.charge = charge
        self.flight = flight
        self.series = COUNTER_SERIES.get(counter)
        self.latency = latency
        self.sizes = sizes


# -- model layers: operation entries -------------------------------------------
AMPI_SEND = Stage(("ampi", "send"), ("ampi", "mpi_send"),
                  ("rank", "dst", "tag", "size", "device"))
AMPI_RECV = Stage(("ampi", "recv"), ("ampi", "mpi_recv"),
                  ("rank", "src", "tag"), charge="ampi")
OMPI_SEND = Stage(("openmpi", "send"), ("openmpi", "mpi_send"),
                  ("rank", "dst", "tag", "size"), charge="openmpi")
OMPI_RECV = Stage(("openmpi", "recv"), ("openmpi", "mpi_recv"),
                  ("rank", "src", "tag"), charge="openmpi")
_C4P_SEND = ("src_pe", "dst_pe", "size", "device")
C4P_SEND_DEVICE = Stage(("charm4py", "channel_send_device"),
                        ("charm4py", "channel_send"), _C4P_SEND, charge="charm4py")
C4P_SEND_HOST = Stage(("charm4py", "channel_send_host"),
                      ("charm4py", "channel_send"), _C4P_SEND, charge="charm4py")
C4P_RECV = Stage(None, ("charm4py", "channel_recv"), ("pe", "size", "device"),
                 charge="charm4py")

# the host metadata message that announces a device transfer (§III-A): the
# receive cannot be posted until it has arrived and been scheduled
METADATA_SENT = Stage(flight="metadata_sent_at")
METADATA_ARRIVED = Stage(flight="metadata_arrived_at")

# -- Converse and the UCX machine layer ----------------------------------------
CMI_SEND = Stage(("converse", "send"), ("converse", "cmi_send"), ("handler", "bytes"))
CMI_SEND_DEVICE = Stage(("converse", "send_device"), ("converse", "cmi_send_device"),
                        ("src_pe", "dst_pe", "size"))
CMI_RECV_DEVICE = Stage(("converse", "recv_device"), ("converse", "cmi_recv_device"),
                        ("pe", "size"))
# data is ready at the sender from LrtsSendDevice on: posting delay is
# measured against this instant
LRTS_SEND_DEVICE = Stage(
    ("machine", "send_device"), ("machine", "lrts_send_device"),
    ("src_pe", "dst_pe", "size", "tag"), charge="machine", flight="begin")
LRTS_RECV_DEVICE = Stage(
    ("machine", "recv_device"), ("machine", "lrts_recv_device"),
    ("pe", "size", "tag", "recv_type"), charge="machine", flight="recv_posted_at")

# -- UCP worker -------------------------------------------------------------------
# host sends have no flight record (the site passes no tag for them); device
# sends that bypassed the machine layer (OpenMPI) get theirs opened here
# a request's span lasts from post to completion: its width is the latency
TAG_SEND = Stage(("ucx", "send"), ("ucx", "tag_send"), ("tag", "size", "proto"),
                 charge="ucx", flight="ucx_send",
                 latency="ucx.send_latency_seconds", sizes="ucx.send_size_bytes")
TAG_RECV = Stage(("ucx", "recv"), ("ucx", "tag_recv"), ("tag", "size"), charge="ucx",
                 latency="ucx.recv_latency_seconds")
AM_SEND = Stage(("ucx", "am_send"), ("ucx", "am_send"), ("size", "rndv"), charge="ucx")
ARRIVE = Stage(("ucx", "arrive"), charge="ucx")


def _match(counter: Tuple[str, str]) -> Stage:
    return Stage(
        counter, ("ucx.match", "tag_match"), ("tag", "scanned", "unexpected"),
        charge="ucx", flight="matched")


MATCH_EXPECTED = _match(("ucx", "expected_hit"))
MATCH_UNEXPECTED = _match(("ucx", "unexpected_hit"))
CANCEL_SEND = Stage(("ucx", "cancel_send"), flight="fail:cancelled")
CANCEL_RECV = Stage(("ucx", "cancel_recv"), flight="recv_cancel")

# -- UCP protocols and the frame transport ---------------------------------------
EAGER_SEND = Stage(None, ("ucx.eager", "eager_send"), ("size", "tag", "device"))
EAGER_RECV = Stage(None, ("ucx.eager", "eager_recv"), ("size", "tag", "device"))
RNDV_RTS = Stage(None, ("ucx.rndv", "rndv_rts"), ("size", "tag", "device"))
RNDV_FETCH = Stage(None, ("ucx.rndv", "rndv_fetch"), ("size", "tag", "lane"),
                   flight="lane")
RNDV_DATA = Stage(None, ("link", "rndv_data"), ("tag", "bytes"))
# the transport's spans take ready-made attribute dicts (``more``): its
# frames carry them only when traced
TAG_WIRE = Stage(None, ("link", "wire"))
AM_WIRE = Stage(None, ("link", "am_wire"))
AM_FETCH = Stage(None, ("link", "am_fetch"), ("bytes",))
SEND_COMPLETED = Stage(flight="send_completed_at")
DATA_LANDED = Stage(flight="completed_at")
RETRANSMIT = Stage(("fault", "retransmit"), ("fault", "retransmit_wait"),
                   flight="retransmit")
# terminal failures close the record so it cannot absorb the stages of the
# next same-tag transfer
TRUNCATED = Stage(flight="fail:truncated")
TIMED_OUT = Stage(flight="fail:endpoint_timeout")
