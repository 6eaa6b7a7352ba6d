"""Deterministic fault plans: *what* goes wrong, *where*, and *when*.

A :class:`FaultPlan` is a frozen, JSON-serialisable description of every
fault a run should experience:

* :class:`LinkFaultRule` — per-directed-worker-pair transient frame faults
  (drop / corrupt / stall) on the wire between two UCP workers, optionally
  restricted to a frame-kind subset (``eager``/``rts``/``fin``/``am``), a
  simulated-time window, and a budget of at most ``max_faults`` hits;
* :class:`BandwidthWindow` — a degraded-bandwidth interval for links whose
  name matches an ``fnmatch`` pattern (``"n0.nic*"``), scaling their
  bandwidth by ``factor`` while active;
* forced capability failures: ``fail_ipc_open`` (every CUDA-IPC handle
  open fails, forcing the pipelined host-staging fallback) and
  ``fail_gdrcopy_probe`` (UCX "fails to find" GDRCopy at startup — the
  paper's §IV-B1 observation, injectable instead of config-only);
* the recovery parameters: retransmit ``retry_timeout`` with exponential
  ``retry_backoff`` and ``max_retries`` before a frame's sender gives up
  and surfaces ``UCS_ERR_ENDPOINT_TIMEOUT``.

Determinism contract: every random draw of the injection machinery comes
from one ``random.Random(plan.seed)`` stream consumed in simulated event
order, so the same plan always yields the same faults; an **empty** plan
(``FaultPlan().empty``) builds no injector at all and is bit-identical to
running without one (enforced by ``tests/test_faults.py`` goldens).

This module is import-light on purpose (stdlib only): ``repro.config``
embeds a plan in :class:`~repro.config.MachineConfig` without a cycle.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Tuple

__all__ = ["ANY_WORKER", "FRAME_KINDS", "LinkFaultRule", "BandwidthWindow", "FaultPlan"]

#: Wildcard for :class:`LinkFaultRule` endpoints: matches every worker.
ANY_WORKER = -1

#: Frame kinds a :class:`LinkFaultRule` may name (empty tuple = all kinds).
#: ``eager``/``rts``/``fin`` are the tagged-path frames; ``am`` is the
#: active-message host path (metadata and host payloads).
FRAME_KINDS = ("eager", "rts", "fin", "am")

_INF = float("inf")


@dataclass(frozen=True)
class LinkFaultRule:
    """Transient frame faults on the directed worker pair ``src -> dst``.

    Probabilities are per frame *attempt* (retransmissions re-roll), drawn
    in order drop, corrupt, stall from the plan's seeded stream.  A
    stalled frame is delivered ``stall_seconds`` late — long stalls race
    the sender's retransmit timer and produce genuine duplicates for the
    receiver to dedup.  ``t0``/``t1`` bound the active window in simulated
    seconds; ``max_faults`` (0 = unlimited) caps the rule's total hits,
    which is how a *transient* outage is expressed.
    """

    src: int = ANY_WORKER
    dst: int = ANY_WORKER
    kinds: Tuple[str, ...] = ()  # empty = all of FRAME_KINDS
    drop_p: float = 0.0
    corrupt_p: float = 0.0
    stall_p: float = 0.0
    stall_seconds: float = 100e-6
    t0: float = 0.0
    t1: float = _INF
    max_faults: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kinds, tuple):  # freeze JSON lists
            object.__setattr__(self, "kinds", tuple(self.kinds))
        for name in ("drop_p", "corrupt_p", "stall_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        unknown = sorted(set(self.kinds) - set(FRAME_KINDS))
        if unknown:
            raise ValueError(
                f"unknown frame kind(s) {unknown}; valid: {list(FRAME_KINDS)}"
            )
        if self.stall_seconds < 0.0:
            raise ValueError("stall_seconds must be >= 0")
        if self.t1 < self.t0:
            raise ValueError(f"window end {self.t1} precedes start {self.t0}")
        if self.max_faults < 0:
            raise ValueError("max_faults must be >= 0 (0 = unlimited)")

    def applies(self, src: int, dst: int, kind: str, now: float) -> bool:
        return (
            (self.src == ANY_WORKER or self.src == src)
            and (self.dst == ANY_WORKER or self.dst == dst)
            and (not self.kinds or kind in self.kinds)
            and self.t0 <= now < self.t1
        )


@dataclass(frozen=True)
class BandwidthWindow:
    """Scale the bandwidth of links matching ``pattern`` by ``factor``
    during ``[t0, t1)`` — a congested or degraded-cable interval.  The
    pattern is an :func:`fnmatch.fnmatch` glob over link names as built by
    :mod:`repro.hardware.topology` (e.g. ``"n0.nic*"`` for node 0's NIC
    rails, ``"*.xbus.*"`` for every X-Bus).

    A factor of exactly ``0.0`` marks the matching links **down** for the
    window: the multirail rail planner excludes rails containing a down
    link (graceful fallback to the remaining rails), and the link layer
    raises on any bulk transfer whose regular route traverses one —
    zero-bandwidth occupancy has no finite completion time."""

    pattern: str
    factor: float
    t0: float = 0.0
    t1: float = _INF

    def __post_init__(self) -> None:
        if not 0.0 <= self.factor <= 1.0:
            raise ValueError(f"factor must be in [0, 1], got {self.factor!r}")
        if self.t1 < self.t0:
            raise ValueError(f"window end {self.t1} precedes start {self.t0}")

    def active(self, name: str, now: float) -> bool:
        from fnmatch import fnmatch

        return self.t0 <= now < self.t1 and fnmatch(name, self.pattern)


@dataclass(frozen=True)
class FaultPlan:
    """The full, seeded fault schedule of one run (see module docstring)."""

    seed: int = 0
    link_rules: Tuple[LinkFaultRule, ...] = ()
    bandwidth_windows: Tuple[BandwidthWindow, ...] = ()
    fail_ipc_open: bool = False
    fail_gdrcopy_probe: bool = False
    # recovery parameters: wait retry_timeout * retry_backoff**attempt
    # before retransmitting; give up (ERR_ENDPOINT_TIMEOUT) after
    # max_retries retransmissions of the same frame.
    retry_timeout: float = 50e-6
    retry_backoff: float = 2.0
    max_retries: int = 6

    def __post_init__(self) -> None:
        # tolerate lists from from_dict/JSON by freezing them to tuples
        if not isinstance(self.link_rules, tuple):
            object.__setattr__(self, "link_rules", tuple(self.link_rules))
        if not isinstance(self.bandwidth_windows, tuple):
            object.__setattr__(
                self, "bandwidth_windows", tuple(self.bandwidth_windows)
            )
        if self.retry_timeout <= 0.0:
            raise ValueError("retry_timeout must be > 0")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all.  Empty plans build no
        injector — runs are bit-identical to runs with no plan."""
        return (
            not self.link_rules
            and not self.bandwidth_windows
            and not self.fail_ipc_open
            and not self.fail_gdrcopy_probe
        )

    # -- convenience constructors ---------------------------------------------
    @classmethod
    def lossy(cls, drop_p: float, seed: int = 0, kinds: Tuple[str, ...] = (),
              **overrides) -> "FaultPlan":
        """Uniform lossy fabric: every frame (of ``kinds``, default all)
        between every worker pair is dropped with probability ``drop_p``."""
        return cls(
            seed=seed,
            link_rules=(LinkFaultRule(drop_p=drop_p, kinds=kinds),),
            **overrides,
        )

    @classmethod
    def rail_down(cls, pattern: str, t0: float = 0.0, t1: float = _INF,
                  seed: int = 0, **overrides) -> "FaultPlan":
        """One-rail-down plan: links matching ``pattern`` are down (factor
        0.0) during ``[t0, t1)``.  The multirail rail planner drops rails
        containing a down link, so striped transfers degrade gracefully to
        the surviving rails (e.g. ``pattern="n*.nvlalt*"`` downs every
        secondary NVLink brick, forcing single-rail intra-node traffic)."""
        return cls(
            seed=seed,
            bandwidth_windows=(BandwidthWindow(pattern, 0.0, t0, t1),),
            **overrides,
        )

    @classmethod
    def endpoint_down(cls, src: int, dst: int, from_t: float,
                      seed: int = 0, **overrides) -> "FaultPlan":
        """Hard endpoint failure: from ``from_t`` on, every frame from
        ``src`` to ``dst`` is lost — senders exhaust their retries and
        surface ``ERR_ENDPOINT_TIMEOUT``."""
        return cls(
            seed=seed,
            link_rules=(LinkFaultRule(src=src, dst=dst, drop_p=1.0, t0=from_t),),
            **overrides,
        )

    # -- (de)serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["link_rules"] = [asdict(r) for r in self.link_rules]
        doc["bandwidth_windows"] = [asdict(w) for w in self.bandwidth_windows]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown FaultPlan field(s) {unknown}; valid: {sorted(known)}"
            )
        doc = dict(doc)
        doc["link_rules"] = tuple(
            r if isinstance(r, LinkFaultRule) else LinkFaultRule(**_de_inf(r))
            for r in doc.get("link_rules", ())
        )
        doc["bandwidth_windows"] = tuple(
            w if isinstance(w, BandwidthWindow) else BandwidthWindow(**_de_inf(w))
            for w in doc.get("bandwidth_windows", ())
        )
        return cls(**doc)

    def to_json(self, indent: Optional[int] = 2) -> str:
        # json.dumps renders float('inf') as the non-standard literal
        # Infinity; map it to null for portability and back in from_json
        def _enc(v):
            if isinstance(v, dict):
                return {k: _enc(x) for k, x in v.items()}
            if isinstance(v, list):
                return [_enc(x) for x in v]
            if v == _INF:
                return None
            return v

        return json.dumps(_enc(self.to_dict()), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, spec: str) -> "FaultPlan":
        """The ``faults`` field from a string (``--override faults=PLAN``):
        ``spec`` is inline JSON when it starts with ``{``, otherwise the
        path of a JSON plan file."""
        text = spec.strip()
        if not text.startswith("{"):
            with open(spec) as fh:
                text = fh.read()
        return cls.from_json(text)


def _de_inf(doc: dict) -> dict:
    """Undo the JSON encoding of open-ended windows (``t1: null`` -> inf)."""
    out = dict(doc)
    if out.get("t1") is None:
        out["t1"] = _INF
    return out
