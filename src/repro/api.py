"""Unified public facade: build machine + model + tracer in one place.

Before this module, every consumer used a different incantation per model::

    charm = Charm(cfg)                    # Charm++
    lib = Ampi(Charm(cfg))                # AMPI
    lib = OpenMpi(cfg)                    # OpenMPI
    lib = Charm4py(cfg)                   # Charm4py

Now there is one documented entry point::

    import repro.api as api

    sess = (api.session(MachineConfig.summit(nodes=2))
               .model("ampi")
               .trace()          # enable span-tree tracing
               .build())
    done = sess.launch(program)
    sess.run_until(done)
    sess.export_chrome_trace("timeline.json")   # open in ui.perfetto.dev
    snap = sess.metrics_snapshot()              # counters/histograms/times

The session exposes the underlying model object (``sess.lib``) unchanged, so
every existing program body (``lib.launch``, rank generators, proxies) works
as before — the facade standardises *construction and observation*, not the
programming models themselves.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.config import MachineConfig
from repro.obs import chrome_trace, export_chrome_trace, metrics_snapshot
from repro.obs.congestion import CongestionReport, congestion_report
from repro.obs.critical_path import CriticalPathReport, critical_path
from repro.obs.flight import aggregate, flight_records
from repro.obs.timeline import timeline_dict

__all__ = ["MODELS", "Session", "SessionBuilder", "session"]

#: Model names accepted by :meth:`SessionBuilder.model`.
MODELS = ("charm", "ampi", "openmpi", "charm4py")


class Session:
    """One built simulation: machine + model frontend + tracer."""

    def __init__(self, config: MachineConfig, model: str, lib, charm, machine) -> None:
        self.config = config
        self.model = model
        #: the model frontend object (Charm / Ampi / OpenMpi / Charm4py)
        self.lib = lib
        #: the underlying Charm runtime, if the model runs on one (else None)
        self.charm = charm
        self.machine = machine

    # -- simulation handles -----------------------------------------------------
    @property
    def sim(self):
        return self.machine.sim

    @property
    def now(self) -> float:
        return self.machine.sim.now

    @property
    def tracer(self):
        return self.machine.tracer

    @property
    def counters(self):
        return self.machine.tracer.counters

    # -- running workloads -------------------------------------------------------
    def launch(self, program, *args):
        """Start ``program`` on the model frontend (same semantics as the
        frontend's own ``launch``)."""
        return self.lib.launch(program, *args)

    def run_until(self, event, max_events: Optional[int] = None):
        return self.machine.sim.run_until_complete(event, max_events=max_events)

    # -- observability -------------------------------------------------------------
    def metrics_snapshot(self) -> Dict:
        """Plain-dict metrics snapshot (``counters`` / ``histograms`` /
        ``time_by_category``)."""
        return metrics_snapshot(self.machine.tracer)

    def chrome_trace(self) -> Dict:
        """The traced span tree as a Chrome trace-event JSON dict."""
        return chrome_trace(self.machine.tracer, process_name=f"repro-{self.model}")

    def export_chrome_trace(self, path: Union[str, Path]) -> Path:
        """Write the Chrome-trace JSON timeline to ``path``."""
        return export_chrome_trace(
            self.machine.tracer, path, process_name=f"repro-{self.model}"
        )

    def flight_records(self):
        """Per-message device-transfer lifecycles (needs ``.flight()``;
        empty list when flight recording is disabled), folded from the
        tracer's stage log on each call."""
        return flight_records(self.machine.tracer.log)

    def flight_summary(self) -> Dict:
        """Aggregate flight statistics: per-protocol delayed-posting cost,
        unexpected-arrival counts, posting-order inversions."""
        return aggregate(flight_records(self.machine.tracer.log))

    def critical_path(self, t0: Optional[float] = None,
                      t1: Optional[float] = None) -> CriticalPathReport:
        """Critical chain + per-layer blame over the traced window
        (requires tracing; see :mod:`repro.obs.critical_path`)."""
        return critical_path(self.machine.tracer, t0, t1)

    def timeline(self) -> Dict:
        """JSON-ready dict of every telemetry series — per-series unit,
        exact count/min/mean/max stats and the retained (decimated)
        points.  Needs ``.telemetry()``; ``series`` is empty without it."""
        return timeline_dict(self.machine.tracer.timeline)

    def export_timeline(self, path: Union[str, Path]) -> Path:
        """Write :meth:`timeline` as JSON to ``path`` (the format
        ``python -m repro.bench.timeline summary`` reads)."""
        path = Path(path)
        path.write_text(json.dumps(self.timeline()), encoding="ascii")
        return path

    def congestion_report(self, top_n: int = 5) -> CongestionReport:
        """Congestion attribution over the whole run: top contended links
        with who waited on them, saturation windows, endpoint-thrash
        verdict (requires ``.telemetry()``)."""
        return congestion_report(self.machine.tracer, top_n=top_n)

    def collectives_summary(self) -> Dict:
        """What the device collectives did: per-collective/algorithm
        invocation counts (always available) and cumulative intra- vs
        inter-node phase time (needs ``.trace()``; zero without it)."""
        tracer = self.machine.tracer
        invocations = {
            key[len("coll."):]: count
            for key, count in sorted(self.counters.items())
            if key.startswith("coll.")
        }
        return {
            "invocations": invocations,
            "intra_time_us": tracer.time_in("coll.intra") * 1e6,
            "inter_time_us": tracer.time_in("coll.inter") * 1e6,
        }

    def baseline_fingerprint(self) -> Dict:
        """Deterministic run fingerprint used by the perf-regression
        baseline gate (:mod:`repro.obs.baseline`)."""
        agg = self.flight_summary()
        return {
            "sim_time_us": self.now * 1e6,
            "events": self.sim.event_count,
            "counters": dict(sorted(self.counters.items())),
            "posting": {
                "delayed_posting_us": agg["delayed_posting_seconds"] * 1e6,
                "rndv_delayed_posting_us":
                    agg["by_protocol"]["rndv"]["delayed_posting_seconds"] * 1e6,
                "eager_delayed_posting_us":
                    agg["by_protocol"]["eager"]["delayed_posting_seconds"] * 1e6,
                "inversions": agg["posting_inversions"],
                "n_records": agg["n_records"],
            },
        }


class SessionBuilder:
    """Fluent builder: ``api.session(cfg).model("ampi").trace().build()``.

    The builder carries a config; every option method derives the next one
    through :meth:`MachineConfig.override` the moment it is called, so a bad
    value fails at the call that passed it and ``build`` only constructs."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self._config = config if config is not None else MachineConfig.summit()
        self._model = "charm"
        self._n_ranks: Optional[int] = None
        self._ranks_per_pe: int = 1

    def model(self, name: str) -> "SessionBuilder":
        if name not in MODELS:
            raise ValueError(f"unknown model {name!r}; choose from {MODELS}")
        self._model = name
        return self

    def set(self, *overrides) -> "SessionBuilder":
        """Any config field by name — same arguments as
        :meth:`MachineConfig.override`, e.g.
        ``.set({"multirail.enabled": True, "multirail.chunk_bytes": 256 * KB})``."""
        self._config = self._config.override(*overrides)
        return self

    def trace(self, enabled: bool = True) -> "SessionBuilder":
        return self.set({"trace": enabled})

    def flight(self, enabled: bool = True) -> "SessionBuilder":
        """Enable message-lifecycle flight recording (observation-only)."""
        return self.set({"flight": enabled})

    def telemetry(self, enabled: bool = True) -> "SessionBuilder":
        """Enable resource-telemetry timelines (observation-only):
        link/queue/pool/endpoint occupancy series behind
        :meth:`Session.timeline` and :meth:`Session.congestion_report`."""
        return self.set({"telemetry": enabled})

    def faults(self, plan) -> "SessionBuilder":
        """Attach a deterministic :class:`repro.faults.FaultPlan`.  An empty
        plan is bit-identical to no plan; ``None`` detaches one."""
        return self.set({"faults": plan})

    def pool(self, enabled: bool = True) -> "SessionBuilder":
        """Route device allocation through the slab pool (or explicitly
        through the direct allocator with ``pool(False)``)."""
        self._config = self._config.with_pool(enabled)
        return self

    def ranks(self, n_ranks: Optional[int] = None, ranks_per_pe: int = 1) -> "SessionBuilder":
        """MPI-model rank layout (AMPI virtualisation via ``ranks_per_pe``)."""
        self._n_ranks = n_ranks
        self._ranks_per_pe = ranks_per_pe
        return self

    def build(self) -> Session:
        # imports deferred: the facade must stay importable without pulling
        # the whole model graph until a session is actually built
        from repro.ampi import Ampi
        from repro.charm import Charm
        from repro.charm4py import Charm4py
        from repro.openmpi import OpenMpi

        cfg = self._config
        name = self._model
        charm = None
        if name == "charm":
            lib = charm = Charm(cfg)
            machine = charm.machine
        elif name == "ampi":
            charm = Charm(cfg)
            lib = Ampi(charm, n_ranks=self._n_ranks, ranks_per_pe=self._ranks_per_pe)
            machine = charm.machine
        elif name == "openmpi":
            lib = OpenMpi(cfg, n_ranks=self._n_ranks)
            machine = lib.machine
        else:  # charm4py
            lib = Charm4py(cfg)
            charm = lib.charm
            machine = charm.machine
        return Session(cfg, name, lib, charm, machine)


def session(config: Optional[MachineConfig] = None) -> SessionBuilder:
    """Start building a session: ``api.session(cfg).model("ampi").build()``."""
    return SessionBuilder(config)
