"""Structured observability: span trees, typed metrics, timeline export,
message-lifecycle flight recording and critical-path analysis.

Usage (normally reached through :mod:`repro.api`)::

    import repro.api as api

    sess = api.session(MachineConfig.summit()).model("ampi").trace().flight().build()
    ...  # run a workload
    sess.export_chrome_trace("timeline.json")   # open in ui.perfetto.dev
    snap = sess.metrics_snapshot()              # plain-dict counters/times
    recs = sess.flight_records()                # per-message lifecycles
    print(sess.critical_path().format())        # layer-blame report

See :mod:`repro.obs.tracing` for the span API and the determinism contract,
:mod:`repro.obs.metrics` for the registry, :mod:`repro.obs.export` for the
Chrome-trace format notes, :mod:`repro.obs.flight` for the flight-record
schema and the fold that builds records from the tracer's stage log,
:mod:`repro.obs.critical_path` for the blame algorithm and
:mod:`repro.obs.baseline` for the perf-regression baseline store.

Importing the package loads nothing.  A session loads what its run
records into — :mod:`.tracing` with :mod:`.metrics`, :mod:`.stages` and
:mod:`.timeline` — and an analysis, an export or the baseline store loads
with the first call that reads it (:class:`repro.api.Session` imports each
inside the method).  The public names below resolve on first access
(PEP 562), so ``from repro.obs import validate_chrome_trace`` works as
before.  ``repro.obs.critical_path`` names the submodule; its function is
``repro.obs.critical_path.critical_path`` (or ``Session.critical_path()``).
"""

import importlib

#: public name -> the submodule that defines it
_EXPORTS = {
    "BaselineReport": "baseline",
    "check_baseline": "baseline",
    "collect_baseline": "baseline",
    "CongestionReport": "congestion",
    "LinkCongestion": "congestion",
    "congestion_report": "congestion",
    "CriticalPathReport": "critical_path",
    "Segment": "critical_path",
    "chrome_trace": "export",
    "export_chrome_trace": "export",
    "metrics_snapshot": "export",
    "validate_chrome_trace": "export",
    "FlightRecord": "flight",
    "flight_records": "flight",
    "LATENCY_BUCKETS": "metrics",
    "SIZE_BUCKETS": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "Series": "timeline",
    "Telemetry": "timeline",
    "timeline_dict": "timeline",
    "NULL_SPAN": "tracing",
    "Span": "tracing",
    "Tracer": "tracing",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
