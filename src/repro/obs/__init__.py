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
"""

from repro.obs.baseline import (
    BaselineReport,
    check_baseline,
    collect_baseline,
)
from repro.obs.congestion import (
    CongestionReport,
    LinkCongestion,
    congestion_report,
)
from repro.obs.critical_path import (
    CriticalPathReport,
    Segment,
    critical_path,
)
from repro.obs.export import (
    chrome_trace,
    export_chrome_trace,
    metrics_snapshot,
    validate_chrome_trace,
)
from repro.obs.flight import FlightRecord, flight_records
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timeline import (
    Telemetry,
    TimeSeries,
    timeline_dict,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    Tracer,
)

__all__ = [
    "BaselineReport",
    "check_baseline",
    "collect_baseline",
    "CongestionReport",
    "LinkCongestion",
    "congestion_report",
    "CriticalPathReport",
    "Segment",
    "critical_path",
    "chrome_trace",
    "export_chrome_trace",
    "metrics_snapshot",
    "validate_chrome_trace",
    "FlightRecord",
    "flight_records",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Telemetry",
    "TimeSeries",
    "timeline_dict",
    "Tracer",
]
