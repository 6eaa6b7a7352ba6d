"""The observation option group shared by the ``repro-osu``,
``repro-jacobi3d`` and ``repro-shuffle`` command lines.

One place declares the flags, derives which of the three switches
(``trace`` / ``flight`` / ``telemetry``) they imply, and writes the outputs.
"""

from __future__ import annotations

import json

from repro.obs.flight import aggregate

__all__ = ["add_observation_args", "observed", "report"]


def add_observation_args(parser, run: str = "the run") -> None:
    """Add ``--trace-out/--flight-out/--blame/--timeline-out/--congestion``;
    ``run`` names what is observed in the help texts."""
    group = parser.add_argument_group("observation")
    group.add_argument("--trace-out", metavar="PATH", default=None,
                       help=f"write a Chrome-trace timeline of {run} "
                            "(open in ui.perfetto.dev)")
    group.add_argument("--flight-out", metavar="PATH", default=None,
                       help="write the flight-recorder JSON (per-message "
                            f"lifecycles + aggregate) of {run}")
    group.add_argument("--blame", action="store_true",
                       help="print the critical-path layer-blame report and "
                            f"delayed-posting summary of {run}")
    group.add_argument("--timeline-out", metavar="PATH", default=None,
                       help="write the resource-telemetry timeline JSON of "
                            f"{run} (inspect with python -m "
                            "repro.bench.timeline summary)")
    group.add_argument("--congestion", action="store_true",
                       help="print the congestion-attribution report of "
                            f"{run} (top contended links, endpoint thrash)")


def observed(cfg, args):
    """``cfg`` with the switches the parsed flags imply; ``cfg`` itself
    (the same object) when they ask for nothing."""
    if args.trace_out or args.flight_out or args.blame:
        cfg = cfg.override({"trace": True, "flight": True})
    if args.timeline_out or args.congestion:
        cfg = cfg.override({"telemetry": True})
    return cfg


def report(sess, args, label: str = "") -> None:
    """Write and print what the flags asked for from the finished ``sess``
    (plus its fault counters when it ran under a fault plan).  ``label``
    qualifies the run in the printed lines, e.g. ``" (4M run)"``."""
    if args.trace_out:
        path = sess.export_chrome_trace(args.trace_out)
        print(f"# trace{label} written to {path}")
    if args.flight_out or args.blame:
        records = sess.flight_records()
        agg = aggregate(records)
    if args.flight_out:
        doc = {"records": [r.to_dict() for r in records], "aggregate": agg}
        with open(args.flight_out, "w") as f:
            json.dump(doc, f, indent=2)
        print(f"# flight records{label} written to {args.flight_out}")
    if args.blame:
        print(f"# layer blame{label}")
        print(sess.critical_path().format())
        for proto in ("rndv", "eager"):
            p = agg["by_protocol"][proto]
            print(f"# {proto}: n={p['n']}, delayed-posting "
                  f"{p['delayed_posting_seconds'] * 1e6:.2f} us total "
                  f"(max {p['max_delayed_posting_seconds'] * 1e6:.2f} us)")
    if args.timeline_out:
        path = sess.export_timeline(args.timeline_out)
        print(f"# telemetry timeline{label} written to {path}")
    if args.congestion:
        print(sess.congestion_report().format())
    if sess.config.faults is not None:
        counters = sess.metrics_snapshot()["counters"]
        faults = {k: v for k, v in sorted(counters.items())
                  if k.startswith("fault.")}
        print(f"# fault counters{label}: "
              + (", ".join(f"{k}={v}" for k, v in faults.items()) or "none"))
