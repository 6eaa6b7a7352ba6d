"""CLI for the perf-regression baseline gate.

Usage::

    python -m repro.bench.baseline record [--out BENCH_baseline.json]
                                          [--workloads NAME ...]
    python -m repro.bench.baseline check  [--baseline BENCH_baseline.json]
                                          [--rtol 0.01] [--atol 1e-12]
                                          [--override runtime.ampi_send_overhead=6e-6]

``record`` runs the workload suite of :mod:`repro.obs.baseline` and writes
the fingerprints; ``check`` re-runs the suite, prints the wall-clock it
took, and exits nonzero when any fingerprint drifts outside tolerance.
``--override section.key=value`` perturbs the config before running
(:meth:`repro.config.MachineConfig.override`) — handy both for what-if runs
and for demonstrating that the gate trips.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.config import MachineConfig, add_override_arg
from repro.obs.baseline import (
    DEFAULT_BASELINE_PATH,
    check_baseline,
    collect_baseline,
    load_baseline,
    save_baseline,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.baseline",
        description="record/check deterministic performance baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run the suite and write the baseline")
    rec.add_argument("--out", default=DEFAULT_BASELINE_PATH,
                     help=f"output path (default {DEFAULT_BASELINE_PATH})")
    add_override_arg(rec)
    rec.add_argument("--workloads", action="append", default=None,
                     metavar="NAME",
                     help="record only the named workload(s) (repeatable; "
                          "default: the full suite)")

    chk = sub.add_parser("check", help="re-run the suite and compare")
    chk.add_argument("--baseline", default=DEFAULT_BASELINE_PATH,
                     help=f"baseline path (default {DEFAULT_BASELINE_PATH})")
    chk.add_argument("--rtol", type=float, default=None,
                     help="relative tolerance for modeled times "
                          "(default: the baseline's recorded rtol)")
    chk.add_argument("--atol", type=float, default=None,
                     help="absolute tolerance floor for modeled times "
                          "(default: the baseline's recorded atol)")
    add_override_arg(chk)

    args = parser.parse_args(argv)
    cfg = MachineConfig.summit(nodes=2).override(*args.override)

    if args.command == "record":
        doc = collect_baseline(cfg, workloads=args.workloads)
        path = save_baseline(doc, args.out)
        print(f"baseline with {len(doc['entries'])} workload(s) written to {path}")
        return 0

    doc = load_baseline(args.baseline)
    report = check_baseline(doc, cfg, rtol=args.rtol, atol=args.atol)
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
