"""CLI for the perf-regression baseline gate.

Usage::

    python -m repro.bench.baseline record [--out BENCH_baseline.json]
                                          [--workloads NAME ...]
    python -m repro.bench.baseline check  [--baseline BENCH_baseline.json]
                                          [--override runtime.ampi_send_overhead=6e-6]

``record`` runs the workload suite of :mod:`repro.obs.baseline` and writes
the fingerprints; with ``--workloads`` it re-records only the named entries
of an existing ``--out`` file and keeps the others.  ``check`` re-runs the
suite, prints the wall-clock it took, and exits nonzero when any
fingerprint value differs from the recorded one.  ``--override
section.key=value`` perturbs the config before running
(:meth:`repro.config.MachineConfig.override`) — handy both for what-if runs
and for demonstrating that the gate trips.
"""

from __future__ import annotations

import argparse
from pathlib import Path
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
                     help="re-record only the named workload(s), keeping the "
                          "other entries of --out (repeatable; default: the "
                          "full suite)")

    chk = sub.add_parser("check", help="re-run the suite and compare")
    chk.add_argument("--baseline", default=DEFAULT_BASELINE_PATH,
                     help=f"baseline path (default {DEFAULT_BASELINE_PATH})")
    add_override_arg(chk)

    args = parser.parse_args(argv)
    cfg = MachineConfig.summit(nodes=2).override(*args.override)

    if args.command == "record":
        doc = collect_baseline(cfg, workloads=args.workloads)
        if args.workloads and Path(args.out).exists():
            kept = load_baseline(args.out)["entries"]
            doc["entries"] = {**kept, **doc["entries"]}
        path = save_baseline(doc, args.out)
        print(f"baseline with {len(doc['entries'])} workload(s) written to {path}")
        return 0

    doc = load_baseline(args.baseline)
    report = check_baseline(doc, cfg)
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
