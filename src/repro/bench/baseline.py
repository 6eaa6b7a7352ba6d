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
``--override section.key=value`` perturbs the config before running (a
section is any
dataclass-typed field of :class:`~repro.config.MachineConfig` — ``ucx``,
``runtime``, ``memory``, ... — or omit it for a top-level field) — handy
both for what-if runs and for demonstrating that the gate trips.
"""

from __future__ import annotations

import argparse
from dataclasses import is_dataclass, replace
from typing import List, Optional, get_type_hints

from repro.config import MachineConfig, _validated_replace
from repro.obs.baseline import (
    DEFAULT_BASELINE_PATH,
    check_baseline,
    collect_baseline,
    load_baseline,
    save_baseline,
)

#: the config sections ``--override section.key=value`` may name
_SECTIONS = tuple(
    name for name, tp in get_type_hints(MachineConfig).items() if is_dataclass(tp)
)


def _parse_value(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def apply_override(cfg: MachineConfig, spec: str) -> MachineConfig:
    """Apply one ``section.key=value`` (or top-level ``key=value``) override."""
    if "=" not in spec:
        raise ValueError(f"override {spec!r} is not of the form key=value")
    key, _, text = spec.partition("=")
    value = _parse_value(text.strip())
    key = key.strip()
    if "." in key:
        section, _, name = key.partition(".")
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown config section {section!r}; valid: {_SECTIONS}"
            )
        sub = _validated_replace(getattr(cfg, section), {name: value})
        return replace(cfg, **{section: sub})
    return cfg.with_overrides(**{key: value})


def _build_config(overrides: List[str]) -> MachineConfig:
    cfg = MachineConfig.summit(nodes=2)
    for spec in overrides:
        cfg = apply_override(cfg, spec)
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.baseline",
        description="record/check deterministic performance baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run the suite and write the baseline")
    rec.add_argument("--out", default=DEFAULT_BASELINE_PATH,
                     help=f"output path (default {DEFAULT_BASELINE_PATH})")
    rec.add_argument("--override", action="append", default=[],
                     metavar="SECTION.KEY=VALUE",
                     help="config perturbation (repeatable)")
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
    chk.add_argument("--override", action="append", default=[],
                     metavar="SECTION.KEY=VALUE",
                     help="config perturbation (repeatable)")

    args = parser.parse_args(argv)
    cfg = _build_config(args.override)

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
