"""Command line of the repo benchmark.

The driver form (``BENCHMARK.json``'s command), run from the repo root::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

and the forms for people (``PYTHONPATH=src python -m benchmarks.perf ...``)::

    run     --workload W --seed N [--window-s S] [--rounds R] [--append FILE]
    trace   --workload W --seed N
    compare SET_A SET_B [--out FILE]

``run`` prints every end-to-end metric (and the noise diagnostics) by name
with its unit; ``trace`` prints every per-layer metric.  Both check every
part execution and end with one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` declares for that mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.perf`` importable and pin string
    hashing, re-executing once if the interpreter started without it."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.perf: no simulator under {ROOT / 'src'}; "
                 "run from a full checkout")
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:], env)
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _print_metrics(metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}")


def _result_line(metrics, attempted: int, failures: List[str]) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    from benchmarks.perf import compare, harness, trace
    from benchmarks.perf.workloads import WORKLOADS

    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv.pop(0) if argv and not argv[0].startswith("-") else "driver"
    if command == "compare":
        return compare.main(argv)
    if command not in ("driver", "run", "trace"):
        sys.exit(f"unknown command {command!r}; use run, trace or compare")

    parser = argparse.ArgumentParser(prog=f"benchmarks.perf {command}")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", "--window-s", dest="window_s", type=float,
                        default=harness.DEFAULT_WINDOW_S,
                        help="measurement window (the same on both commits)")
    parser.add_argument("--rounds", type=int,
                        help="run exactly this many rounds (smoke tests)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", type=Path,
                        help="append this run to a JSON-lines set for compare")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if command == "trace" or args.trace:
        metrics, attempted, failures = trace.trace(workload, args.seed)
        _print_metrics(metrics)
    else:
        m = harness.measure(workload, window_s=args.window_s, rounds=args.rounds)
        metrics, attempted, failures = m.end_to_end(), m.attempted, m.failures
        _print_metrics(metrics)
        _print_metrics(m.noise())
        _print_metrics({"sim_time_us": (m.first.sim_time_us, "sim_us"),
                        "ops_attempted": (attempted, "count"),
                        "ops_failed": (len(failures), "count")})
        if args.append is not None:
            with args.append.open("a") as fh:
                fh.write(json.dumps({
                    "workload": args.workload, "seed": args.seed,
                    "sim_time_us": m.first.sim_time_us,
                    "ops_failed": len(failures),
                    "metrics": {k: v for k, (v, _u) in metrics.items()},
                }) + "\n")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(_result_line(metrics, attempted, failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
