"""``compare <setA> <setB>``: did B get worse than A, by the benchmark's bounds?

A set is a JSON-lines file written by ``run --append``: one object per run
with its ``workload``, ``seed`` and end-to-end ``metrics``.  For each
workload x end-to-end metric this prints each side's median and quartiles
and a verdict:

``within_bound``  B's median is no worse than A's by more than the bound;
``regressed``     it is worse by more than the bound;
``unresolved``    either side's spread (quartile distance over median) is
                  wider than the bound, so the runs cannot tell.

Exit code 1 on any ``regressed``.  The bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.perf.workloads import ROOT


def read_runs(path: Path) -> List[Dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def load_set(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, in run order."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in read_runs(path):
        per_metric = out.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            per_metric.setdefault(name, []).append(value)
    return out


def summarise(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def judge(a: List[float], b: List[float], better: str, bound: float) -> Dict:
    sa, sb = summarise(a), summarise(b)
    worse_by = (sb["median"] - sa["median"]) / sa["median"]
    if better == "higher":
        worse_by = -worse_by
    if max(sa["spread"], sb["spread"]) > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "within_bound"
    return {"a": sa, "b": sb, "worse_by": worse_by, "bound": bound,
            "verdict": verdict}


def compare(path_a: Path, path_b: Path) -> List[Dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = load_set(path_a), load_set(path_b)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in set_a or workload not in set_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = judge(set_a[workload][name], set_b[workload][name],
                        metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], **row})
    return rows


def format_rows(rows: List[Dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':<36} "
             f"{'B median [q1, q3]':<36} {'worse by':>9} {'bound':>6}  verdict"]
    for r in rows:
        def side(s):
            return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"
        lines.append(
            f"{r['workload']:<16} {r['metric']:<12} {side(r['a']):<36} "
            f"{side(r['b']):<36} {100 * r['worse_by']:>8.2f}% "
            f"{100 * r['bound']:>5.0f}%  {r['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    parser.add_argument("--out", type=Path,
                        help="also write both sets and the verdicts as JSON")
    args = parser.parse_args(argv)
    rows = compare(args.set_a, args.set_b)
    text = format_rows(rows)
    print(text)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"set_a": read_runs(args.set_a), "set_b": read_runs(args.set_b),
             "verdicts": rows, "table": text.splitlines()}, indent=1) + "\n")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
