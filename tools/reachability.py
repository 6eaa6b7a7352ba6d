#!/usr/bin/env python3
"""List the functions of ``src/repro`` that no production entry point reaches.

Usage, from the repository root (no flags; about 6 minutes on 2 cores)::

    python tools/reachability.py

Every root in :data:`ROOTS` runs in a fresh interpreter whose
``sitecustomize`` installs a call-only ``sys.settrace`` hook: each code
object entered is recorded, no line events are asked for.  The hook is a
trace function, not a profiler, so it works alongside the ``cProfile`` that
``benchmarks/perf`` trace mode installs, and any Python child a root
spawns records into the same set.

The output is one row per function defined in ``src/repro`` (found with
``ast``) whose code was never entered, as ``path::qualname`` followed by
the lines of its body, then a summary line.  A root fails when it crashes
or when none of its interpreters wrote a record (the hook did not load);
the exit status is then 1.  ``tools/reachability.txt`` is
the committed ledger of those rows, each with its verdict;
``tests/test_reachability_ledger.py`` checks the ledger against the source.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

FAULT_PLAN = '{"seed": 7, "link_rules": [{"drop_p": 0.05}]}'

#: the production entry points: the baseline workloads, the repo
#: benchmark in both modes, the README's command lines (``{tmp}`` is a
#: scratch directory) and every example
ROOTS = [
    ["-m", "repro.bench.baseline", "check", "--baseline",
     str(ROOT / "BENCH_baseline.json")],
    *[[str(ROOT / "benchmarks/perf/run.py"), "--workload", w, "--seed", "1",
       "--rounds", "1", "--trace", t]
      for w in ("pingpong_small", "shuffle_churn", "jacobi_halo_64",
                "observed_report")
      for t in ("0", "1")],
    ["-m", "repro.bench.figures", "all", "--quick", "--plot"],
    ["-m", "repro.bench.calibration"],
    ["-m", "repro.bench.experiments", "--quick", "-o", "{tmp}/EXPERIMENTS.md"],
    ["-m", "repro.apps.osu.runner", "latency", "charm", "--placement", "intra"],
    ["-m", "repro.apps.osu.runner", "bandwidth", "charm4py", "--host-staging"],
    ["-m", "repro.apps.osu.runner", "latency", "ampi",
     "--trace-out", "{tmp}/osu-trace.json"],
    ["-m", "repro.apps.osu.runner", "latency", "ampi", "--placement", "inter",
     "--blame"],
    ["-m", "repro.apps.osu.runner", "latency", "openmpi",
     "--flight-out", "{tmp}/flight.json"],
    ["-m", "repro.apps.osu.runner", "latency", "ampi", "--placement", "inter",
     "--override", "faults=" + FAULT_PLAN],
    ["-m", "repro.apps.osu.runner", "bandwidth", "ampi", "--placement",
     "intra", "--congestion"],
    ["-m", "repro.apps.osu.runner", "bandwidth", "ampi", "--placement",
     "intra", "--override", "multirail.enabled=true"],
    ["-m", "repro.apps.jacobi3d.driver", "ampi", "--nodes", "8", "--scaling",
     "weak", "--trace-out", "{tmp}/jacobi-trace.json"],
    ["-m", "repro.apps.jacobi3d.driver", "charm", "--blame"],
    ["-m", "repro.apps.jacobi3d.driver", "charm", "--override",
     "faults={tmp}/plan.json", "--blame"],
    ["-m", "repro.apps.jacobi3d.driver", "charm", "--nodes", "8",
     "--timeline-out", "{tmp}/jacobi-tl.json"],
    ["-m", "repro.apps.shuffle.driver", "ampi", "--nodes", "4", "--ablation"],
    ["-m", "repro.apps.shuffle.driver", "charm4py", "--rounds", "8",
     "--flight-out", "{tmp}/shuffle-flight.json"],
    ["-m", "repro.apps.shuffle.driver", "ampi", "--nodes", "4",
     "--timeline-out", "{tmp}/tl.json", "--congestion"],
    ["-m", "repro.apps.shuffle.driver", "ampi", "--override",
     "ucx.max_endpoints=4", "--congestion"],
    ["-m", "repro.apps.shuffle.driver", "ampi", "--trace-out",
     "{tmp}/shuffle-trace.json", "--congestion"],
    ["-m", "repro.apps.shuffle.driver", "charm4py", "--nodes", "2",
     "--override", "memory.allocator=direct", "--trace-out",
     "{tmp}/shuffle-direct.json"],
    *[[str(p), "{tmp}/" + p.stem + ".json"]
      for p in sorted((ROOT / "examples").glob("*.py"))],
]

#: runs after every root above: it reads a timeline another root wrote
SUMMARY = [["-m", "repro.bench.timeline", "summary", "{tmp}/tl.json"],
           ["-m", "repro.bench.timeline", "summary", "{tmp}/tl.json",
            "--series", "link.*"]]

HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _call(frame, event, arg):
    _seen.add(frame.f_code)


sys.settrace(_call)
threading.settrace(_call)


@atexit.register
def _dump():
    sys.settrace(None)
    src = os.environ["REACH_SRC"]
    rows = {f"{c.co_filename}:{c.co_firstlineno}\\n" for c in _seen
            if c.co_filename.startswith(src)}
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "a") as fh:
        fh.writelines(sorted(rows))
'''


def defined_functions():
    """Yield ``(path, qualname, first line, body lines)`` for every ``def``
    under ``src/repro``; the first line is the one ``co_firstlineno``
    reports (the first decorator's, when there is one)."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    body = child.end_lineno - child.body[0].lineno + 1
                    yield rel, qual, first, body
                    stack.append((child, qual + ".<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))
                else:
                    stack.append((child, prefix))


def _run(argv, env, tmp):
    """Run one root with its records going to a directory of its own;
    returns the root, its exit code, stderr and the records written."""
    out = Path(tempfile.mkdtemp(prefix="reached", dir=tmp))
    cmd = [sys.executable] + [a.replace("{tmp}", tmp) for a in argv]
    done = subprocess.run(cmd, cwd=tmp, env=dict(env, REACH_OUT=str(out)),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    records = [line for f in out.iterdir()
               for line in f.read_text().splitlines()]
    return argv, done.returncode, done.stderr, records


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir = Path(tmp, "hook")
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        Path(tmp, "plan.json").write_text(FAULT_PLAN)
        env = dict(os.environ, PYTHONHASHSEED="0", REACH_SRC=str(SRC),
                   PYTHONPATH=os.pathsep.join(
                       [str(hook_dir), str(ROOT / "src"), str(ROOT)]))
        failed = []
        reached = set()
        with ThreadPoolExecutor(max(1, min(2, os.cpu_count() or 1))) as pool:
            for roots in (ROOTS, SUMMARY):
                for argv, code, err, records in pool.map(
                        lambda a: _run(a, env, tmp), roots):
                    # the root only has to run: a gate that trips still
                    # reached its code, but a crash before the end did not,
                    # and a root that recorded nothing ran without the hook
                    if code not in (0, 1) or "Traceback" in err:
                        failed.append((argv, err.strip().splitlines()[-1:]))
                    elif not records:
                        failed.append((argv, ["no record written: the hook "
                                              "did not run"]))
                    for line in records:
                        filename, _, lineno = line.rpartition(":")
                        reached.add((Path(filename).resolve().relative_to(ROOT)
                                     .as_posix(), int(lineno)))

    total = unreached = lines = 0
    for rel, qual, first, body in defined_functions():
        total += 1
        if (rel, first) not in reached:
            unreached += 1
            lines += body
            print(f"{rel}::{qual} {body}")
    print(f"# {unreached} of {total} functions unreached ({lines} body lines)")
    for argv, tail in failed:
        print(f"# root failed: {' '.join(argv)}: {tail}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
