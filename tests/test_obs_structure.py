"""Structural guard: recorders are named in one place.

Message-path code reports lifecycle stages through ``tracer.stage`` /
``count`` / ``gauge`` / ``queue_probe`` and never reaches for the flight
recorder or the telemetry object itself — which recorder hears about a stage
is decided in ``repro.obs`` (``obs/stages.py``).  This walks the source tree
so that per-site ``tracer.flight.*`` / ``telemetry.*`` hook families cannot
grow back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

RECORDER_ATTRS = {"flight", "timeline", "telemetry"}

#: Where naming a recorder is the job: the observation package, its
#: post-hoc tooling, the facade and config that expose the three switches,
#: and the command lines that print reports.
EXEMPT = ("obs/", "bench/", "api.py", "config.py", "apps/osu/runner.py",
          "apps/jacobi3d/driver.py", "apps/shuffle/driver.py")

#: (file, attribute) -> why this access stays.  These are the resource
#: probes: samples of a resource, not stages of a message, installed once
#: as ``None``-when-off callables.
ALLOWED = {
    ("hardware/topology.py", "flight"):
        "Machine builds the Tracer from the config's three switches",
    ("hardware/topology.py", "telemetry"):
        "the same config switch, and wiring sim.telemetry for links.py",
    ("hardware/topology.py", "timeline"):
        "the one place the engine, link and pool probes are installed",
    ("hardware/links.py", "telemetry"):
        "path_transfer samples link waits/occupancy via sim.telemetry "
        "(None when off), like the fault injector handle",
    ("sim/engine.py", "telemetry"):
        "the Simulator attribute that carries that handle (default None)",
}


def _recorder_accesses():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(EXEMPT):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in RECORDER_ATTRS:
                found.setdefault((rel, node.attr), []).append(node.lineno)
    return found


def test_no_site_names_a_recorder():
    found = _recorder_accesses()
    offenders = {
        f"{rel}:{lines} .{attr}" for (rel, attr), lines in found.items()
        if (rel, attr) not in ALLOWED
    }
    assert not offenders, (
        "recorder named outside repro.obs (report a stage through the "
        f"tracer instead): {sorted(offenders)}")
    # the allow-list stays honest: every entry is still in use, and small
    assert set(ALLOWED) == set(found)
    lines = {(rel, n) for (rel, _attr), ns in found.items() for n in ns}
    assert len(lines) <= 12 and len({rel for rel, _ in lines}) <= 3
