"""Structural guards: recorders are named in one place, and so is the MPI
rank surface.

Message-path code reports lifecycle stages through ``tracer.stage`` /
``count`` / ``gauge`` (and gets its match queues from ``match_queue``) and
never reaches for the flight recorder or the telemetry record itself — which recorder hears about a stage
is decided in ``repro.obs`` (``obs/stages.py``).  This walks the source tree
so that per-site ``tracer.flight.*`` / ``telemetry.*`` hook families cannot
grow back, and checks that the stage table holds no handlers either.

Likewise the methods every MPI rank offers around its library's
``send``/``recv`` are written once, on ``repro.mpi.MpiRank``, and only
an app's driver builds a session: per-model runners take the one they are
given.
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

#: (file, attribute) -> why this access stays.  These append resource rows:
#: facts about a resource, not stages of a message, reaching the telemetry
#: record through a simulator handle that is ``None`` when telemetry is off.
ALLOWED = {
    ("hardware/topology.py", "flight"):
        "Machine builds the Tracer from the config's three switches",
    ("hardware/topology.py", "telemetry"):
        "the same config switch, and the record a pool appends its rows to",
    ("hardware/links.py", "telemetry"):
        "a bulk transfer appends its park, grant and release rows to "
        "sim.telemetry, like the fault injector handle",
    ("sim/engine.py", "telemetry"):
        "the Simulator attribute that carries that handle (default None), "
        "and the engine's every-256th-event row",
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


def test_stage_table_is_data():
    """Every field of every ``Stage`` row is data: a per-stage handler
    (a lambda or a recorder method) is a recorder grown back into the
    table.  What a stage means to the flight records is a field name or a
    named op that ``repro.obs.flight`` folds."""
    from repro.obs import stages

    rows = {name: st for name, st in vars(stages).items()
            if isinstance(st, stages.Stage)}
    handlers = {f"{name}.{field}" for name, st in rows.items()
                for field in stages.Stage.__slots__
                if callable(getattr(st, field))}
    assert not handlers, f"callable stage-table fields: {sorted(handlers)}"
    assert any(st.flight for st in rows.values())


#: Rank methods written once, on ``MpiRank`` (the device allreduce and its
#: sequence numbers on ``AmpiRank``, whose ranks alone run it); a second
#: definition on any class is a copy that can drift (a sub-communicator once
#: lacked half).
RANK_SURFACE = {
    "isend", "irecv", "waitall", "alloc_device", "free_device",
    "_cpu_delay", "_next_coll_seq", "allreduce_device",
}

#: (file, class, method) -> why this homonym is not a rank surface copy.
SURFACE_HOMONYMS = {
    ("hardware/topology.py", "Machine", "alloc_device"):
        "the machine's allocator, which MpiRank.alloc_device calls",
    ("hardware/topology.py", "Machine", "free_device"):
        "the machine's allocator, which MpiRank.free_device calls",
}


def _surface_methods():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name in RANK_SURFACE:
                    found.setdefault(node.name, []).append((rel, cls.name))
    return found


def test_rank_surface_is_written_once():
    found = _surface_methods()
    copies = {
        name: sites for name, sites in found.items()
        if len([s for s in sites if s + (name,) not in SURFACE_HOMONYMS]) > 1
    }
    assert not copies, f"rank methods defined more than once: {copies}"
    assert set(RANK_SURFACE) <= set(found)
    homonyms = {s + (name,) for name, sites in found.items() for s in sites}
    assert set(SURFACE_HOMONYMS) <= homonyms


def test_only_app_drivers_build_sessions():
    offenders = set()
    for path in sorted(SRC.glob("apps/*/*.py")):
        if path.name in ("driver.py", "runner.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "session"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "api"):
                offenders.add(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    assert not offenders, (
        "per-model runners take the driver's session instead of building "
        f"one: {sorted(offenders)}")
