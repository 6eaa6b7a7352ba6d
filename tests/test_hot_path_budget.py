"""Host-cost guards for the per-event hot path, with no clock involved.

The simulator's host time is Python function calls per fired event, so the
budget is stated in those: run a small Jacobi3D, and a small all-to-all
shuffle, under ``sys.setprofile``, count the Python-level calls, divide by
``sim.event_count``.  The count is a property of the code, not of the
machine, so the bound sits a few percent above today's value and fails the
day a per-message closure, property or event hop creeps back in.  The
shuffle is measured at two scales: contention grows with the machine, cost
per event must not.  Of the unobserved Jacobi3D's calls, those made in
``repro/obs`` are held on their own: with nothing switched on, observation
is a counter per counted stage and no more.  Observation is held the same
way on the 8-node traced, flight-recorded, telemetry-on Jacobi3D the repo
benchmark's ``observed_report`` runs: calls per exported Chrome-trace event,
calls per recorded span (what the observed run calls beyond the model's
own calls, which are the same run's calls outside ``repro/obs`` with
nothing observed), and calls of the critical-path analysis per span.

A count is of the code alone, the same whatever ran before it in the
process.  Every module a measured call runs is imported below, before any
measurement, and the ASCII codec the exports write with is looked up: a
lazy import inside a measured call would count the import machinery's
calls, and ``_python_calls`` fails if one imports anything.  The garbage
earlier runs left is collected first (closing a dead session's suspended
generators inside the window would count their resumptions), and the
collector's callbacks are set aside while a call is measured: Hypothesis
installs one once any of its tests has run, and it would count two calls
per collection.

Six source rules keep the six cheapest regressions from being written at
all: scheduling through ``schedule`` and dropping the ``Handle`` (use
``call_later``), formatting a per-operation ``SimEvent`` name, building a
``Timeout`` only to yield it (yield the delay), a function nested in a
message-path function (an in-flight message holds a record's bound method
or plain timer arguments, not a closure), an ``import`` statement in a
message-path function (a deferred import belongs at an entry point), and a
stage reported through the wrong door (``tracer.stage`` for a stage with
no counter is a Python call per message that does nothing unobserved;
``tracer.note`` for one with a counter would lose the count).
"""

import ast
import codecs
import functools
import gc
import json
import sys
from pathlib import Path

import pytest

import repro.api as api
import repro.apps.jacobi3d.charm4py_impl  # noqa: F401
import repro.apps.jacobi3d.mpi_impl  # noqa: F401
import repro.apps.shuffle.mpi_impl  # noqa: F401
import repro.obs.critical_path  # noqa: F401
import repro.obs.export  # noqa: F401
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.shuffle.driver import run_shuffle
from repro.config import KB, MachineConfig
from repro.obs import stages

codecs.lookup("ascii")

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Python calls per fired event, 2 nodes (12 GPUs), 1 warm-up + 1 timed
#: iteration: measured value (it repeats exactly, whatever the hash seed),
#: and the bound ~3 % above it.  Before the continuation engine these were
#: 30.72 (ampi) and 28.71 (charm4py); before the tuple agenda and the parked
#: wake, 22.66 and 20.77; while a match queue's Fenwick tree was an object
#: (its rank query one call deeper) and a lookup ran two helper methods,
#: 20.94 and 19.15; while a Jacobi3D face size was recomputed through the
#: ``block`` property on every call and a route memoised its hold per size
#: behind a method, 19.87 and 18.28; while unobserved observation made a
#: Python call per ``end``/``charge``/``under`` and per stage with no
#: counter, each cost-only kernel launch built and priced its ``Kernel``,
#: routes were keyed by hashed locations, ``sim`` was a property and a
#: one-entry match queue kept its Fenwick tree up to date, 19.61 and 18.05.
BUDGET = {"ampi": (13.50, 13.9), "charm4py": (12.81, 13.2)}

#: Of those, the calls made in ``repro/obs`` per event (the same runs): a
#: counter per counted stage.  While the inert doors were Python calls,
#: 2.74 (ampi) and 2.48 (charm4py).
OBS_BUDGET = {"ampi": (0.728, 0.75), "charm4py": (0.638, 0.66)}

#: The same for a pooled ``ampi`` shuffle (``rounds=2``, 256 KB chunks) by
#: node count.  With a hook per blocked transfer re-fired on every release
#: these were 25.36 and 30.90: cost per event grew with contention; with the
#: object Fenwick tree and the helper lookups, 21.75 and 21.56; before the
#: inert observation doors and the hop cuts that pinned ``BUDGET`` last,
#: 20.73 and 20.58.
SHUFFLE_BUDGET = {2: (15.00, 15.45), 4: (14.78, 15.2)}

#: 8 nodes, 1 warm-up + 3 timed iterations, trace + flight + telemetry.
#: Exported: 38 189 trace events; with one dict per event, a Python-keyed
#: ``heapq.merge`` and ``json.dumps`` this was 3.37, and with a stdlib
#: encoder call per non-int value (instead of cached templates) 0.89.
#: Recorded: 14 144 spans and 7 488 flight stages, and the observed run's
#: calls beyond the model's own (the unobserved run's calls outside
#: ``repro/obs``), 5.04 per span.  Measured as observed minus unobserved
#: calls, which rises when the unobserved run gets cheaper (1.91, then 4.23
#: once its observation doors cost no call, for the same observed run):
#: while a live flight recorder ran a handler per flight stage (instead of
#: appending it to the stage log) this was 9.41, and while each span was a
#: live object, each charged stage summed its layer's time and each traced
#: request fed the histograms (instead of appending rows the reads fold)
#: 8.00, and while telemetry kept live series (a probe closure, a ring
#: buffer and a link utilisation call per resource event) 5.33.  Analysed: ``critical_path``
#: per span; with a sort ``lambda``, a ``layer_of`` call per boundary and a
#: ``Segment`` per merge this was 4.85.
EXPORT_BUDGET = (0.0630, 0.0649)
RECORD_BUDGET = (5.04, 5.19)
ANALYSE_BUDGET = (0.326, 0.336)


OBS = str(SRC / "obs")


def _python_calls(run, in_obs: bool = False):
    """Python calls ``run()`` makes; with ``in_obs``, ``(calls, calls made
    in repro/obs)``."""
    calls = obs = 0

    def count(frame, event, _arg):
        nonlocal calls, obs
        if event == "call":
            calls += 1
            if frame.f_code.co_filename.startswith(OBS):
                obs += 1

    loaded = set(sys.modules)
    gc.collect()
    callbacks, gc.callbacks[:] = gc.callbacks[:], []
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.callbacks[:] = callbacks
    imported = sorted(set(sys.modules) - loaded)
    assert not imported, (
        f"a measured call imported {imported}: import them at the top of "
        f"this file, or the count includes the import machinery")
    return (calls, obs) if in_obs else calls


def _calls_per_event(sess, run) -> float:
    before = sess.sim.event_count
    calls = _python_calls(lambda: run(sess))
    return calls / (sess.sim.event_count - before)


@functools.lru_cache(maxsize=None)
def _jacobi_calls_per_event(model: str):
    """``(calls, calls in repro/obs)`` per event of a 2-node Jacobi3D."""
    cfg = MachineConfig.summit(nodes=2)
    sess = api.session(cfg).model(model).build()
    before = sess.sim.event_count
    calls, obs = _python_calls(lambda: run_jacobi(
        model, nodes=2, scaling="weak", iters=1, warmup=1, session=sess),
        in_obs=True)
    events = sess.sim.event_count - before
    return calls / events, obs / events


def _shuffle_calls_per_event(nodes: int) -> float:
    cfg = MachineConfig.summit(nodes=nodes).with_pool(True)
    sess = api.session(cfg).model("ampi").ranks(cfg.topology.total_gpus).build()
    return _calls_per_event(sess, lambda s: run_shuffle(
        "ampi", rounds=2, chunk=256 * KB, session=s))


@pytest.mark.parametrize("model", sorted(BUDGET))
def test_python_calls_per_event_stay_in_budget(model):
    measured, bound = BUDGET[model]
    per_event, _ = _jacobi_calls_per_event(model)
    print(f"{model}: {per_event:.2f} Python calls/event "
          f"(pinned {measured}, bound {bound})")
    assert per_event <= bound, (
        f"{model} Jacobi3D now costs {per_event:.2f} Python calls per event "
        f"(budget {bound}): something per-message grew on the hot path")


@pytest.mark.parametrize("model", sorted(OBS_BUDGET))
def test_unobserved_observation_calls_per_event_stay_in_budget(model):
    measured, bound = OBS_BUDGET[model]
    _, per_event = _jacobi_calls_per_event(model)
    print(f"{model}: {per_event:.3f} Python calls/event in repro/obs, "
          f"unobserved (pinned {measured}, bound {bound})")
    assert per_event <= bound, (
        f"with nothing switched on, {model} Jacobi3D now makes {per_event:.3f} "
        f"Python calls per event in repro/obs (budget {bound}): an inert "
        f"door (note, end, charge, under, NULL_SPAN) runs Python code again, "
        f"or a stage with no counter goes through tracer.stage")


def test_shuffle_calls_per_event_stay_in_budget_and_flat_with_scale():
    per_event = {nodes: _shuffle_calls_per_event(nodes)
                 for nodes in sorted(SHUFFLE_BUDGET)}
    for nodes, (measured, bound) in SHUFFLE_BUDGET.items():
        print(f"ampi shuffle, {nodes} nodes: {per_event[nodes]:.2f} Python "
              f"calls/event (pinned {measured}, bound {bound})")
        assert per_event[nodes] <= bound, (
            f"{nodes}-node shuffle now costs {per_event[nodes]:.2f} Python "
            f"calls per event (budget {bound})")
    assert per_event[4] <= 1.03 * per_event[2], (
        f"cost per event grows with contention again: {per_event[2]:.2f} at "
        f"2 nodes, {per_event[4]:.2f} at 4")


def _observed_jacobi_calls(observed: bool):
    builder = api.session(
        MachineConfig.summit(nodes=8)).model("ampi")
    if observed:
        builder = builder.trace().flight().telemetry()
    sess = builder.build()
    return sess, _python_calls(lambda: run_jacobi(
        "ampi", nodes=8, scaling="weak", iters=3, warmup=1, session=sess),
        in_obs=True)


def test_observation_calls_per_span_and_per_exported_event(tmp_path):
    # the model's own calls: the unobserved run's, less its (counter) calls
    # in repro/obs, so that a cheaper unobserved run does not read as
    # costlier recording
    _, (unobserved, unobserved_obs) = _observed_jacobi_calls(False)
    sess, (observed, _) = _observed_jacobi_calls(True)
    model = unobserved - unobserved_obs
    per_span = (observed - model) / len(sess.tracer.spans)
    measured, bound = RECORD_BUDGET
    print(f"recording: {per_span:.2f} Python calls/span "
          f"(pinned {measured}, bound {bound})")
    assert per_span <= bound, (
        f"observing a run now costs {per_span:.2f} Python calls per recorded "
        f"span (budget {bound})")

    path = tmp_path / "trace.json"
    calls = _python_calls(lambda: sess.export_chrome_trace(path))
    n_events = len(json.loads(path.read_bytes())["traceEvents"])
    per_exported = calls / n_events
    measured, bound = EXPORT_BUDGET
    print(f"export: {per_exported:.4f} Python calls/trace event "
          f"(pinned {measured}, bound {bound})")
    assert per_exported <= bound, (
        f"the Chrome-trace writer now costs {per_exported:.4f} Python calls "
        f"per exported event (budget {bound}): something per-event grew")

    calls = _python_calls(sess.critical_path)
    per_analysed = calls / len(sess.tracer.spans)
    measured, bound = ANALYSE_BUDGET
    print(f"critical path: {per_analysed:.3f} Python calls/span "
          f"(pinned {measured}, bound {bound})")
    assert per_analysed <= bound, (
        f"critical_path now costs {per_analysed:.3f} Python calls per span "
        f"(budget {bound}): something per-boundary or per-span grew")


def _parsed_sources():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text())


def test_no_site_schedules_and_drops_the_handle():
    """``schedule`` builds a ``Handle``; a statement that discards it wanted
    ``call_later``.  (``sim/`` is the engine: it defines both.)"""
    offenders = [
        f"{rel}:{node.lineno}"
        for rel, tree in _parsed_sources() if not rel.startswith("sim/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in ("schedule", "schedule_at")
    ]
    assert not offenders, f"use `call_later`: Handle discarded at {offenders}"


def test_no_event_is_named_with_an_f_string():
    """An event's name is read by a debug ``repr`` only; formatting one per
    operation is per-message cost.  Constant names, detail in ``__repr__``."""
    offenders = [
        f"{rel}:{node.lineno}"
        for rel, tree in _parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SimEvent"
        and any(isinstance(arg, ast.JoinedStr)
                for arg in [*node.args, *(kw.value for kw in node.keywords)])
    ]
    assert not offenders, f"constant SimEvent names only: f-string at {offenders}"


def test_no_timeout_is_built_only_to_be_yielded():
    """A process sleeps on a bare float: one timer, no event object.  A
    ``Timeout`` is for the caller that keeps, combines or returns the event.
    (``sim/`` defines both spellings.)"""
    offenders = [
        f"{rel}:{node.lineno}"
        for rel, tree in _parsed_sources() if not rel.startswith("sim/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id",
                    getattr(node.value.func, "attr", None)) == "Timeout"
    ]
    assert not offenders, f"yield the delay: `yield Timeout(...)` at {offenders}"


#: The modules a message passes through between a model's send and its
#: receive, and the collectives that drive those messages: a continuation
#: one of them hands on is held across events.
MESSAGE_PATH = (
    "core/machine_ucx.py", "core/device_buffer.py",
    "ucx/worker.py", "ucx/transport.py", "ucx/protocols/",
    "ampi/mpi.py", "ampi/matching.py", "openmpi/mpi.py",
    "charm4py/channels.py", "charm4py/runtime.py", "charm4py/futures.py",
    "hardware/gpu.py", "mpi.py",
    "collectives/engine.py", "collectives/algorithms.py",
    "collectives/hierarchy.py", "collectives/value.py",
)

#: Functions nested there that no message holds across an event: matching
#: predicates, called and dropped inside the call that makes them, and a
#: hook installed once when the runtime is built.
NOT_HELD = {
    "ucx/worker.py:UcpWorker.tag_recv_nb.<lambda>",
    "ucx/worker.py:UcpWorker.cancel.<lambda>",
    "ucx/worker.py:UcpWorker._process_in_order.<lambda>",
    "ampi/matching.py:MatchEngine.match_envelope.<lambda>",
    "charm4py/runtime.py:Charm4py.__init__._init_hook",
}


def _nested_functions(node, scope="", in_function=False):
    """``(qualname, line)`` of every ``def`` and ``lambda`` inside a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{scope}.{getattr(child, 'name', '<lambda>')}".lstrip(".")
            if in_function:
                yield name, child.lineno
            yield from _nested_functions(child, name, True)
        elif isinstance(child, ast.ClassDef):
            yield from _nested_functions(
                child, f"{scope}.{child.name}".lstrip("."), in_function)
        else:
            yield from _nested_functions(child, scope, in_function)


def test_no_message_holds_a_closure():
    """A closure costs a function object and a cell per captured name, made
    on every call (the cells on every path through it); held per in-flight
    message they were a third of a 64-node Jacobi3D's peak bytes.  State a
    message carries lives on its record (``DeviceRdmaOp``, ``PostedRecv``,
    ``UcxRequest``, ...) and the continuation is the record's bound method,
    or the state rides as ``call_later``/``then_args`` arguments."""
    sites = [
        (f"{rel}:{name}", line)
        for rel, tree in _parsed_sources() if rel.startswith(MESSAGE_PATH)
        for name, line in _nested_functions(tree)
    ]
    offenders = [f"{site} (line {line})" for site, line in sites
                 if site not in NOT_HELD]
    assert not offenders, (
        f"a message-path continuation is a closure at {offenders}: make it a "
        f"record's bound method or pass its state as call_later arguments")
    assert NOT_HELD <= {site for site, _ in sites}, "stale NOT_HELD entry"


def _function_imports(node, in_function=False):
    """Line of every ``import`` statement inside a function body, except
    under ``if TYPE_CHECKING:``."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.If) and isinstance(child.test, ast.Name)
                and child.test.id == "TYPE_CHECKING"):
            continue
        if in_function and isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child.lineno
        yield from _function_imports(child, in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_no_message_path_function_imports():
    """A session imports what its run executes when it is built; what only
    some runs need loads at the entry point that first needs it
    (``SessionBuilder.build``, an app driver, a ``Session`` analysis, the
    ``repro.collectives`` package).  An ``import`` statement in a function a
    message runs through would put that deferral on the per-message path."""
    offenders = [
        f"{rel}:{line}"
        for rel, tree in _parsed_sources() if rel.startswith(MESSAGE_PATH)
        for line in _function_imports(tree)
    ]
    assert not offenders, (
        f"import inside a message-path function at {offenders}: import at "
        f"module level, or defer it to the entry point that first needs it")


def test_each_stage_goes_through_its_door():
    """A stage whose row has no counter is reported with ``tracer.note``,
    which costs no Python call unobserved; one with a counter with
    ``tracer.stage`` (or ``scope``), which counts it whatever is on."""
    table = {name: st for name, st in vars(stages).items()
             if isinstance(st, stages.Stage)}
    wrong = []
    for rel, tree in _parsed_sources():
        if rel.startswith("obs/"):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("stage", "note", "scope") and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in table):
                counted = table[node.args[0].id].counter is not None
                if counted == (node.func.attr == "note"):
                    wrong.append(f"{rel}:{node.lineno} {node.func.attr}"
                                 f"({node.args[0].id})")
    assert not wrong, f"stage reported through the wrong door: {wrong}"
