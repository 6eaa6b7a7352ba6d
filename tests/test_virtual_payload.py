"""Payload bytes exist once something touches them, and timing never
depends on them: a run whose programs write their device buffers matches
one whose programs do not, fingerprint for fingerprint, and the latter
touches no byte.  Such a run holds no array, so it must not load NumPy:
the import-path test runs the default configuration in a fresh
interpreter, and a source rule keeps module-level ``import numpy`` out of
the package.

The same fresh-interpreter check pins the rest of a session's import set:
a session imports what its own run executes, not the other models, the
collectives engine, the analyses or the fault injector.  Each of those
loads with the first call that needs it, and gives today's results.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu.runner import run_latency
from repro.config import MachineConfig
from repro.hardware.cuda import CudaRuntime


def _fingerprint(monkeypatch, model, run, write):
    """``run(sess)``'s fingerprint, every device buffer written or untouched."""
    bufs, malloc = [], CudaRuntime.malloc

    def tracked(self, gpu, size):
        bufs.append(malloc(self, gpu, size))
        if write:
            bufs[-1].fill(0xA5)
        return bufs[-1]

    monkeypatch.setattr(CudaRuntime, "malloc", tracked)
    sess = api.session(MachineConfig.summit(nodes=2)).model(model).flight().build()
    result = run(sess)
    monkeypatch.undo()
    assert bufs and all(buf.is_virtual != write for buf in bufs)
    return dict(sess.baseline_fingerprint(), result=result)


def test_jacobi_fingerprint_identical_under_virtual_payload(monkeypatch):
    def run(sess):  # a small domain: the written run fills every buffer
        r = run_jacobi("charm", nodes=2, domain=(96, 96, 96), iters=2,
                       warmup=1, session=sess)
        return r.iter_time, r.comm_time

    assert (_fingerprint(monkeypatch, "charm", run, True)
            == _fingerprint(monkeypatch, "charm", run, False))  # bit-equal


@pytest.mark.parametrize("model", ["charm", "openmpi"])
@pytest.mark.parametrize("placement,size", [("intra", 8), ("inter", 256 * 1024)])
def test_osu_latency_identical_under_virtual_payload(monkeypatch, model,
                                                     placement, size):
    # a ping-pong whose sender writes its buffer against one that does not
    def run(sess):
        return run_latency(model, size, placement, True, session=sess,
                           iters=6, skip=2)

    assert (_fingerprint(monkeypatch, model, run, True)
            == _fingerprint(monkeypatch, model, run, False))


SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages that may import NumPy at module level: none (the offline
#: analysis lost its one importer with the alpha-beta fit).
NUMPY_IMPORTERS = ()

_DEFAULT_RUNS = """
import sys
import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu.runner import run_latency
from repro.config import MachineConfig

cfg = MachineConfig.summit(nodes=2)
for model in ("charm", "ampi", "openmpi", "charm4py"):
    sess = api.session(cfg).model(model).build()
    assert run_latency(model, 8, "inter", True, session=sess, iters=4, skip=1) > 0
assert run_jacobi("ampi", nodes=2, iters=2, warmup=1).iter_time > 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def _fresh(script: str, *args: str) -> str:
    """``script``'s standard output in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_virtual_run_never_imports_numpy():
    assert _fresh(_DEFAULT_RUNS).strip() == "[]"


#: model -> the model packages a session of it runs on
RUNS_ON = {
    "charm": ("repro.charm",),
    "ampi": ("repro.ampi", "repro.charm"),
    "openmpi": ("repro.openmpi",),
    "charm4py": ("repro.charm4py", "repro.charm"),
}
#: model -> its Jacobi3D program
JACOBI_IMPL = {"charm": "charm_impl", "ampi": "mpi_impl",
               "openmpi": "mpi_impl", "charm4py": "charm4py_impl"}
#: Modules no run without a collective, an analysis or a fault plan loads.
DEFERRED = (
    *(f"repro.collectives.{name}" for name in
      ("engine", "algorithms", "hierarchy", "selection", "value")),
    *(f"repro.obs.{name}" for name in
      ("baseline", "cli", "congestion", "critical_path", "export", "flight")),
    "repro.faults.plan", "repro.faults.injector", "repro.cost",
)
#: model -> the packages its OSU latency point must not load, beyond those
#: of :data:`DEFERRED`
LATENCY_FORBIDS = {"openmpi": ("repro.charm", "repro.collectives"),
                   "ampi": ("repro.charm4py",)}
#: The one model whose run loads ``repro.collectives`` (its ranks import
#: ``ReduceOp``); the others load nothing of the package until a reduction
#: or collective runs.
COLLECTIVE_MODEL = "ampi"

_BUILD_AND_RUN = """
import json, sys
import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.config import MachineConfig

model, latency_point = sys.argv[1], sys.argv[2] == "latency"
sess = api.session(MachineConfig.summit(nodes=2)).model(model).build()
built = sorted(sys.modules)
assert run_jacobi(model, nodes=2, iters=1, warmup=1, session=sess).iter_time > 0
ran, latency = sorted(sys.modules), None
if latency_point:  # an OSU run loads its own model's programs only
    from repro.apps.osu.runner import run_latency

    sess = api.session(MachineConfig.summit(nodes=2)).model(model).build()
    assert run_latency(model, 8, "inter", True, session=sess) > 0
    latency = sorted(sys.modules)
print(json.dumps([built, ran, latency]))
"""


@pytest.mark.parametrize("model", sorted(RUNS_ON))
def test_a_session_imports_only_what_it_runs(model):
    """Built with no plan and observation off, then one Jacobi3D run (and
    for AMPI and OpenMPI an OSU latency point)."""
    point = "latency" if model in LATENCY_FORBIDS else ""
    built, ran, latency = json.loads(_fresh(_BUILD_AND_RUN, model, point))
    own = f"repro.apps.jacobi3d.{JACOBI_IMPL[model]}"
    unused = {*(p for pkgs in RUNS_ON.values() for p in pkgs), *DEFERRED,
              *(f"repro.apps.jacobi3d.{impl}" for impl in JACOBI_IMPL.values())}
    if model != COLLECTIVE_MODEL:
        unused.add("repro.collectives")
    unused -= {*RUNS_ON[model], own}
    for stage, modules in (("building", built), ("running", ran)):
        loaded = sorted(m for m in modules for u in unused
                        if m == u or m.startswith(u + "."))
        assert not loaded, f"a {model} session imported {loaded} {stage}"
    assert {*RUNS_ON[model], own} <= set(ran)
    if model in LATENCY_FORBIDS:
        forbidden = (*LATENCY_FORBIDS[model], *DEFERRED)
        loaded = [m for m in latency if m.startswith(forbidden)]
        assert not loaded, f"a {model} latency point imported {loaded}"


_FIRST_USE = """
import json, sys
import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.config import MachineConfig

cfg = MachineConfig.summit(nodes=2)
out = {}

def loaded(prefix):
    return sorted(m for m in sys.modules if m.startswith(prefix))

def program(mpi, results):
    buf = mpi.alloc_device(1 << 16)
    yield from mpi.allreduce_device(buf, 1 << 16)
    results[mpi.rank] = yield from mpi.allreduce(mpi.rank)

sess = api.session(cfg).model("ampi").build()
out["collectives"] = [loaded("repro.collectives.")]
results = {}
sess.run_until(sess.launch(program, results))
out["collectives"].append(loaded("repro.collectives."))
out["collective"] = [sess.now, sorted(set(results.values()))]
from repro.collectives import available_algorithms
out["algorithms"] = available_algorithms()

sess = api.session(cfg).model("ampi").trace().build()
run_jacobi("ampi", nodes=2, iters=1, warmup=1, session=sess)
out["obs"] = [loaded("repro.obs.")]
out["blame"] = sorted(sess.critical_path().blame.items())
out["obs"].append(loaded("repro.obs."))

out["faults"] = [loaded("repro.faults")]
from repro.faults import FaultPlan
plan = FaultPlan.lossy(drop_p=0.05, seed=3)
sess = api.session(cfg).model("ampi").faults(plan).build()
run_jacobi("ampi", nodes=2, iters=1, warmup=1, session=sess)
out["faults"].append(loaded("repro.faults"))
out["lossy"] = [sess.now, sess.counters["fault.drop"],
                sess.counters["fault.retransmit"]]
print(json.dumps(out))
"""

_RUNTIME = ["repro.obs.metrics", "repro.obs.stages", "repro.obs.timeline",
            "repro.obs.tracing"]


def test_deferred_modules_load_on_first_use_with_todays_results():
    """One collective call, one ``critical_path()`` and one ``FaultPlan``
    each load their modules; the values are those of the eager imports."""
    out = json.loads(_fresh(_FIRST_USE))
    assert out["collectives"] == [
        ["repro.collectives.ops"],
        ["repro.collectives.algorithms", "repro.collectives.engine",
         "repro.collectives.hierarchy", "repro.collectives.ops",
         "repro.collectives.selection", "repro.collectives.value"]]
    assert out["collective"] == [0.0005326397375298219, [66]]
    assert out["algorithms"] == ["binomial", "hierarchical", "recdbl"]
    assert out["obs"] == [_RUNTIME, sorted(_RUNTIME + ["repro.obs.critical_path"])]
    assert out["blame"] == [
        ["host_metadata", 7.454623592599528e-06], ["link", 0.0037161991069047003],
        ["machine", 1.1532265607057314e-05], ["model", 3.7063671875006816e-05],
        ["ucx_protocol", 0.00016132392947836472],
        ["uninstrumented", 0.010109489796807938]]
    assert out["faults"] == [[], ["repro.faults", "repro.faults.injector",
                                  "repro.faults.plan"]]
    assert out["lossy"] == [0.02547911612864067, 16, 16]


def _module_level_imports(tree):
    """Import statements that run when the module is imported: everything
    outside function bodies and ``if TYPE_CHECKING:`` blocks."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
              and node.test.id == "TYPE_CHECKING"):
            todo.extend(node.orelse)
        else:
            todo.extend(ast.iter_child_nodes(node))


def _numpy_importers():
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        for node in _module_level_imports(ast.parse(path.read_text())):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            if any(name.split(".")[0] == "numpy" for name in names):
                found.add(f"{rel}:{node.lineno}")
    return found


def test_numpy_is_imported_where_arrays_are_built():
    found = _numpy_importers()
    offenders = {site for site in found if not site.startswith(NUMPY_IMPORTERS)}
    assert not offenders, (
        "module-level numpy import on the simulation path (import it inside "
        "the function that builds the array, or test with "
        f"repro.hardware.memory.is_ndarray): {sorted(offenders)}")
    # the allow-list stays honest
    assert {site.split("/")[0] + "/" for site in found} == set(NUMPY_IMPORTERS)
