"""Payload bytes exist once something touches them, and timing never
depends on them: a run whose programs write their device buffers matches
one whose programs do not, fingerprint for fingerprint, and the latter
touches no byte.  Such a run holds no array, so it must not load NumPy:
the import-path test runs the default configuration in a fresh
interpreter, and a source rule keeps module-level ``import numpy`` out of
the package.
"""

import ast
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

#: Packages that may import NumPy at module level: the offline analysis
#: and figure tooling, which no simulated run imports.
NUMPY_IMPORTERS = ("bench/",)

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


def test_virtual_run_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _DEFAULT_RUNS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
