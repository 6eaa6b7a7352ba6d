"""Virtual-payload mode: no data movement, bit-identical timing.

``MachineConfig.virtual_payload`` skips NumPy payload materialisation for
every buffer whose caller did not explicitly ask for real bytes.  Buffer
copies become size-only no-ops, but every modeled delay is computed from
sizes and config alone — so full simulation fingerprints must match the
materialized runs bit for bit.  The paper-scale scaling sweeps rely on
this equivalence to drop the dead-weight memcpys.

Such a run holds no array, so it must not load NumPy either: the import-path
test runs one in a fresh interpreter, and a source rule keeps module-level
``import numpy`` out of the package.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu.runner import run_latency
from repro.config import MachineConfig
from repro.hardware.topology import Machine


def _jacobi_fingerprint(cfg):
    sess = api.session(cfg).model("charm").flight().build()
    r = run_jacobi("charm", nodes=cfg.topology.nodes, scaling="weak",
                   iters=2, warmup=1, session=sess)
    fp = sess.baseline_fingerprint()
    fp["iter_time"] = r.iter_time
    fp["comm_time"] = r.comm_time
    return fp


def test_jacobi_fingerprint_identical_under_virtual_payload():
    cfg = MachineConfig.summit(nodes=2)
    materialized = _jacobi_fingerprint(cfg)
    virtual = _jacobi_fingerprint(cfg.with_virtual_payload())
    assert virtual == materialized  # bit-equal, not approx


@pytest.mark.parametrize("model", ["charm", "openmpi"])
@pytest.mark.parametrize("placement,size", [("intra", 8), ("inter", 256 * 1024)])
def test_osu_latency_identical_under_virtual_payload(model, placement, size):
    # small messages materialize by default, so this exercises the case
    # where virtual mode actually changes the allocation decision
    def fingerprint(cfg):
        sess = api.session(cfg).model(model).flight().build()
        lat = run_latency(model, size, placement, True, session=sess,
                          iters=6, skip=2)
        fp = sess.baseline_fingerprint()
        fp["latency"] = lat
        return fp

    cfg = MachineConfig.summit(nodes=2)
    assert fingerprint(cfg.with_virtual_payload()) == fingerprint(cfg)


def test_virtual_payload_skips_materialisation():
    m = Machine(MachineConfig.summit(nodes=1).with_virtual_payload())
    assert m.alloc_host(0, 64).data is None
    assert m.alloc_device(0, 64).data is None
    # an explicit request for real bytes still wins (functional tests)
    buf = m.alloc_host(0, 64, materialize=True)
    assert isinstance(buf.data, np.ndarray) and buf.data.nbytes == 64


def test_virtual_payload_defaults_off():
    cfg = MachineConfig.summit(nodes=1)
    assert cfg.virtual_payload is False
    m = Machine(cfg)
    assert m.alloc_host(0, 64).data is not None


SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages that may import NumPy at module level: the offline analysis
#: and figure tooling, which no simulated run imports.
NUMPY_IMPORTERS = ("bench/",)

_VIRTUAL_PINGPONG = """
import sys
import repro.api as api
from repro.apps.osu.runner import run_latency
from repro.config import MachineConfig

cfg = MachineConfig.summit(nodes=2).with_virtual_payload()
for model in ("charm", "ampi", "openmpi", "charm4py"):
    sess = api.session(cfg).model(model).build()
    assert run_latency(model, 8, "inter", True, session=sess, iters=4, skip=1) > 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_virtual_run_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _VIRTUAL_PINGPONG], env=env,
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
