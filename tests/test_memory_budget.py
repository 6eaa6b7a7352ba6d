"""Memory guards for a simulated GPU, with no clock involved.

What a simulated machine costs in memory is bytes per GPU, so the budget is
stated in those: under ``tracemalloc``, build an 8-node (48-GPU) session and
run a small Jacobi3D on it, and divide the bytes it holds by the number of
GPUs.  Three figures per model: the live bytes of the built session (what
every GPU costs before a message moves), the peak bytes during 1 warm-up + 1
timed iteration (what in-flight messages add) and the live bytes once the
run is over, the session still held (what a drained run keeps).  Like Python calls per event
in ``test_hot_path_budget.py``, the count is a property of the code, not of
the machine, so the bound sits ~3 % above today's value and fails the day an
idle container or a per-message ``__dict__`` creeps back in.  Each model is
measured in a fresh interpreter, so the figures are the same whatever ran
before in the test process.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.shuffle.driver import run_shuffle
from repro.config import MachineConfig

ROOT = Path(__file__).resolve().parent.parent

NODES = 8

#: KB per GPU: ``(measured, bound)`` for the built session, for the peak of
#: the Jacobi3D run and for what the session holds once it is over.  While
#: match buckets were deques kept until the next compaction, and every link,
#: GPU stream, PE queue and channel endpoint owned empty deques, these were
#: 12.8 / 57.5 KB (ampi) and 11.3 / 45.9 KB (charm4py).  While each
#: in-flight message held its continuations as closures (a function object
#: and a cell per captured name), the peaks were 44.86 (ampi), 28.54
#: (charm4py) and 31.07 KB (openmpi).  While every match queue, link and
#: resource built its containers up front, each in-flight device record held
#: two bound methods of its owner, each event a callback list, and each
#: Jacobi3D block host staging buffers it never used, these were 7.85 /
#: 33.53 (ampi), 6.33 / 26.89 (charm4py) and 5.08 / 26.12 KB (openmpi).
#: While a drained match queue kept its tombstones, a route was a tuple
#: subclass with a dict and a per-size hold memo, each request held a bound
#: method of its record, each Jacobi3D message its own size and tag ints and
#: each block dicts of buffer pairs, these were 5.89 / 27.44 / 18.97
#: (ampi), 5.08 / 23.40 / 20.10 (charm4py) and 3.93 / 21.79 / 12.75 KB
#: (openmpi).  While each match queue and bulk link transfer carried
#: telemetry slots, 5.76 / 21.91 / 13.90 (ampi), 4.96 / 19.95 / 16.27
#: (charm4py) and 3.81 / 17.22 / 9.45 KB (openmpi).
BUDGET = {
    "ampi": {"built": (5.71, 5.93), "peak": (21.73, 22.55),
             "held": (13.86, 14.35)},
    "charm4py": {"built": (4.93, 5.11), "peak": (19.89, 20.65),
                 "held": (16.24, 16.75)},
    "openmpi": {"built": (3.78, 3.93), "peak": (17.06, 17.8),
                "held": (9.42, 9.75)},
}


def _kb_per_gpu(model: str):
    cfg = MachineConfig.summit(nodes=NODES)
    # a first session of this shape leaves what every later one shares:
    # build and drop one, so that its first-use costs are not counted
    api.session(cfg).model(model).build()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sess = api.session(cfg).model(model).build()
        built = tracemalloc.get_traced_memory()[0] - base
        run_jacobi(model, nodes=NODES, scaling="weak", iters=1, warmup=1,
                   session=sess)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    gpus = cfg.topology.total_gpus
    return {"built": built / gpus / 1024, "peak": peak / gpus / 1024,
            "held": held / gpus / 1024}


#: ``_kb_per_gpu`` after a small run (first-use costs -- imports,
#: module-level caches -- are not per GPU), in a fresh interpreter: what
#: earlier tests left in a process (the layout of a class's shared instance
#: dicts, say) moves the figures by up to 0.02 KB
_MEASURE = """
import json, sys
from repro.apps.jacobi3d.driver import run_jacobi
from tests.test_memory_budget import _kb_per_gpu
run_jacobi(sys.argv[1], nodes=2, scaling="weak", iters=1, warmup=1)
print(json.dumps(_kb_per_gpu(sys.argv[1])))
"""


@pytest.mark.parametrize("model", sorted(BUDGET))
def test_bytes_per_gpu_stay_in_budget(model):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(ROOT / "src"), str(ROOT))))
    proc = subprocess.run([sys.executable, "-c", _MEASURE, model], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    measured = json.loads(proc.stdout)
    for what, (pinned, bound) in BUDGET[model].items():
        print(f"{model} {what}: {measured[what]:.2f} KB/GPU "
              f"(pinned {pinned}, bound {bound})")
        assert measured[what] <= bound, (
            f"{model}: the {what} session now holds {measured[what]:.2f} KB "
            f"per GPU (budget {bound}): something per GPU or per message grew")


def _queue_slots(q) -> int:
    """Container slots one match queue holds: its slot, key, wildcard and
    Fenwick lists, and its buckets with their slot lists."""
    return (len(q._slots) + len(q._keys) + len(q._wild) + len(q._fen or ())
            + sum(1 + len(b) for b in q._buckets.values()))


def test_match_queues_and_route_memo_do_not_grow_with_run_length():
    """A pooled AMPI shuffle of 2 and 4 rounds: what every match queue holds
    once the run is over, and the route memo, are the same at both lengths
    (a drained queue is back on its shared stand-ins; routes are per
    endpoint pair), while the messages double.  While a drained queue kept
    its tombstones until the next compaction, the queues held 1 611 slots
    after 2 rounds and 3 195 after 4."""
    held = []
    for r in (2, 4):
        cfg = MachineConfig.summit(nodes=2).with_pool(True)
        sess = api.session(cfg).model("ampi").build()
        run_shuffle("ampi", rounds=r, chunk=64 * 1024, session=sess)
        queues = [q for w in sess.charm.layer.workers
                  for q in (w.posted, w.unexpected)]
        queues += [q for rank in sess.lib.ranks
                   for q in (rank.matching.posted, rank.matching.unexpected)]
        held.append((sum(_queue_slots(q) for q in queues),
                     len(sess.machine._route_cache), sess.counters["ucx.send"]))
    (slots, routes, sends), (slots2, routes2, sends2) = held
    assert sends2 == 2 * sends > 0, held
    assert (slots2, routes2) == (slots, routes), held
    assert routes > 0
