"""Memory guards for a simulated GPU, with no clock involved.

What a simulated machine costs in memory is bytes per GPU, so the budget is
stated in those: under ``tracemalloc``, build an 8-node (48-GPU) session and
run a small Jacobi3D on it, and divide the bytes it holds by the number of
GPUs.  Two figures per model: the live bytes of the built session (what every
GPU costs before a message moves) and the peak bytes during 1 warm-up + 1
timed iteration (what in-flight messages add).  Like Python calls per event
in ``test_hot_path_budget.py``, the count is a property of the code, not of
the machine, so the bound sits ~3 % above today's value and fails the day an
idle container or a per-message ``__dict__`` creeps back in.
"""

import gc
import tracemalloc

import pytest

import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.config import MachineConfig

NODES = 8

#: KB per GPU: ``(measured, bound)`` for the built session and for the peak
#: of the Jacobi3D run.  While match buckets were deques kept until the next
#: compaction, and every link, GPU stream, PE queue and channel endpoint
#: owned empty deques, these were 12.8 / 57.5 KB (ampi) and 11.3 / 45.9 KB
#: (charm4py).  While each in-flight message held its continuations as
#: closures (a function object and a cell per captured name), the peaks were
#: 44.86 (ampi), 28.54 (charm4py) and 31.07 KB (openmpi).  While every match
#: queue, link and resource built its containers up front, each in-flight
#: device record held two bound methods of its owner, each event a callback
#: list, and each Jacobi3D block host staging buffers it never used, these
#: were 7.85 / 33.53 (ampi), 6.33 / 26.89 (charm4py) and 5.08 / 26.12 KB
#: (openmpi).
BUDGET = {
    "ampi": {"built": (5.89, 6.07), "peak": (27.44, 28.3)},
    "charm4py": {"built": (5.08, 5.23), "peak": (23.40, 24.1)},
    "openmpi": {"built": (3.93, 4.05), "peak": (21.79, 22.45)},
}


def _kb_per_gpu(model: str):
    cfg = MachineConfig.summit(nodes=NODES)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sess = api.session(cfg).model(model).build()
        built = tracemalloc.get_traced_memory()[0] - base
        run_jacobi(model, nodes=NODES, scaling="weak", iters=1, warmup=1,
                   session=sess)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    gpus = cfg.topology.total_gpus
    return {"built": built / gpus / 1024, "peak": peak / gpus / 1024}


@pytest.mark.parametrize("model", sorted(BUDGET))
def test_bytes_per_gpu_stay_in_budget(model):
    # first-use costs (imports, module-level caches) are not per GPU
    run_jacobi(model, nodes=2, scaling="weak", iters=1, warmup=1)
    measured = _kb_per_gpu(model)
    for what, (pinned, bound) in BUDGET[model].items():
        print(f"{model} {what}: {measured[what]:.2f} KB/GPU "
              f"(pinned {pinned}, bound {bound})")
        assert measured[what] <= bound, (
            f"{model}: the {what} session now holds {measured[what]:.2f} KB "
            f"per GPU (budget {bound}): something per GPU or per message grew")
