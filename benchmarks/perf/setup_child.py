"""Fresh-interpreter set-up child: ``setup_child.py <workload>|api``.

With a workload name it imports that workload's modules and builds its
largest session; the parent times it from spawn to exit (``setup_s``).  With
``api`` it prints the split behind that number as one JSON object: importing
the facade and the four model packages, then building a 2-node and a 64-node
session.  The parent puts ``src`` and the repo root on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    what = sys.argv[1]
    if what != "api":
        from benchmarks.perf.workloads import WORKLOADS

        WORKLOADS[what](0).setup()
        return

    start = time.perf_counter()
    import repro.ampi  # noqa: F401  (the facade defers these to first build)
    import repro.api as api
    import repro.charm  # noqa: F401
    import repro.charm4py  # noqa: F401
    import repro.openmpi  # noqa: F401
    from repro.config import MachineConfig

    split = {"api.import_s": time.perf_counter() - start}
    for nodes in (2, 64):
        start = time.perf_counter()
        api.session(MachineConfig.summit(nodes=nodes)).model("ampi").build()
        split[f"api.build_ms.n{nodes}"] = (time.perf_counter() - start) * 1e3
    print(json.dumps(split))


if __name__ == "__main__":
    main()
