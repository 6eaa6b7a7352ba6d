#!/usr/bin/env python3
"""A tour of the paper's future-work items, implemented and measurable.

The paper's §VI sketches four directions; this repository builds them all:

1. GPU-data collectives translated to point-to-point calls
   (``allreduce_device`` with on-GPU combine kernels);
2. pre-posted device receives (what user-provided tags would enable),
   quantified against the metadata-delayed design;
3. overdecomposition for communication/computation overlap in Jacobi3D;
4. what a GPUDirect-RDMA fabric would buy over Summit's pipelined staging.

Run:  python examples/future_work_tour.py
"""

import numpy as np

from repro.bench.figures import (
    ablation_early_post,
    ablation_gpudirect,
    ablation_overdecomposition,
)
import repro.api as api
from repro.config import MachineConfig, MB


def demo_device_allreduce():
    print("== 1. GPU-data allreduce over point-to-point ==")
    sess = api.session(MachineConfig.summit(nodes=2)).model("ampi").build()
    charm, ampi = sess.charm, sess.lib
    results = {}

    def program(mpi):
        buf = mpi.charm.cuda.malloc(mpi.gpu, 1024)
        buf.data.view(np.float64)[:] = float(mpi.rank)
        yield from mpi.allreduce_device(buf, 1024, "sum")
        results[mpi.rank] = float(buf.data.view(np.float64)[0])

    charm.run_until(ampi.launch(program), max_events=10_000_000)
    expect = sum(range(ampi.n_ranks))
    ok = all(v == expect for v in results.values())
    print(f"   {ampi.n_ranks} GPUs allreduce(sum): every rank holds "
          f"{expect} on device  [{'ok' if ok else 'WRONG'}]")
    print(f"   finished at t={charm.time * 1e6:.1f} us\n")


def demo_hierarchical_allreduce():
    print("== 1b. topology-aware algorithm selection at scale ==")
    # 64 ranks / 11 nodes / 1 MB: the selector decomposes the allreduce in
    # two levels — a binomial reduce to each node leader and a binomial
    # bcast back out over NVLink, the cheapest flat allreduce among the
    # leaders over IB — because the link model prices it below every flat
    # algorithm.  Force flat to see what that choice is worth.
    times = {}
    for label, knobs in (("auto (hierarchical)", {}),
                         ("best flat", {"collectives.hierarchical_enabled": False})):
        sess = (api.session(MachineConfig.summit(nodes=11))
                .model("ampi").ranks(64).trace()
                .set(knobs).build())

        def program(rank):
            buf = rank.charm.cuda.malloc(rank.gpu, 1 * MB)
            yield from rank.allreduce_device(buf, 1 * MB)

        sess.run_until(sess.launch(program), max_events=100_000_000)
        times[label] = sess.now
        summary = sess.collectives_summary()
        picked = [k.split(".")[-1] for k in summary["invocations"]
                  if k.startswith("allreduce.")]
        print(f"   {label:20}: {sess.now * 1e6:7.1f} us "
              f"(ran {picked[0]}; intra {summary['intra_time_us']:.0f} us, "
              f"inter {summary['inter_time_us']:.0f} us of phase time)")
    speedup = times["best flat"] / times["auto (hierarchical)"]
    print(f"   two-level decomposition is {speedup:.2f}x faster at "
          f"64 ranks x 1 MB\n")


def demo_early_post():
    print("== 2. pre-posted receives vs metadata-delayed posting ==")
    r = ablation_early_post(size=1 * MB, quiet=True)
    print(f"   1 MB device rendezvous, receive pre-posted : "
          f"{r['pre_posted_us']:8.2f} us")
    print(f"   ... posted after the metadata message      : "
          f"{r['metadata_delayed_us']:8.2f} us")
    print(f"   delayed-posting penalty                    : "
          f"{r['penalty_us']:8.2f} us\n")


def demo_overdecomposition():
    print("== 3. overdecomposition (blocks per PE) on Jacobi3D, 2 nodes ==")
    r = ablation_overdecomposition(blocks_per_pe=(1, 2, 4), nodes=2, quiet=True)
    base = r[1]
    for bpp, t in r.items():
        print(f"   {bpp} block(s)/PE: {t:7.3f} ms/iter "
              f"({t / base:4.2f}x of the no-overdecomposition run)")
    print()


def demo_gpudirect():
    print("== 4. pipelined host staging vs a GPUDirect-RDMA fabric ==")
    r = ablation_gpudirect(size=4 * MB, quiet=True)
    print(f"   4 MB inter-node device rendezvous, pipelined: "
          f"{r['pipelined_us']:8.2f} us")
    print(f"   ... with GPUDirect RDMA                     : "
          f"{r['gpudirect_us']:8.2f} us\n")


if __name__ == "__main__":
    demo_device_allreduce()
    demo_hierarchical_allreduce()
    demo_early_post()
    demo_overdecomposition()
    demo_gpudirect()
