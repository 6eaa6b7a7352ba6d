#!/usr/bin/env python3
"""Observability tour: span-tree tracing, metrics, and timeline export.

Builds a traced AMPI session through the :mod:`repro.api` facade, runs an
OSU-style device ping-pong, then shows the three outputs of the
observability subsystem:

1. the hierarchical span tree (model -> machine -> UCX protocol),
2. the metrics snapshot (counters, size/latency histograms, per-layer
   time — the input of the §IV-B1 overhead-anatomy decomposition),
3. the flight recorder: per-message transfer lifecycles and the
   delayed-posting cost of metadata-gated rendezvous transfers,
4. the critical-path layer-blame report,
5. a Chrome-trace JSON timeline, viewable at https://ui.perfetto.dev.

Run:  python examples/observability.py [timeline.json]
"""

import sys

import repro.api as api
from repro.apps.osu.runner import run_latency
from repro.config import MachineConfig


def show_tree(tracer, span, depth=0, max_depth=3):
    dur = f"{span.duration * 1e6:7.2f} us" if span.end_time is not None else "  (open)"
    print(f"  {'  ' * depth}{span.category}/{span.name:<18} {dur}")
    if depth < max_depth:
        for child in tracer.span_children(span):
            show_tree(tracer, child, depth + 1, max_depth)


def main():
    sess = (api.session(MachineConfig.summit(nodes=2)).model("ampi")
            .trace().flight().build())

    lat = run_latency("ampi", 4096, "inter", True, session=sess, iters=8, skip=2)
    print(f"AMPI inter-node 4 KiB device latency: {lat * 1e6:.2f} us\n")

    print("== span tree (first round trip) ==")
    for root in sess.tracer.span_roots()[:4]:
        show_tree(sess.tracer, root)

    snap = sess.metrics_snapshot()
    print("\n== metrics snapshot ==")
    n = snap["counters"]["converse.send_device"]
    print(f"device messages: {n}")
    print("per-message CPU time by layer:")
    for cat, t in sorted(snap["time_by_category"].items()):
        print(f"  {cat:>10}: {t / n * 1e6:6.2f} us")
    sizes = snap["histograms"]["ucx.send_size_bytes"]
    print(f"send sizes observed: {sizes['count']} "
          f"(mean {sizes['sum'] / sizes['count']:.0f} B)")

    print("\n== flight recorder: delayed-posting cost ==")
    agg = sess.flight_summary()
    for proto in ("rndv", "eager"):
        p = agg["by_protocol"][proto]
        print(f"  {proto:>5}: {p['n']:3d} transfers, delayed-posting "
              f"{p['delayed_posting_seconds'] * 1e6:6.2f} us total "
              f"(max {p['max_delayed_posting_seconds'] * 1e6:.2f} us), "
              f"{p['unexpected']} unexpected arrivals")
    print(f"  posting-order inversions: {agg['posting_inversions']}")

    # eager transfers complete without waiting for the receiver: an 8 B
    # intra-node run shows zero delayed-posting cost by construction
    eager_sess = api.session(cfg).model("ampi").build()
    run_latency("ampi", 8, "intra", True, session=eager_sess, iters=8, skip=2)
    eagg = eager_sess.flight_summary()
    print(f"  (8 B intra run: eager delayed-posting "
          f"{eagg['delayed_posting_seconds'] * 1e6:.2f} us — always zero)")

    print("\n== critical-path layer blame ==")
    print(sess.critical_path().format())

    out = sys.argv[1] if len(sys.argv) > 1 else "timeline.json"
    path = sess.export_chrome_trace(out)
    print(f"\ntimeline written to {path} — open it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
