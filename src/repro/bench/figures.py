"""One runner per table/figure of the paper's evaluation (§IV).

Each ``figN`` function runs the corresponding experiment on the simulated
Summit, prints the same rows/series the paper plots, and returns the series
for programmatic use (the pytest benchmarks and EXPERIMENTS.md generation
call these).  ``table1`` derives the improvement ranges of Table I from the
four micro-benchmark figures.  The ``ablation_*`` functions cover the
design-choice studies listed in DESIGN.md §6.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu.runner import OSU_SIZES, run_bandwidth_sweep, run_latency_sweep
from repro.bench.reporting import Series, improvement_range, print_series, print_table
from repro.config import KB, MachineConfig, MB

#: default node ladder for the Jacobi scaling figures
WEAK_NODES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
STRONG_NODES = (8, 16, 32, 64, 128, 256)

#: a reduced ladder for quick runs (still spans eager->rendezvous->peak)
QUICK_SIZES = [1, 64, 1 * KB, 4 * KB, 16 * KB, 128 * KB, 1 * MB, 4 * MB]


def _osu_fig(
    benchmark: str,
    placement: str,
    models: Sequence[str],
    sizes: Sequence[int],
    config: Optional[MachineConfig],
) -> Dict[str, Series]:
    out: Dict[str, Series] = {}
    for model in models:
        for aware, suffix in ((False, "H"), (True, "D")):
            label = f"{model}-{suffix}"
            s = Series(label)
            if benchmark == "latency":
                sweep = run_latency_sweep(model, placement, aware, sizes, config)
                for size, v in sweep.items():
                    s.add(size, v * 1e6)  # us
            else:
                sweep = run_bandwidth_sweep(model, placement, aware, sizes, config)
                for size, v in sweep.items():
                    s.add(size, v / 1e6)  # MB/s
            out[label] = s
    return out


def fig10(sizes: Sequence[int] = OSU_SIZES, config: Optional[MachineConfig] = None,
          quiet: bool = False) -> Dict[str, Series]:
    """Fig. 10: intra-node latency, host-staging vs GPU-aware (us)."""
    series = _osu_fig("latency", "intra",
                      ["charm", "ampi", "openmpi", "charm4py"], sizes, config)
    if not quiet:
        print_series("Fig. 10: intra-node one-way latency (us)", list(series.values()))
    return series


def fig11(sizes: Sequence[int] = OSU_SIZES, config: Optional[MachineConfig] = None,
          quiet: bool = False) -> Dict[str, Series]:
    """Fig. 11: inter-node latency (us)."""
    series = _osu_fig("latency", "inter",
                      ["charm", "ampi", "openmpi", "charm4py"], sizes, config)
    if not quiet:
        print_series("Fig. 11: inter-node one-way latency (us)", list(series.values()))
    return series


def fig12(sizes: Sequence[int] = OSU_SIZES, config: Optional[MachineConfig] = None,
          quiet: bool = False) -> Dict[str, Series]:
    """Fig. 12: intra-node bandwidth (MB/s)."""
    series = _osu_fig("bandwidth", "intra",
                      ["charm", "ampi", "openmpi", "charm4py"], sizes, config)
    if not quiet:
        print_series("Fig. 12: intra-node bandwidth (MB/s)", list(series.values()))
    return series


def fig13(sizes: Sequence[int] = OSU_SIZES, config: Optional[MachineConfig] = None,
          quiet: bool = False) -> Dict[str, Series]:
    """Fig. 13: inter-node bandwidth (MB/s)."""
    series = _osu_fig("bandwidth", "inter",
                      ["charm", "ampi", "openmpi", "charm4py"], sizes, config)
    if not quiet:
        print_series("Fig. 13: inter-node bandwidth (MB/s)", list(series.values()))
    return series


#: message sizes the eager (GDRCopy) protocol serves with default thresholds
EAGER_SIZES = [s for s in OSU_SIZES if s < 4 * KB]


def table1(sizes: Sequence[int] = OSU_SIZES, config: Optional[MachineConfig] = None,
           quiet: bool = False) -> Dict[str, Dict[str, tuple]]:
    """Table I: improvement in latency and bandwidth with GPU-awareness.

    Rows: latency range / latency eager / bandwidth range, for the three
    Charm++-family models, intra- and inter-node.  Ratios are H/D for
    latency and D/H for bandwidth, exactly as the paper derives them from
    Figs. 10-13.
    """
    models = ["charm", "ampi", "charm4py"]
    lat_intra = _osu_fig("latency", "intra", models, sizes, config)
    lat_inter = _osu_fig("latency", "inter", models, sizes, config)
    bw_intra = _osu_fig("bandwidth", "intra", models, sizes, config)
    bw_inter = _osu_fig("bandwidth", "inter", models, sizes, config)

    eager = [s for s in sizes if s < 4 * KB]
    result: Dict[str, Dict[str, tuple]] = {}
    for model in models:
        r: Dict[str, tuple] = {}
        r["lat_intra"] = improvement_range(lat_intra[f"{model}-H"], lat_intra[f"{model}-D"])
        r["lat_inter"] = improvement_range(lat_inter[f"{model}-H"], lat_inter[f"{model}-D"])
        # eager row: the small-message (GDRCopy-eager) speedup
        eh = Series("eh", [(x, lat_intra[f"{model}-H"].at(x)) for x in eager])
        ed = Series("ed", [(x, lat_intra[f"{model}-D"].at(x)) for x in eager])
        r["eager_intra"] = improvement_range(eh, ed)
        eh = Series("eh", [(x, lat_inter[f"{model}-H"].at(x)) for x in eager])
        ed = Series("ed", [(x, lat_inter[f"{model}-D"].at(x)) for x in eager])
        r["eager_inter"] = improvement_range(eh, ed)
        # bandwidth rows: D/H (bigger is better)
        r["bw_intra"] = improvement_range(bw_intra[f"{model}-D"], bw_intra[f"{model}-H"])
        r["bw_inter"] = improvement_range(bw_inter[f"{model}-D"], bw_inter[f"{model}-H"])
        result[model] = r

    if not quiet:
        rows = {}
        for model in models:
            r = result[model]
            rows[model] = [
                f"{r['lat_intra'][0]:.1f}x-{r['lat_intra'][1]:.1f}x",
                f"{max(r['eager_intra']):.1f}x",
                f"{r['bw_intra'][0]:.1f}x-{r['bw_intra'][1]:.1f}x",
                f"{r['lat_inter'][0]:.1f}x-{r['lat_inter'][1]:.1f}x",
                f"{max(r['eager_inter']):.1f}x",
                f"{r['bw_inter'][0]:.1f}x-{r['bw_inter'][1]:.1f}x",
            ]
        print_table(
            "Table I: improvement with GPU-aware communication",
            rows,
            ["lat intra", "eager intra", "bw intra",
             "lat inter", "eager inter", "bw inter"],
        )
    return result


# ---------------------------------------------------------------------------
# Jacobi3D scaling figures
# ---------------------------------------------------------------------------

def _jacobi_fig(models: Sequence[str], scaling: str, nodes: Sequence[int],
                iters: int, quiet: bool, title: str) -> Dict[str, Series]:
    series: Dict[str, Series] = {}
    for model in models:
        for aware, suffix in ((False, "H"), (True, "D")):
            label = f"{model}-{suffix}"
            overall = Series(f"{label} overall")
            comm = Series(f"{label} comm")
            for n in nodes:
                r = run_jacobi(model, nodes=n, scaling=scaling, gpu_aware=aware,
                               iters=iters, warmup=1)
                overall.add(n, r.iter_time * 1e3)
                comm.add(n, r.comm_time * 1e3)
            series[f"{label}.overall"] = overall
            series[f"{label}.comm"] = comm
    if not quiet:
        print_series(f"{title}: overall time per iteration (ms)",
                     [s for k, s in series.items() if k.endswith("overall")],
                     x_name="nodes", x_fmt=lambda x: str(int(x)))
        print_series(f"{title}: communication time per iteration (ms)",
                     [s for k, s in series.items() if k.endswith("comm")],
                     x_name="nodes", x_fmt=lambda x: str(int(x)))
    return series


def fig14(nodes: Sequence[int] = WEAK_NODES, strong_nodes: Sequence[int] = STRONG_NODES,
          iters: int = 3, quiet: bool = False) -> Dict[str, Dict[str, Series]]:
    """Fig. 14: Charm++ Jacobi3D weak + strong scaling."""
    return {
        "weak": _jacobi_fig(["charm"], "weak", nodes, iters, quiet,
                            "Fig. 14ab: Charm++ Jacobi3D weak scaling"),
        "strong": _jacobi_fig(["charm"], "strong", strong_nodes, iters, quiet,
                              "Fig. 14cd: Charm++ Jacobi3D strong scaling"),
    }


def fig15(nodes: Sequence[int] = WEAK_NODES, strong_nodes: Sequence[int] = STRONG_NODES,
          iters: int = 3, quiet: bool = False) -> Dict[str, Dict[str, Series]]:
    """Fig. 15: AMPI (+OpenMPI reference) Jacobi3D weak + strong scaling."""
    return {
        "weak": _jacobi_fig(["ampi", "openmpi"], "weak", nodes, iters, quiet,
                            "Fig. 15ab: AMPI/OpenMPI Jacobi3D weak scaling"),
        "strong": _jacobi_fig(["ampi", "openmpi"], "strong", strong_nodes, iters, quiet,
                              "Fig. 15cd: AMPI/OpenMPI Jacobi3D strong scaling"),
    }


def fig16(nodes: Sequence[int] = WEAK_NODES, strong_nodes: Sequence[int] = STRONG_NODES,
          iters: int = 3, quiet: bool = False) -> Dict[str, Dict[str, Series]]:
    """Fig. 16: Charm4py Jacobi3D weak + strong scaling."""
    return {
        "weak": _jacobi_fig(["charm4py"], "weak", nodes, iters, quiet,
                            "Fig. 16ab: Charm4py Jacobi3D weak scaling"),
        "strong": _jacobi_fig(["charm4py"], "strong", strong_nodes, iters, quiet,
                              "Fig. 16cd: Charm4py Jacobi3D strong scaling"),
    }


# ---------------------------------------------------------------------------
# Secondary results and ablations
# ---------------------------------------------------------------------------

def ampi_overhead_anatomy(size: int = 8, quiet: bool = False) -> Dict[str, object]:
    """§IV-B1: how much of AMPI's device latency is outside UCX.

    The paper disables the ``CmiSend/RecvDevice`` calls and invokes the
    receive handlers directly, finding ~8 us outside UCX and <2 us inside.
    Here the decomposition comes from the observability layer: the AMPI
    latency run executes on a traced :mod:`repro.api` session, and the
    metrics snapshot's ``time_by_category`` attributes per-layer CPU time
    (``ampi`` / ``machine`` / ``ucx``) to each device message.  The raw
    UCX transfer time is additionally measured directly on a pair of
    workers as an end-to-end cross-check.
    """
    import repro.api as api
    from repro.apps.osu.runner import run_latency
    from repro.hardware.topology import Machine
    from repro.ucx.context import UcpContext

    cfg = MachineConfig.summit(nodes=2)
    # raw UCX: pre-posted receive, device eager path
    m = Machine(cfg)
    ctx = UcpContext(m)
    wa = ctx.create_worker(0, 0, 0)
    wb = ctx.create_worker(1, 0, 0)
    src = m.alloc_device(0, max(size, 1))
    dst = m.alloc_device(1, max(size, 1))
    t0 = m.sim.now
    req = wb.tag_recv_nb(dst, size, tag=1)
    wa.tag_send_nb(wa.ep(1), src, size, tag=1)
    m.sim.run_until_complete(req.event)
    ucx_time = m.sim.now - t0

    sess = api.session(cfg).model("ampi").trace().build()
    ampi_lat = run_latency("ampi", size, "intra", True, session=sess)
    snap = sess.metrics_snapshot()
    n_msgs = snap["counters"]["converse.send_device"]
    # per-device-message CPU time by layer, both endpoints summed
    layers_us = {
        cat: t / n_msgs * 1e6 for cat, t in sorted(snap["time_by_category"].items())
    }
    outside_us = sum(v for k, v in layers_us.items() if not k.startswith("ucx"))

    ompi_lat = run_latency("openmpi", size, "intra", True, cfg)
    result: Dict[str, object] = {
        "ucx_us": ucx_time * 1e6,
        "ampi_us": ampi_lat * 1e6,
        "openmpi_us": ompi_lat * 1e6,
        "ampi_outside_ucx_us": outside_us,
        "layers_us": layers_us,
        "n_device_msgs": n_msgs,
    }
    if not quiet:
        print("# SIV-B1: AMPI overhead anatomy (8 B device message, intra-node)")
        for k, v in result.items():
            if isinstance(v, float):
                print(f"{k:>24}: {v:8.2f}")
        for k, v in layers_us.items():
            print(f"{'layer ' + k:>24}: {v:8.2f}")
        print()
    return result


def ablation_gdrcopy(sizes: Sequence[int] = EAGER_SIZES, quiet: bool = False) -> Dict[str, Series]:
    """GDRCopy on/off: the paper notes UCX must find GDRCopy for low
    small-message latency."""
    from repro.apps.osu.runner import run_latency_sweep

    on = run_latency_sweep("charm", "intra", True, sizes, MachineConfig.summit(nodes=2))
    off = run_latency_sweep("charm", "intra", True, sizes, MachineConfig.summit(nodes=2).with_ucx(gdrcopy_enabled=False))
    s_on = Series("gdrcopy-on", [(k, v * 1e6) for k, v in on.items()])
    s_off = Series("gdrcopy-off", [(k, v * 1e6) for k, v in off.items()])
    if not quiet:
        print_series("Ablation: GDRCopy detection (Charm++ intra-node latency, us)",
                     [s_on, s_off])
    return {"on": s_on, "off": s_off}


def ablation_early_post(size: int = 1 * MB, quiet: bool = False) -> Dict[str, float]:
    """Future work SVI: pre-posted device receives vs metadata-delayed posts.

    (a) *pre-posted*: the receiver knows the tag in advance (the paper's
    proposed user-provided tags) and posts ``ucp_tag_recv_nb`` before the
    data is sent; (b) *metadata-delayed*: the receive is posted only after
    the host-side metadata message has arrived **and been processed by the
    runtime** (scheduler pick-up, entry dispatch, post entry method,
    ``LrtsRecvDevice``) — the full posting path of the paper's design.
    """
    from repro.hardware.topology import Machine
    from repro.ucx.context import UcpContext

    def run(pre_post: bool) -> float:
        cfg = MachineConfig.summit(nodes=2)
        rt = cfg.runtime
        m = Machine(cfg)
        ctx = UcpContext(m)
        wa = ctx.create_worker(0, 0, 0)
        wb = ctx.create_worker(1, 0, 1)
        src = m.alloc_device(0, size)
        dst = m.alloc_device(1, size)
        if pre_post:
            req = wb.tag_recv_nb(dst, size, tag=9)
            wa.tag_send_nb(wa.ep(1), src, size, tag=9)
        else:
            wa.tag_send_nb(wa.ep(1), src, size, tag=9)
            holder = {}
            runtime_path = (
                rt.scheduler_pickup_overhead
                + rt.entry_dispatch_overhead
                + rt.post_entry_overhead
                + rt.lrts_recv_device_overhead
                + rt.heap_alloc_cost
            )
            wb.set_am_handler(
                lambda payload, sz, src_id: m.sim.call_later(
                    runtime_path,
                    lambda: holder.update(req=wb.tag_recv_nb(dst, size, tag=9)),
                )
            )
            wa.am_send(wa.ep(1), 128, None)
            m.sim.run()
            req = holder["req"]
        m.sim.run_until_complete(req.event)
        return m.sim.now

    pre = run(True)
    post = run(False)
    result = {"pre_posted_us": pre * 1e6, "metadata_delayed_us": post * 1e6,
              "penalty_us": (post - pre) * 1e6}
    if not quiet:
        print(f"# Ablation: early-posted receive vs metadata-delayed ({size} B device rndv)")
        for k, v in result.items():
            print(f"{k:>24}: {v:8.2f}")
        print()
    return result


def ablation_rndv_threshold(
    thresholds: Sequence[int] = (1 * KB, 4 * KB, 16 * KB, 64 * KB),
    sizes: Sequence[int] = (512, 1 * KB, 2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB, 128 * KB),
    quiet: bool = False,
) -> Dict[int, Series]:
    """Device eager/rendezvous threshold sweep: where the crossover sits."""
    from repro.apps.osu.runner import run_latency_sweep

    out: Dict[int, Series] = {}
    for th in thresholds:
        cfg = MachineConfig.summit(nodes=2).with_ucx(device_eager_threshold=th)
        sweep = run_latency_sweep("charm", "intra", True, sizes, cfg)
        out[th] = Series(f"thresh={th//KB}K", [(k, v * 1e6) for k, v in sweep.items()])
    if not quiet:
        print_series("Ablation: device rendezvous threshold (Charm++ intra latency, us)",
                     list(out.values()))
    return out


def ablation_pipeline_chunk(
    chunks: Sequence[int] = (128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB),
    size: int = 4 * MB,
    quiet: bool = False,
) -> Dict[int, float]:
    """Pipeline chunk size vs inter-node device bandwidth."""
    from repro.apps.osu.runner import run_bandwidth

    out = {}
    for chunk in chunks:
        cfg = MachineConfig.summit(nodes=2).with_ucx(pipeline_chunk=chunk)
        out[chunk] = run_bandwidth("charm", size, "inter", True, cfg) / 1e9
    if not quiet:
        print("# Ablation: pipeline chunk size (Charm++ inter-node 4 MB bandwidth, GB/s)")
        for chunk, bw in out.items():
            print(f"{chunk // KB:>8} KB: {bw:6.2f}")
        print()
    return out


def ablation_gpudirect(size: int = 4 * MB, quiet: bool = False) -> Dict[str, float]:
    """Pipelined host staging vs a GPUDirect-RDMA-capable fabric."""
    from repro.apps.osu.runner import run_latency

    staged = run_latency("charm", size, "inter", True, MachineConfig.summit(nodes=2))
    cfg = MachineConfig.summit(nodes=2).with_ucx(gpudirect_rdma=True)
    gdr = run_latency("charm", size, "inter", True, cfg)
    result = {"pipelined_us": staged * 1e6, "gpudirect_us": gdr * 1e6}
    if not quiet:
        print(f"# Ablation: inter-node device rendezvous lane ({size} B)")
        for k, v in result.items():
            print(f"{k:>16}: {v:9.2f}")
        print()
    return result


def ablation_overdecomposition(
    blocks_per_pe: Sequence[int] = (1, 2, 4),
    nodes: int = 4,
    quiet: bool = False,
) -> Dict[int, float]:
    """Paper SVI future work: overdecomposition for comm/compute overlap.

    More chares per PE let halo transfers of one block overlap another
    block's stencil kernel; the win is bounded by the per-message overheads
    it multiplies."""
    out = {}
    for bpp in blocks_per_pe:
        r = run_jacobi("charm", nodes=nodes, scaling="weak", gpu_aware=True,
                       iters=3, warmup=1, blocks_per_pe=bpp)
        out[bpp] = r.iter_time * 1e3
    if not quiet:
        print(f"# Ablation: overdecomposition (Charm++ weak scaling, {nodes} nodes)")
        for bpp, t in out.items():
            print(f"{bpp:>4} blocks/PE: {t:8.3f} ms/iter")
        print()
    return out


def ablation_ampi_dip(quiet: bool = False) -> Dict[str, Series]:
    """The AMPI-H 128 KB bandwidth dip (SIV-B2) with the quirk model on/off."""
    from repro.apps.osu.runner import run_bandwidth_sweep

    sizes = [32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB, 1 * MB]
    on_cfg = MachineConfig.summit(nodes=2)
    off_cfg = on_cfg.override({"runtime.model_ampi_128k_dip": False})
    on = run_bandwidth_sweep("ampi", "intra", False, sizes, on_cfg)
    off = run_bandwidth_sweep("ampi", "intra", False, sizes, off_cfg)
    s_on = Series("dip-modelled", [(k, v / 1e6) for k, v in on.items()])
    s_off = Series("dip-disabled", [(k, v / 1e6) for k, v in off.items()])
    if not quiet:
        print_series("Ablation: AMPI-H 128 KB dip (intra-node bandwidth, MB/s)",
                     [s_on, s_off])
    return {"on": s_on, "off": s_off}


_RUNNERS = {
    "fig10": fig10, "fig11": fig11, "fig12": fig12, "fig13": fig13,
    "table1": table1,
    "fig14": fig14, "fig15": fig15, "fig16": fig16,
    "anatomy": ampi_overhead_anatomy,
    "ablation-gdrcopy": ablation_gdrcopy,
    "ablation-early-post": ablation_early_post,
    "ablation-rndv-threshold": ablation_rndv_threshold,
    "ablation-pipeline-chunk": ablation_pipeline_chunk,
    "ablation-gpudirect": ablation_gpudirect,
    "ablation-overdecomposition": ablation_overdecomposition,
    "ablation-ampi-dip": ablation_ampi_dip,
}


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures (simulated Summit)"
    )
    parser.add_argument("what", nargs="*", default=["table1"],
                        help=f"any of: {', '.join(sorted(_RUNNERS))}, or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="reduced size ladders / node counts")
    parser.add_argument("--plot", action="store_true",
                        help="render log-log ASCII charts of the curves")
    args = parser.parse_args(argv)

    targets = sorted(_RUNNERS) if args.what == ["all"] else args.what
    for name in targets:
        if name not in _RUNNERS:
            raise SystemExit(f"unknown target {name!r}")
        fn = _RUNNERS[name]
        if args.quick and name in ("fig10", "fig11", "fig12", "fig13", "table1"):
            result = fn(sizes=QUICK_SIZES)
        elif args.quick and name in ("fig14", "fig15", "fig16"):
            result = fn(nodes=(1, 4, 16, 64), strong_nodes=(8, 32), iters=2)
        else:
            result = fn()
        if args.plot and name in ("fig10", "fig11", "fig12", "fig13"):
            from repro.bench.plotting import plot_series_dict

            unit = "us" if name in ("fig10", "fig11") else "MB/s"
            print(plot_series_dict(f"{name} ({unit})", result, y_label=unit))


if __name__ == "__main__":
    main()
