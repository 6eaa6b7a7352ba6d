"""Performance-baseline store and regression gate.

Because the simulator is deterministic, a run's modeled results are a
*fingerprint* of the code: one-way latencies, final simulated time, event
counts, counters and the flight records' aggregate delayed-posting cost
are bit-stable across hosts and runs.  This module persists those
fingerprints for a small suite of fast, representative workloads
(``BENCH_baseline.json`` at the repo root) and re-derives them on demand:

* ``record`` — run the suite, write the baseline file;
* ``check`` — run the suite again and compare against the stored
  baseline: every value must be equal, with the same type.  JSON's
  shortest-repr round trip is exact for doubles, so a recorded modeled
  time reads back as the very float the run produced.

The ``observed_*`` entries also pin what a traced run reports (see
:func:`_observation`).  A deliberate model change re-records the entries it
moves (``record --workloads NAME ...``) and shows up as a JSON diff of them.

CLI: ``python -m repro.bench.baseline record|check`` (see
:mod:`repro.bench.baseline`).
"""

from __future__ import annotations

import json
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.config import KB, MB, MachineConfig
from repro.faults.plan import FaultPlan

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_BASELINE_PATH",
    "SHAPES",
    "WORKLOADS",
    "BaselineReport",
    "collect_baseline",
    "check_baseline",
    "load_baseline",
    "save_baseline",
    "run_workload",
]

BASELINE_SCHEMA = 1

#: Committed at the repository root.
DEFAULT_BASELINE_PATH = "BENCH_baseline.json"

_ITERS = 6
_SKIP = 2

#: Jacobi ladder points run the minimum that still exercises the steady
#: state (warmup iteration excluded from the averages).
_JACOBI_ITERS = 2
_JACOBI_WARMUP = 1

#: Shape of the collective baseline points (see the ``coll_*`` workloads).
_COLL_RANKS = 64
_COLL_NODES = 11
_COLL_NBYTES = 1 << 20

#: Shape of the shuffle ablation points (see the ``shuffle_*`` workloads):
#: six all-to-all rounds with first-touch charges large enough that the
#: direct allocator's re-mapping cost dominates — the regime the pooled
#: allocator exists for (RMM under dask-cuda).
_SHUFFLE_ROUNDS = 6
_SHUFFLE_MAPPING_COST = 1e-3
_SHUFFLE_EP_SETUP_COST = 2e-5
#: endpoint cap of the ``_thrash`` variant (11 peers per worker at 2 nodes)
_THRASH_MAX_ENDPOINTS = 4

#: Shape of the multirail ablation points (see the ``bw_ampi_*`` workloads):
#: the Fig. 12 peak size, a short windowed loop (enough for the striped
#: steady state without jacobi-scale wall-clock).
_BW_MR_SIZE = 4 * MB
_BW_MR_LOOPS = 2
_BW_MR_WINDOW = 16

#: Shape of the convergence point (the ``jacobi_converge_charm_2n`` entry):
#: a functional Charm++ Jacobi3D whose max-residual check — a Charm++
#: reduction to element 0 and a broadcast back — stops it at iteration 20,
#: before the cap.
_CONVERGE_DOMAIN = (24, 24, 24)
_CONVERGE_CAP = 100
_CONVERGE_INTERVAL = 4
_CONVERGE_TOLERANCE = 0.05

#: Seeded, so faulty runs fingerprint just as stably as clean ones —
#: retransmit/drop counters included.
_LOSSY = FaultPlan.lossy(drop_p=0.08, seed=1234)

#: What an ``observed_*`` entry turns on.  Observation never moves the
#: modeled results, so the rest of its fingerprint is that of a plain run.
_OBSERVED = {"trace": True, "flight": True, "telemetry": True}


# ---------------------------------------------------------------------------
# runners: (config, named shape) -> (finished session, extra fingerprint keys)
# ---------------------------------------------------------------------------

def _osu_latency(cfg: MachineConfig, *, model: str, size: int, placement: str,
                 faults: Optional[FaultPlan] = None):
    import repro.api as api
    from repro.apps.osu.runner import run_latency

    # flight recording feeds the posting fingerprint; it is observation-only
    # so the modeled quantities are identical to a plain run
    cfg = cfg.override({"flight": True})
    if faults is not None:
        cfg = cfg.with_faults(faults)
    sess = api.session(cfg).model(model).build()
    latency = run_latency(model, size, placement, True,
                          session=sess, iters=_ITERS, skip=_SKIP)
    return sess, {"latency_us": latency * 1e6}


def _jacobi(cfg: MachineConfig, *, model: str, nodes: int, scaling: str):
    import repro.api as api
    from repro.apps.jacobi3d.driver import run_jacobi

    cfg = cfg.override({"topology.nodes": nodes, "flight": True})
    sess = api.session(cfg).model(model).build()
    result = run_jacobi(model, nodes=nodes, scaling=scaling,
                        iters=_JACOBI_ITERS, warmup=_JACOBI_WARMUP,
                        session=sess)
    return sess, {"iter_time_us": result.iter_time * 1e6,
                  "comm_time_us": result.comm_time * 1e6}


def _converge(cfg: MachineConfig):
    import repro.api as api
    from repro.apps.jacobi3d.charm_impl import run_charm_jacobi
    from repro.apps.jacobi3d.decomposition import Decomposition

    cfg = cfg.override({"flight": True})
    sess = api.session(cfg).model("charm").build()
    decomp = Decomposition.create(_CONVERGE_DOMAIN, cfg.topology.total_gpus)
    collector = run_charm_jacobi(
        sess, decomp, gpu_aware=True, iters=_CONVERGE_CAP, warmup=0,
        functional=True, check_interval=_CONVERGE_INTERVAL,
        tolerance=_CONVERGE_TOLERANCE)
    return sess, {"iterations": len(collector.timings[0].iter_times),
                  "iteration_cap": _CONVERGE_CAP}


def _allreduce(cfg: MachineConfig, *, hierarchical: bool):
    import repro.api as api

    cfg = cfg.override({"topology.nodes": _COLL_NODES, "flight": True,
                        "collectives.hierarchical_enabled": hierarchical})
    sess = api.session(cfg).model("ampi").ranks(_COLL_RANKS).build()

    def program(rank):
        buf = rank.charm.cuda.malloc(rank.gpu, _COLL_NBYTES)
        yield from rank.allreduce_device(buf, _COLL_NBYTES)

    sess.run_until(sess.launch(program), max_events=200_000_000)
    return sess, {}


def _shuffle(cfg: MachineConfig, *, model: str, pooled: bool, nodes: int,
             max_endpoints: Optional[int] = None):
    import repro.api as api
    from repro.apps.shuffle.driver import run_shuffle

    cfg = cfg.with_pool(pooled).override({
        "topology.nodes": nodes, "flight": True,
        "ucx.mapping_cost": _SHUFFLE_MAPPING_COST,
        "ucx.ep_setup_cost": _SHUFFLE_EP_SETUP_COST,
        "ucx.max_endpoints": max_endpoints,
    })
    builder = api.session(cfg).model(model)
    if model != "charm4py":
        builder = builder.ranks(cfg.topology.total_gpus)
    sess = builder.build()
    result = run_shuffle(model, rounds=_SHUFFLE_ROUNDS, session=sess)
    return sess, {"shuffle_time_us": result.total_time * 1e6,
                  "bytes_moved": result.bytes_moved,
                  "chunks_moved": result.chunks_moved}


def _bandwidth(cfg: MachineConfig, *, multirail: bool, rail_down: bool = False):
    import repro.api as api
    from repro.apps.osu.runner import run_bandwidth

    cfg = cfg.override({"flight": True, "multirail.enabled": multirail})
    if rail_down:
        # every alternate-brick link down for the whole run: no seed route
        # traverses them, so only the rail planner sees the outage
        cfg = cfg.with_faults(FaultPlan.rail_down("n*.nvlalt*"))
    sess = api.session(cfg).model("ampi").build()
    bw = run_bandwidth("ampi", _BW_MR_SIZE, "intra", True, session=sess,
                       loops=_BW_MR_LOOPS, skip=1, window=_BW_MR_WINDOW)
    return sess, {"bandwidth_gbs": bw / 1e9}


def _observation(sess) -> Dict:
    """What a traced, flight-recorded, telemetry-on run reports, as plain
    JSON (tuple keys and sets become sorted strings and lists): span counts
    and attribute keys, span-tree and flight-record digests, blame, flight
    summary, histogram and telemetry counts, contended links and the sha256
    of the exported ``trace.json`` and ``timeline.json``."""
    # lazy: repro.obs imports this module; hashlib loads OpenSSL (+3.6 MB RSS)
    import hashlib

    spans = sess.tracer.spans
    records = [r.to_dict() for r in sess.flight_records()]
    snap = sess.metrics_snapshot()
    with tempfile.TemporaryDirectory() as tmp:
        trace = sess.export_chrome_trace(Path(tmp, "trace.json")).read_bytes()
        timeline = sess.export_timeline(Path(tmp, "timeline.json")).read_bytes()
    return {
        "span_counts": {f"{cat}/{name}": n for (cat, name), n in
                        sorted(Counter((s.category, s.name) for s in spans).items())},
        # the attribute keys of every (category, name), in creation order
        "span_attrs": [[cat, name, list(keys)] for cat, name, keys in
                       sorted({(s.category, s.name, tuple(s.attrs)) for s in spans})],
        # creation order, parenting, times and ordered attributes of every span
        "span_tree_digest": hashlib.sha256(repr([
            (s.sid, s.parent_sid, s.category, s.name, s.start, s.end_time,
             list(s.attrs.items()))
            for s in spans]).encode()).hexdigest(),
        "blame": sess.critical_path().blame,
        "flight_summary": sess.flight_summary(),
        "first_record": records[0],
        "last_record": records[-1],
        "flight_records_digest": hashlib.sha256(
            json.dumps(records, sort_keys=True).encode()).hexdigest(),
        "time_by_category": snap["time_by_category"],
        "histogram_counts": {
            name: h["counts"] for name, h in snap["histograms"].items()},
        "series_counts": {
            name: ts.stats()["count"]
            for name, ts in sorted(sess.tracer.timeline.series.items())},
        "top_contended": [
            link.name for link in sess.congestion_report().top_contended],
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
        "timeline_sha256": hashlib.sha256(timeline).hexdigest(),
    }


def _fingerprint(run: Callable, cfg: MachineConfig, observed: bool = False) -> Dict:
    sess, extra = run(cfg.override(_OBSERVED) if observed else cfg)
    fp = {**sess.baseline_fingerprint(), **extra}
    if observed:
        fp["observation"] = _observation(sess)
    return fp


def _ladder(cfg: MachineConfig, *, ladder, **point) -> Dict:
    """One Jacobi3D fingerprint per node count, keyed ``n<nodes>``."""
    return {f"n{nodes}": _fingerprint(partial(_jacobi, nodes=nodes, **point), cfg)
            for nodes in ladder}


def _point(run: Callable, **shape) -> Callable[[MachineConfig], Dict]:
    return partial(_fingerprint, partial(run, **shape))


#: The traced shapes behind the ``observed_*`` entries; each takes a config
#: and returns ``(session, extra)`` (``tests/test_obs_export_text.py``
#: exports the same sessions against its oracle).
SHAPES: Dict[str, Callable] = {
    "charm_inter_64K": partial(_osu_latency, model="charm", size=64 * KB,
                               placement="inter"),
    "charm4py_inter_64K": partial(_osu_latency, model="charm4py", size=64 * KB,
                                  placement="inter"),
    "openmpi_intra_8B": partial(_osu_latency, model="openmpi", size=8,
                                placement="intra"),
    "ampi_inter_64K_lossy": partial(_osu_latency, model="ampi", size=64 * KB,
                                    placement="inter", faults=_LOSSY),
    "ampi_jacobi_2n": partial(_jacobi, model="ampi", nodes=2, scaling="weak"),
}

#: name -> callable(config) -> fingerprint.  Small-message intra-node points
#: cover every model's eager path cheaply; the inter-node 64 KB points
#: exercise the rendezvous protocols (and therefore nonzero delayed-posting
#: cost); the ``_lossy`` point pins the fault-injection recovery path
#: (seeded drops, retransmits, backoff waits) to a fingerprint.
WORKLOADS: Dict[str, Callable[[MachineConfig], Dict]] = {
    **{f"osu_latency_{model}_intra_8": _point(
        _osu_latency, model=model, size=8, placement="intra")
       for model in ("charm", "ampi", "openmpi", "charm4py")},
    **{f"osu_latency_{model}_inter_64K": _point(
        _osu_latency, model=model, size=64 * KB, placement="inter")
       for model in ("charm", "ampi")},
    "osu_latency_ampi_inter_64K_lossy": _point(
        _osu_latency, model="ampi", size=64 * KB, placement="inter",
        faults=_LOSSY),
    # Paper-scale Jacobi3D scaling sweeps (§IV-C at 256 nodes): each entry
    # runs a node ladder and pins the *scaling shape* — one fingerprint per
    # ladder point, compared recursively.  Weak ladders start at 4 nodes;
    # strong ladders at 8 (the fixed 3072³ domain does not fit fewer GPUs).
    **{f"jacobi_{model}_{scaling}_256": partial(
        _ladder, model=model, scaling=scaling,
        ladder=(4, 64, 256) if scaling == "weak" else (8, 64, 256))
       for model in ("charm", "ampi", "charm4py")
       for scaling in ("weak", "strong")},
    # The convergence check the paper's fixed-iteration runs leave out: the
    # Charm++ reduction and callback a production Jacobi3D stops on.
    "jacobi_converge_charm_2n": _point(_converge),
    # Device-collective fingerprints: one 64-rank 1 MB allreduce across 11
    # nodes, flat (hierarchical disabled, auto-selected flat algorithm) vs
    # hierarchical (two-level NVLink/IB decomposition); the hierarchical
    # run must stay faster (benchmarks/test_baseline_gate.py).
    "coll_allreduce_ampi_64r_1M_flat": _point(_allreduce, hierarchical=False),
    "coll_allreduce_ampi_64r_1M_hier": _point(_allreduce, hierarchical=True),
    # Dask-style GPU dataframe shuffle (all-to-all) with first-touch
    # mapping/endpoint-setup costs: the pooled-allocator ablation.  ``_pool``
    # amortises mappings to the first round; ``_direct`` allocates fresh
    # buffers and pays them every round, and must stay slower.
    **{f"shuffle_{model}_{nodes}n_{'pool' if pooled else 'direct'}": _point(
        _shuffle, model=model, pooled=pooled, nodes=nodes)
       for model, nodes in (("ampi", 4), ("charm4py", 4), ("openmpi", 2))
       for pooled in (True, False)},
    # Endpoint-thrash regime: the same pooled shuffle with 4 endpoint slots
    # for 11 peers per worker, so every round LRU-closes and reconnects
    # endpoints and re-pays the mappings dropped with them (the congestion
    # report's thrash verdict is gated in benchmarks/test_telemetry_smoke.py).
    "shuffle_ampi_2n_thrash": _point(_shuffle, model="ampi", pooled=True, nodes=2,
                                     max_endpoints=_THRASH_MAX_ENDPOINTS),
    # Multirail striping ablation: one 4 MB intra-node AMPI bandwidth point
    # single-rail (the Fig. 12 NVLink ceiling), striped across the
    # alternate-brick/host-memory sideband, and striped with every
    # alternate brick down, which must fall back to the single-rail result.
    "bw_ampi_intra_4M_singlerail": _point(_bandwidth, multirail=False),
    "bw_ampi_intra_4M_multirail": _point(_bandwidth, multirail=True),
    "bw_ampi_intra_4M_multirail_raildown": _point(_bandwidth, multirail=True,
                                                  rail_down=True),
    # Observation output of one traced shape per model (see ``SHAPES``).
    **{f"observed_{shape}": partial(_fingerprint, run, observed=True)
       for shape, run in SHAPES.items()},
}


def run_workload(name: str, config: Optional[MachineConfig] = None) -> Dict:
    """Run one named workload and return its fingerprint dict.

    Single-run workloads return one flat fingerprint; jacobi sweep
    workloads return one fingerprint per ladder point (``{"n4": {...},
    ...}``), which ``check`` compares recursively.
    """
    run = WORKLOADS.get(name)
    if run is None:
        raise KeyError(
            f"unknown baseline workload {name!r}; known: {sorted(WORKLOADS)}"
        )
    return run(config if config is not None else MachineConfig.summit(nodes=2))


def collect_baseline(
    config: Optional[MachineConfig] = None,
    workloads: Optional[List[str]] = None,
) -> Dict:
    """Run the suite and return the baseline document (JSON-ready)."""
    names = list(WORKLOADS) if workloads is None else list(workloads)
    return {
        "schema": BASELINE_SCHEMA,
        "entries": {name: run_workload(name, config) for name in names},
    }


def save_baseline(doc: Dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Union[str, Path]) -> Dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline schema {doc.get('schema')!r} != supported {BASELINE_SCHEMA}"
        )
    return doc


@dataclass
class BaselineReport:
    """Outcome of one ``check`` run."""

    compared: int = 0
    failures: List[str] = field(default_factory=list)
    #: wall-clock seconds spent per checked workload
    wallclock: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        head = (f"baseline check: {self.compared} workload(s), "
                f"{len(self.failures)} failure(s), "
                f"{sum(self.wallclock.values()):.1f}s wall-clock")
        return "\n".join([head] + [f"  FAIL {f}" for f in self.failures])


def _compare_value(where: str, base, cur, failures: List[str]) -> None:
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            if key not in base:
                failures.append(f"{where}.{key}: new quantity (not in baseline)")
            elif key not in cur:
                failures.append(f"{where}.{key}: missing from current run")
            else:
                _compare_value(f"{where}.{key}", base[key], cur[key], failures)
    elif not (type(base) is type(cur) and base == cur):
        failures.append(f"{where}: {base!r} -> {cur!r}")


def check_baseline(doc: Dict, config: Optional[MachineConfig] = None) -> BaselineReport:
    """Re-run every workload named in ``doc`` and compare fingerprints
    exactly.

    Each workload's wall-clock is recorded in the report (and printed) but
    not judged: host time is the repo benchmark's business
    (``benchmarks/perf``), which compares it against the parent commit.
    """
    report = BaselineReport()
    for name, base_fp in sorted(doc.get("entries", {}).items()):
        if name not in WORKLOADS:
            report.failures.append(f"{name}: workload no longer defined")
            continue
        start = time.perf_counter()
        cur_fp = run_workload(name, config)
        report.wallclock[name] = time.perf_counter() - start
        report.compared += 1
        _compare_value(name, base_fp, cur_fp, report.failures)
    if not doc.get("entries"):
        report.failures.append("baseline has no entries")
    return report
