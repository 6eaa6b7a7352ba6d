"""Performance-baseline store and regression gate.

Because the simulator is deterministic, a run's modeled results are a
*fingerprint* of the code: one-way latencies, final simulated time, event
counts, counters and the flight recorder's aggregate delayed-posting cost
are bit-stable across hosts and runs.  This module persists those
fingerprints for a small suite of fast, representative workloads
(``BENCH_baseline.json`` at the repo root) and re-derives them on demand:

* ``record`` — run the suite, write the baseline file;
* ``check`` — run the suite again and compare against the stored
  baseline: integer quantities (event counts, counters, inversions) must
  match exactly, modeled times within a relative tolerance.

Any code change that shifts a modeled latency, schedules a different
number of events or bumps a counter outside tolerance trips the gate —
the CI hook the ROADMAP's "every PR makes a hot path measurably faster
or enables that" needs to be enforceable.

CLI: ``python -m repro.bench.baseline record|check`` (see
:mod:`repro.bench.baseline`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.config import KB, MB, MachineConfig

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_ATOL",
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

#: Default relative tolerance for modeled times (floats); integers exact.
DEFAULT_RTOL = 0.01

#: Absolute floor for float comparisons.  A pure relative tolerance makes
#: every near-zero quantity (e.g. a delayed-posting cost that should be
#: exactly 0 µs) an automatic mismatch on any sub-rounding jitter, while a
#: large hidden floor would mask real regressions of small quantities —
#: this explicit value only absorbs float noise far below any modeled cost.
DEFAULT_ATOL = 1e-12

#: Named fault plans referenced by 4-tuple workload specs.  Deterministic
#: by construction (seeded), so faulty runs fingerprint just as stably as
#: clean ones — retransmit/drop counters included.
_FAULT_PLANS = {
    "lossy": None,  # built lazily below to keep this module import-light
}


def _fault_plan(key: str):
    plan = _FAULT_PLANS.get(key)
    if plan is None:
        from repro.faults import FaultPlan

        if key != "lossy":
            raise KeyError(f"unknown baseline fault plan {key!r}")
        plan = FaultPlan.lossy(drop_p=0.08, seed=1234)
        _FAULT_PLANS[key] = plan
    return plan


#: name -> (model, size, placement[, fault_plan]).  Small-message intra-node
#: points cover every model's eager path cheaply; the inter-node 64 KB points
#: exercise the rendezvous protocols (and therefore nonzero delayed-posting
#: cost); the ``_lossy`` point pins the fault-injection recovery path
#: (seeded drops, retransmits, backoff waits) to a fingerprint.
WORKLOADS: Dict[str, Tuple] = {
    "osu_latency_charm_intra_8": ("charm", 8, "intra"),
    "osu_latency_ampi_intra_8": ("ampi", 8, "intra"),
    "osu_latency_openmpi_intra_8": ("openmpi", 8, "intra"),
    "osu_latency_charm4py_intra_8": ("charm4py", 8, "intra"),
    "osu_latency_charm_inter_64K": ("charm", 64 * KB, "inter"),
    "osu_latency_ampi_inter_64K": ("ampi", 64 * KB, "inter"),
    "osu_latency_ampi_inter_64K_lossy": ("ampi", 64 * KB, "inter", "lossy"),
    # Paper-scale Jacobi3D scaling sweeps (§IV-C at 256 nodes): each entry
    # runs a node ladder and pins the *scaling shape* — one fingerprint per
    # ladder point, compared recursively.  Weak ladders start at 4 nodes;
    # strong ladders at 8 (the fixed 3072³ domain does not fit fewer GPUs).
    "jacobi_charm_weak_256": ("jacobi", "charm", "weak", (4, 64, 256)),
    "jacobi_charm_strong_256": ("jacobi", "charm", "strong", (8, 64, 256)),
    "jacobi_ampi_weak_256": ("jacobi", "ampi", "weak", (4, 64, 256)),
    "jacobi_ampi_strong_256": ("jacobi", "ampi", "strong", (8, 64, 256)),
    "jacobi_charm4py_weak_256": ("jacobi", "charm4py", "weak", (4, 64, 256)),
    "jacobi_charm4py_strong_256": ("jacobi", "charm4py", "strong", (8, 64, 256)),
    # Device-collective fingerprints: one 64-rank 1 MB allreduce across 11
    # nodes, flat (hierarchical disabled, auto-selected flat algorithm) vs
    # hierarchical (two-level NVLink/IB decomposition).  The gate asserts
    # the hierarchical run stays *faster* than the flat one — the PR's
    # headline crossover, pinned as data.
    "coll_allreduce_ampi_64r_1M_flat": ("coll", "flat"),
    "coll_allreduce_ampi_64r_1M_hier": ("coll", "hier"),
    # Dask-style GPU dataframe shuffle (all-to-all, O(ranks²) communicator
    # pairs) with first-touch mapping/endpoint-setup costs enabled: the
    # pooled-allocator ablation.  ``_pool`` routes chunks through the slab
    # pool (mappings amortised to the first round); ``_direct`` allocates
    # fresh buffers every round and pays them again.  The gate asserts the
    # pooled run stays faster by the amortisation margin.
    "shuffle_ampi_4n_pool": ("shuffle", "ampi", True, 4),
    "shuffle_ampi_4n_direct": ("shuffle", "ampi", False, 4),
    "shuffle_charm4py_4n_pool": ("shuffle", "charm4py", True, 4),
    "shuffle_charm4py_4n_direct": ("shuffle", "charm4py", False, 4),
    "shuffle_openmpi_2n_pool": ("shuffle", "openmpi", True, 2),
    "shuffle_openmpi_2n_direct": ("shuffle", "openmpi", False, 2),
    # Endpoint-thrash regime (PR 8 follow-on): the same pooled shuffle with
    # ``max_endpoints`` far below the peer count (4 slots for 11 peers per
    # worker), so every round LRU-closes and reconnects endpoints — and
    # re-pays the peer mappings dropped with them.  The fingerprint pins
    # the churn counters (``ucx.ep_evicted``/``ucx.ep_connect``) and the
    # much larger modeled time; the congestion report flags this run as
    # thrashing (gated in benchmarks/test_telemetry_smoke.py).
    "shuffle_ampi_2n_thrash": ("shuffle", "ampi", True, 2, "thrash"),
    # Multirail striping ablation (PR 10): one 4 MB intra-node AMPI
    # bandwidth point three ways — single-rail (the Fig. 12 NVLink
    # ceiling), striped across the alternate-brick/host-memory sideband
    # with graph-batched launches, and striped with every alternate-brick
    # link held down by a factor-0.0 fault window (graceful fallback: the
    # planner excludes the dead rail and the modeled time returns to the
    # single-rail fingerprint).  The gate asserts the striped run beats
    # single-rail and the rail-down run matches it.
    "bw_ampi_intra_4M_singlerail": ("bw_mr", "off"),
    "bw_ampi_intra_4M_multirail": ("bw_mr", "on"),
    "bw_ampi_intra_4M_multirail_raildown": ("bw_mr", "raildown"),
}

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
#: endpoint cap of the ``_thrash`` variant: far below the 11 peers each
#: worker talks to in the 2-node all-to-all, forcing sustained LRU churn
_THRASH_MAX_ENDPOINTS = 4


def _run_shuffle_workload(spec: Tuple, cfg: MachineConfig) -> Dict:
    import repro.api as api
    from repro.apps.shuffle.driver import run_shuffle

    _, model, pooled, nodes = spec[:4]
    thrash = len(spec) > 4 and spec[4] == "thrash"
    cfg = cfg.with_pool(pooled).override({
        "topology.nodes": nodes, "virtual_payload": True, "flight": True,
        "ucx.mapping_cost": _SHUFFLE_MAPPING_COST,
        "ucx.ep_setup_cost": _SHUFFLE_EP_SETUP_COST,
        "ucx.max_endpoints": _THRASH_MAX_ENDPOINTS if thrash else None,
    })
    builder = api.session(cfg).model(model)
    if model != "charm4py":
        builder = builder.ranks(cfg.topology.total_gpus)
    sess = builder.build()
    result = run_shuffle(model, rounds=_SHUFFLE_ROUNDS, session=sess)
    fp = sess.baseline_fingerprint()
    fp["shuffle_time_us"] = result.total_time * 1e6
    fp["bytes_moved"] = result.bytes_moved
    fp["chunks_moved"] = result.chunks_moved
    return fp


#: Shape of the multirail ablation points (see the ``bw_mr_*`` workloads):
#: the Fig. 12 peak size, a short windowed loop (enough for the striped
#: steady state without jacobi-scale wall-clock).
_BW_MR_SIZE = 4 * MB
_BW_MR_LOOPS = 2
_BW_MR_WINDOW = 16


def _run_bw_mr_workload(spec: Tuple, cfg: MachineConfig) -> Dict:
    import repro.api as api
    from repro.apps.osu.runner import run_bandwidth

    variant = spec[1]
    cfg = cfg.override({"flight": True})
    if variant != "off":
        cfg = cfg.override({"multirail.enabled": True})
    if variant == "raildown":
        from repro.faults import FaultPlan

        # every alternate-brick link down for the whole run: no seed route
        # traverses them, so only the rail planner sees the outage
        cfg = cfg.with_faults(FaultPlan.rail_down("n*.nvlalt*"))
    sess = api.session(cfg).model("ampi").build()
    bw = run_bandwidth("ampi", _BW_MR_SIZE, "intra", True, session=sess,
                       loops=_BW_MR_LOOPS, skip=1, window=_BW_MR_WINDOW)
    fp = sess.baseline_fingerprint()
    fp["bandwidth_gbs"] = bw / 1e9
    return fp


def _run_coll_workload(spec: Tuple, cfg: MachineConfig) -> Dict:
    import repro.api as api

    variant = spec[1]
    # virtual payloads: the fingerprint pins modeled time, not numerics
    cfg = cfg.override({"topology.nodes": _COLL_NODES, "virtual_payload": True,
                        "flight": True})
    if variant == "flat":
        cfg = cfg.override({"collectives.hierarchical_enabled": False})
    sess = api.session(cfg).model("ampi").ranks(_COLL_RANKS).build()

    def program(rank):
        buf = rank.charm.cuda.malloc(rank.gpu, _COLL_NBYTES)
        yield from rank.allreduce_device(buf, _COLL_NBYTES)

    sess.run_until(sess.launch(program), max_events=200_000_000)
    return sess.baseline_fingerprint()


def _run_jacobi_workload(spec: Tuple, base_cfg: MachineConfig) -> Dict:
    import repro.api as api
    from repro.apps.jacobi3d.driver import run_jacobi

    _, model, scaling, ladder = spec
    points: Dict[str, Dict] = {}
    for nodes in ladder:
        # virtual payloads: timing-identical (tests/test_virtual_payload.py)
        # but skips every dead-weight memcpy of the paper-scale domains
        cfg = base_cfg.override({"topology.nodes": nodes,
                                 "virtual_payload": True, "flight": True})
        sess = api.session(cfg).model(model).build()
        result = run_jacobi(model, nodes=nodes, scaling=scaling,
                            iters=_JACOBI_ITERS, warmup=_JACOBI_WARMUP,
                            session=sess)
        fp = sess.baseline_fingerprint()
        fp["iter_time_us"] = result.iter_time * 1e6
        fp["comm_time_us"] = result.comm_time * 1e6
        points[f"n{nodes}"] = fp
    return points


def run_workload(name: str, config: Optional[MachineConfig] = None) -> Dict:
    """Run one named workload and return its fingerprint dict.

    OSU workloads return one flat fingerprint; jacobi sweep workloads
    return one fingerprint per ladder point (``{"n4": {...}, ...}``),
    which ``check`` compares recursively.
    """
    import repro.api as api
    from repro.apps.osu.runner import run_latency

    spec = WORKLOADS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown baseline workload {name!r}; known: {sorted(WORKLOADS)}"
        )
    cfg = config if config is not None else MachineConfig.summit(nodes=2)
    if spec[0] == "jacobi":
        return _run_jacobi_workload(spec, cfg)
    if spec[0] == "coll":
        return _run_coll_workload(spec, cfg)
    if spec[0] == "shuffle":
        return _run_shuffle_workload(spec, cfg)
    if spec[0] == "bw_mr":
        return _run_bw_mr_workload(spec, cfg)
    model, size, placement = spec[:3]
    if len(spec) == 4:
        cfg = cfg.with_faults(_fault_plan(spec[3]))
    # flight recording feeds the posting fingerprint; it is observation-only
    # so the modeled quantities are identical to a plain run
    sess = api.session(cfg).model(model).flight().build()
    latency = run_latency(model, size, placement, True,
                          session=sess, iters=_ITERS, skip=_SKIP)
    fp = sess.baseline_fingerprint()
    fp["latency_us"] = latency * 1e6
    return fp


def collect_baseline(
    config: Optional[MachineConfig] = None,
    workloads: Optional[List[str]] = None,
) -> Dict:
    """Run the suite and return the baseline document (JSON-ready)."""
    names = list(WORKLOADS) if workloads is None else list(workloads)
    return {
        "schema": BASELINE_SCHEMA,
        "rtol": DEFAULT_RTOL,
        "atol": DEFAULT_ATOL,
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


def _compare_value(where: str, base, cur, rtol: float, atol: float,
                   failures: List[str]) -> None:
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            if key not in base:
                failures.append(f"{where}.{key}: new quantity (not in baseline)")
            elif key not in cur:
                failures.append(f"{where}.{key}: missing from current run")
            else:
                _compare_value(f"{where}.{key}", base[key], cur[key],
                               rtol, atol, failures)
        return
    if isinstance(base, bool) or isinstance(cur, bool):
        if base != cur:
            failures.append(f"{where}: {base!r} -> {cur!r}")
        return
    if isinstance(base, int) and isinstance(cur, int):
        if base != cur:
            failures.append(f"{where}: {base} -> {cur} (exact match required)")
        return
    if isinstance(base, (int, float)) and isinstance(cur, (int, float)):
        # modeled times: relative tolerance plus the explicit absolute
        # floor (see DEFAULT_ATOL) so exact zeros compare clean without
        # masking regressions of small-but-real quantities
        tol = rtol * max(abs(base), abs(cur)) + atol
        if abs(cur - base) > tol:
            drift = (cur - base) / base * 100.0 if base else float("inf")
            failures.append(
                f"{where}: {base:.6g} -> {cur:.6g} "
                f"({drift:+.2f}%, rtol={rtol}, atol={atol:g})"
            )
        return
    if base != cur:
        failures.append(f"{where}: {base!r} -> {cur!r}")


def check_baseline(
    doc: Dict,
    config: Optional[MachineConfig] = None,
    rtol: Optional[float] = None,
    atol: Optional[float] = None,
) -> BaselineReport:
    """Re-run every workload named in ``doc`` and compare fingerprints.

    Each workload's wall-clock is recorded in the report (and printed) but
    not judged: host time is the repo benchmark's business
    (``benchmarks/perf``), which compares it against the parent commit.
    """
    if rtol is None:
        rtol = float(doc.get("rtol", DEFAULT_RTOL))
    if atol is None:
        atol = float(doc.get("atol", DEFAULT_ATOL))
    report = BaselineReport()
    for name, base_fp in sorted(doc.get("entries", {}).items()):
        if name not in WORKLOADS:
            report.failures.append(f"{name}: workload no longer defined")
            continue
        start = time.perf_counter()
        cur_fp = run_workload(name, config)
        report.wallclock[name] = time.perf_counter() - start
        report.compared += 1
        _compare_value(name, base_fp, cur_fp, rtol, atol, report.failures)
    if not doc.get("entries"):
        report.failures.append("baseline has no entries")
    return report
