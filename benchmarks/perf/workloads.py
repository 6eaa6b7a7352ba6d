"""The four pinned workloads of the repo benchmark.

A workload is a fixed list of *parts*.  One part is one call of a public app
driver (``run_latency`` / ``run_shuffle`` / ``run_jacobi``) on a fresh
``repro.api`` session, or one analysis/export pass over such a session.  The
harness times each part on its own, so a part is the unit the
minimum-over-rounds estimator works on (see README.md).

Why these four (which layer does the work, which is bypassed):

``pingpong_small``
    One message in flight, queues of depth <= 1.  Per-message cost of the
    model layers, ``converse``, ``core.machine_ucx``, the ``ucx.worker``
    eager path and the inert ``obs`` hooks dominates; links, rendezvous and
    the memory pool do almost nothing.
``shuffle_churn``
    Hundreds of outstanding receives and unexpected arrivals, rendezvous /
    IPC / pipeline transfers contending on links, alloc/free churn,
    mapping-cache and endpoint-LRU eviction, retransmit timers scheduled and
    cancelled.  Exercises matching, memory and the engine *differently* from
    ``pingpong_small``.
``jacobi_halo_64``
    The ROADMAP's named hot path: deep event agenda, route/topology memo at
    scale, thousands of concurrent link holds -- ``sim`` and ``hardware`` do
    most of the work.
``observed_report``
    The only workload where ``obs`` is the largest share: a traced run, then
    the analyses and exports a user reads.  The other three run with
    observation off, so an ``obs`` change must win here and not lose there.

Application message counts are computed here from the workload parameters,
never read back from the simulator, so a change that removes internal events
cannot move ``msgs_per_s`` the wrong way.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

#: repository root (``benchmarks/perf/workloads.py`` -> two levels up)
ROOT = Path(__file__).resolve().parents[2]

MODELS = ("charm", "ampi", "openmpi", "charm4py")

# pingpong_small
PINGPONG_ITERS = 100
PINGPONG_SKIP = 4
#: (size, gpu_aware): 8 B and 1 KB GPU-aware, 8 B host-staged
PINGPONG_VARIANTS = ((8, True), (1024, True), (8, False))

# shuffle_churn (first-touch charges as in the BENCH_baseline shuffle pairs)
SHUFFLE_NODES = 4
SHUFFLE_ROUNDS = 3
SHUFFLE_CHUNK = 256 * 1024
SHUFFLE_MAPPING_COST = 1e-3
SHUFFLE_EP_SETUP_COST = 2e-5
SHUFFLE_MAX_ENDPOINTS = 8
SHUFFLE_DROP_P = 0.05

# jacobi_halo_64
JACOBI_NODES = 64
JACOBI_ITERS = 1
JACOBI_WARMUP = 1
JACOBI_MODELS = ("ampi", "charm4py")

# observed_report
OBSERVED_NODES = 8
OBSERVED_ITERS = 3
OBSERVED_WARMUP = 1


@dataclass
class Outcome:
    """What one part execution produced; everything except ``session`` is the
    part's fingerprint and must repeat exactly from round to round."""

    #: modelled microseconds, ``None`` for a part that does not simulate
    sim_time_us: Optional[float]
    events: int
    counters: Dict[str, int]
    #: further values that must repeat exactly (app results, report sizes)
    extra: Tuple = ()
    #: app-level conservation (shuffle: bytes moved == bytes planned)
    conserved: bool = True
    #: seconds the part spent checking its own output, not part of its time
    check_s: float = 0.0
    #: the session the part ran on, for the trace run's analyses
    session: object = None

    def fingerprint(self) -> Tuple:
        return (self.sim_time_us, self.events,
                tuple(sorted(self.counters.items())), self.extra)


@dataclass(frozen=True)
class Part:
    name: str
    #: ``run(round_ctx, observe)``: ``round_ctx`` is a dict shared by the
    #: parts of one round; ``observe`` asks for a traced + flight-recorded
    #: session (the trace run's modelled-time round)
    run: Callable[[dict, bool], Outcome]
    #: application-level point-to-point messages this part completes
    messages: int = 0
    #: programming model, for ``<model>.host_us_per_msg``
    model: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    parts: Tuple[Part, ...]
    #: import the workload's modules and build its largest session -- what
    #: the fresh-interpreter set-up child times
    setup: Callable[[], object]

    @property
    def messages(self) -> int:
        return sum(p.messages for p in self.parts)


def _build(builder, observe: bool):
    return (builder.trace().flight() if observe else builder).build()


def _outcome(sess, extra: Tuple = (), conserved: bool = True) -> Outcome:
    return Outcome(sess.now * 1e6, sess.sim.event_count, dict(sess.counters),
                   extra, conserved, session=sess)


# -- pingpong_small ------------------------------------------------------------
def pingpong_small(seed: int) -> Workload:
    """Seed-independent by construction: a ping-pong has no random input."""
    import repro.api as api
    from repro.apps.osu.runner import run_latency
    from repro.config import MachineConfig

    def builder(model):
        return api.session(MachineConfig.summit(nodes=2)).model(model)

    def part(model, placement, size, gpu_aware):
        def run(ctx, observe):
            sess = _build(builder(model), observe)
            latency = run_latency(model, size, placement, gpu_aware,
                                  iters=PINGPONG_ITERS, skip=PINGPONG_SKIP,
                                  session=sess)
            return _outcome(sess, (latency,))

        staging = "dev" if gpu_aware else "host"
        return Part(f"{model}_{placement}_{size}B_{staging}", run,
                    messages=2 * (PINGPONG_ITERS + PINGPONG_SKIP), model=model)

    parts = tuple(
        part(model, placement, size, gpu_aware)
        for model in MODELS
        for placement in ("intra", "inter")
        for size, gpu_aware in PINGPONG_VARIANTS
    )
    return Workload("pingpong_small", parts,
                    setup=lambda: builder("charm4py").build())


# -- shuffle_churn -------------------------------------------------------------
def shuffle_churn(seed: int) -> Workload:
    """``seed`` feeds ``ShufflePlan.seed`` (chunk sizes) and the lossy
    ``FaultPlan`` (which frames drop)."""
    import repro.api as api
    from repro.apps.shuffle.driver import run_shuffle
    from repro.config import MachineConfig
    from repro.faults import FaultPlan

    base = MachineConfig.summit(nodes=SHUFFLE_NODES).with_virtual_payload()
    n_ranks = base.topology.total_gpus

    def builder(model, pool, max_endpoints, lossy):
        cfg = base.with_pool(pool).with_ucx(
            mapping_cost=SHUFFLE_MAPPING_COST,
            ep_setup_cost=SHUFFLE_EP_SETUP_COST,
            max_endpoints=max_endpoints,
        )
        b = api.session(cfg).model(model)
        if model != "charm4py":
            b = b.ranks(n_ranks)
        if lossy:
            b = b.faults(FaultPlan.lossy(drop_p=SHUFFLE_DROP_P, seed=seed))
        return b

    def part(name, model, pool=True, max_endpoints=None, lossy=False):
        def run(ctx, observe):
            sess = _build(builder(model, pool, max_endpoints, lossy), observe)
            result = run_shuffle(model, rounds=SHUFFLE_ROUNDS,
                                 chunk=SHUFFLE_CHUNK, seed=seed, session=sess)
            return _outcome(
                sess,
                (result.total_time, result.bytes_moved, result.chunks_moved),
                conserved=result.bytes_moved == result.plan.total_bytes(),
            )

        return Part(name, run,
                    messages=SHUFFLE_ROUNDS * n_ranks * (n_ranks - 1),
                    model=model)

    parts = (
        part("ampi_pool_ep8", "ampi", max_endpoints=SHUFFLE_MAX_ENDPOINTS),
        part("ampi_direct", "ampi", pool=False),
        part("ampi_pool_ep8_lossy", "ampi",
             max_endpoints=SHUFFLE_MAX_ENDPOINTS, lossy=True),
        part("openmpi_pool", "openmpi"),
        part("charm4py_pool", "charm4py"),
    )
    return Workload(
        "shuffle_churn", parts,
        setup=lambda: builder("ampi", True, SHUFFLE_MAX_ENDPOINTS, True).build(),
    )


# -- jacobi (shared by jacobi_halo_64 and observed_report) ---------------------
def _halo_messages(nodes: int, iterations: int) -> int:
    """Halo messages of a weak-scaling Jacobi3D run: one per (block, face
    neighbour) per iteration, from the decomposition alone."""
    from repro.apps.jacobi3d.decomposition import Decomposition, weak_scaling_domain
    from repro.apps.jacobi3d.driver import WEAK_BASE
    from repro.config import MachineConfig

    p = MachineConfig.summit(nodes=nodes).topology.total_gpus
    decomp = Decomposition.create(weak_scaling_domain(WEAK_BASE, nodes), p)
    return iterations * sum(len(decomp.neighbors(r)) for r in range(p))


def _jacobi_builder(model: str, nodes: int):
    import repro.api as api
    from repro.config import MachineConfig

    cfg = MachineConfig.summit(nodes=nodes).with_virtual_payload()
    return api.session(cfg).model(model)


def jacobi_halo_64(seed: int) -> Workload:
    """Seed-independent by construction: the stencil has no random input."""
    from repro.apps.jacobi3d.driver import run_jacobi

    def part(model):
        def run(ctx, observe):
            sess = _build(_jacobi_builder(model, JACOBI_NODES), observe)
            result = run_jacobi(model, nodes=JACOBI_NODES, scaling="weak",
                                iters=JACOBI_ITERS, warmup=JACOBI_WARMUP,
                                session=sess)
            return _outcome(sess, (result.iter_time, result.comm_time))

        return Part(model, run, model=model, messages=_halo_messages(
            JACOBI_NODES, JACOBI_ITERS + JACOBI_WARMUP))

    return Workload(
        "jacobi_halo_64", tuple(part(m) for m in JACOBI_MODELS),
        setup=lambda: _jacobi_builder("charm4py", JACOBI_NODES).build(),
    )


# -- observed_report -----------------------------------------------------------
def observed_session(observed: bool = True):
    """Run the ``observed_report`` simulation; ``observed=False`` is the same
    run built without observation (for ``obs.on_overhead_pct``)."""
    from repro.apps.jacobi3d.driver import run_jacobi

    builder = _jacobi_builder("ampi", OBSERVED_NODES)
    if observed:
        builder = builder.trace().flight().telemetry()
    sess = builder.build()
    result = run_jacobi("ampi", nodes=OBSERVED_NODES, scaling="weak",
                        iters=OBSERVED_ITERS, warmup=OBSERVED_WARMUP,
                        session=sess)
    return sess, result


def analyse(sess) -> Tuple:
    """The three analyses a user reads; returns their exact headline values."""
    blame = sess.critical_path().blame
    flight = sess.flight_summary()
    congestion = sess.congestion_report()
    return (tuple(sorted(blame.items())), flight["n_records"],
            flight["delayed_posting_seconds"],
            tuple(lc.name for lc in congestion.top_contended))


def export(sess) -> Tuple[Tuple, float]:
    """Write the Chrome trace and the telemetry timeline to a scratch
    directory inside the checkout, then read both back and validate them.
    Returns ((trace events, spans, counter events, timeline series), seconds
    spent on the read-back check)."""
    import json
    import time

    from repro.obs import validate_chrome_trace

    with tempfile.TemporaryDirectory(prefix=".perf_tmp_", dir=ROOT) as tmp:
        trace_path = sess.export_chrome_trace(Path(tmp) / "trace.json")
        timeline_path = sess.export_timeline(Path(tmp) / "timeline.json")
        check_start = time.perf_counter()
        stats = validate_chrome_trace(json.loads(trace_path.read_text()))
        series = json.loads(timeline_path.read_text())["series"]
    sizes = (stats["n_events"], stats["n_spans"], stats["n_counter_events"],
             len(series))
    return sizes, time.perf_counter() - check_start


def observed_report(seed: int) -> Workload:
    """Seed-independent by construction (see ``jacobi_halo_64``)."""

    def simulate(ctx, observe):
        sess, result = observed_session()
        ctx["session"] = sess
        return _outcome(sess, (result.iter_time, result.comm_time))

    def analyse_part(ctx, observe):
        return Outcome(None, 0, {}, analyse(ctx["session"]))

    def export_part(ctx, observe):
        sizes, check_s = export(ctx["session"])
        return Outcome(None, 0, {}, sizes, check_s=check_s)

    parts = (
        Part("simulate_observed", simulate, model="ampi",
             messages=_halo_messages(OBSERVED_NODES,
                                     OBSERVED_ITERS + OBSERVED_WARMUP)),
        Part("analyse", analyse_part),
        Part("export", export_part),
    )
    return Workload(
        "observed_report", parts,
        setup=lambda: (_jacobi_builder("ampi", OBSERVED_NODES)
                       .trace().flight().telemetry().build()),
    )


#: name -> factory(seed); the order is the order of BENCHMARK.json
WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "pingpong_small": pingpong_small,
    "shuffle_churn": shuffle_churn,
    "jacobi_halo_64": jacobi_halo_64,
    "observed_report": observed_report,
}
