"""Single-layer probes of the trace run.

Each probe drives one layer from outside through its public surface and
reports host time per operation (the best of a few repeats), a count, or a
modelled-time figure.  They are the same on every workload: a workload's
trace prints the whole panel so that every per-layer metric is present in
every trace.  README.md maps each probe to the end-to-end metric it should
move.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from benchmarks.perf import workloads
from benchmarks.perf.harness import run_round, run_setup_child

Metrics = Dict[str, Tuple[float, str]]

_ANCHORS = Path(__file__).with_name("anchors.json")


def best_of(fn: Callable[[], float], repeats: int = 3) -> float:
    """Smallest of ``repeats`` results of ``fn`` (which times itself)."""
    return min(fn() for _ in range(repeats))


def timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_time(fn: Callable[[], object], repeats: int = 3) -> float:
    """Smallest host time of ``repeats`` calls of ``fn``."""
    return best_of(lambda: timed(fn), repeats)


# -- sim -----------------------------------------------------------------------
def _engine_fire_us(pending: int, fires: int = 40_000) -> float:
    """Host microseconds per fired event with ``pending`` events on the
    agenda: every callback schedules its successor at a pseudo-random delay."""
    from repro.sim import Simulator

    sim = Simulator()
    state = [12345, fires]

    def tick():
        if state[1] > 0:
            state[1] -= 1
            x = state[0] = (state[0] * 1103515245 + 12345) & 0x7FFFFFFF
            sim.schedule(1e-6 + (x & 4095) * 1e-9, tick)

    state[1] += pending
    for _ in range(pending):
        tick()
    elapsed = timed(sim.run)
    return elapsed / sim.event_count * 1e6


def _engine_cancel_us(fires: int = 20_000) -> float:
    """Host microseconds per event that arms a far timer and cancels the
    previous one (the retransmit-timer pattern), 1k timers pending."""
    from repro.sim import Simulator

    sim = Simulator()
    state = [fires, None]

    def noop():
        pass

    def tick():
        if state[1] is not None:
            state[1].cancel()
        if state[0] > 0:
            state[0] -= 1
            state[1] = sim.schedule(1e-3, noop)
            sim.schedule(1e-6, tick)

    for i in range(1000):
        sim.schedule(1.0 + i * 1e-6, noop)
    tick()
    return timed(sim.run) / fires * 1e6


def sim_probes() -> Metrics:
    return {
        "sim.engine.fire_us": (best_of(lambda: _engine_fire_us(1_000)), "us"),
        "sim.engine.fire_deep_us": (best_of(lambda: _engine_fire_us(32_000)), "us"),
        "sim.engine.cancel_us": (best_of(_engine_cancel_us), "us"),
    }


# -- hardware ------------------------------------------------------------------
def _machine(nodes: int, pool: bool = False):
    import repro.api as api
    from repro.config import MachineConfig

    return (api.session(MachineConfig.summit(nodes=nodes).with_virtual_payload())
            .pool(pool).build().machine)


def _route_us() -> Tuple[float, float]:
    """(cold, warm) host microseconds per ``Machine.route`` at 64 nodes:
    first touch of 1920 GPU pairs, then the memoised repeat."""
    machine = _machine(64)
    n = machine.cfg.topology.total_gpus
    locs = [machine.device_location(g) for g in range(n)]
    pairs = [(locs[i], locs[(i + step) % n])
             for i in range(n) for step in (1, 6, 37, 100, 191)]

    def sweep():
        for src, dst in pairs:
            machine.route(src, dst)

    cold = timed(sweep)
    warm = best_time(sweep)
    return cold / len(pairs) * 1e6, warm / len(pairs) * 1e6


def _alloc_free_us(pool: bool, ops: int = 4_000) -> float:
    """Host microseconds per device alloc+free pair, sizes cycling over
    4 KB..1 MB with eight buffers live."""
    machine = _machine(2, pool)
    live: List = []

    def churn():
        for i in range(ops):
            live.append(machine.alloc_device(i % 6, 4096 << (i % 9)))
            if len(live) > 8:
                machine.free_device(live.pop(0))
        while live:
            machine.free_device(live.pop())

    return best_time(churn) / ops * 1e6


def hardware_probes() -> Metrics:
    cold, warm = zip(*(_route_us() for _ in range(3)))
    return {
        "hardware.route_cold_us": (min(cold), "us"),
        "hardware.route_warm_us": (min(warm), "us"),
        "hardware.alloc_free_us.direct": (_alloc_free_us(False), "us"),
        "hardware.alloc_free_us.pool": (_alloc_free_us(True), "us"),
    }


# -- core ----------------------------------------------------------------------
def _matchq_us(order: str, depth: int = 1_000) -> float:
    """Host microseconds per post+match on the indexed matching queue at
    ``depth``: exact tags matched in posting order, in reverse order, or
    wildcard entries (each accepting one tag) matched in reverse order."""
    from repro.core.matchq import IndexedMatchQueue

    tags = range(depth) if order == "inorder" else range(depth - 1, -1, -1)

    def once():
        queue = IndexedMatchQueue()
        for tag in range(depth):
            queue.append(tag, None if order == "wildcard" else tag)
        for tag in tags:
            item, _scanned = queue.match(tag, lambda posted: posted == tag)
            if item != tag:
                raise RuntimeError(f"matchq {order}: tag {tag} matched {item}")

    return best_time(once) / depth * 1e6


def core_probes() -> Metrics:
    return {f"core.matchq.{order}_us": (_matchq_us(order), "us")
            for order in ("inorder", "reversed", "wildcard")}


# -- the four models -----------------------------------------------------------
def model_probes() -> Metrics:
    """``pingpong_small`` part minima (of two rounds) per model over that
    model's messages."""
    workload = workloads.pingpong_small(0)
    minima = [min(times) for times in
              zip(*(run_round(workload).times for _ in range(2)))]
    out: Metrics = {}
    for model in workloads.MODELS:
        parts = [(p, t) for p, t in zip(workload.parts, minima) if p.model == model]
        seconds = sum(t for _p, t in parts)
        out[f"{model}.host_us_per_msg"] = (
            seconds / sum(p.messages for p, _t in parts) * 1e6, "us")
    return out


# -- faults --------------------------------------------------------------------
def faults_probes(seed: int) -> Metrics:
    """Modelled-time cost of a lossy fabric (exact): the lossy
    ``shuffle_churn`` part over the clean part with the same allocator and
    endpoint cap."""
    workload = workloads.shuffle_churn(seed)
    by_name = {p.name: p for p in workload.parts}
    times = {}
    for name in ("ampi_pool_ep8", "ampi_pool_ep8_lossy"):
        times[name] = by_name[name].run({}, False).sim_time_us
    overhead = times["ampi_pool_ep8_lossy"] / times["ampi_pool_ep8"] - 1.0
    return {"faults.lossy_overhead_pct": (100.0 * overhead, "%")}


# -- obs -----------------------------------------------------------------------
def obs_probes() -> Metrics:
    """What observation costs on the ``observed_report`` simulation, and what
    its analyses and exports cost."""
    plain = best_time(lambda: workloads.observed_session(False), 2)
    on = export_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        sess, _result = workloads.observed_session(True)
        on = min(on, time.perf_counter() - start)
    analyse_s = best_time(lambda: workloads.analyse(sess), 2)
    for _ in range(2):
        start = time.perf_counter()
        sizes, check_s = workloads.export(sess)
        export_s = min(export_s, time.perf_counter() - start - check_s)
    return {
        "obs.on_overhead_pct": (100.0 * (on / plain - 1.0), "%"),
        "obs.analyse_s": (analyse_s, "s"),
        "obs.export_s": (export_s, "s"),
        "obs.spans": (sizes[1], "count"),
        "obs.flight_records": (sess.flight_summary()["n_records"], "count"),
    }


# -- api -----------------------------------------------------------------------
def api_probes() -> Metrics:
    """The split behind ``setup_s``, each the best of three fresh children."""
    splits = [json.loads(run_setup_child("api")[1]) for _ in range(3)]
    units = {"api.import_s": "s", "api.build_ms.n2": "ms", "api.build_ms.n64": "ms"}
    return {name: (min(s[name] for s in splits), unit)
            for name, unit in units.items()}


# -- fidelity ------------------------------------------------------------------
def _measure_anchor(anchor: dict) -> float:
    import repro.api as api
    from repro.apps.osu.runner import run_bandwidth, run_latency
    from repro.config import MB, MachineConfig

    model, placement = anchor["model"], anchor["placement"]
    if anchor["kind"] == "peak_bw":
        return run_bandwidth(model, 4 * MB, placement, True) / 1e9
    if anchor["kind"] == "eager_speedup":
        return (run_latency(model, 8, placement, False)
                / run_latency(model, 8, placement, True))
    # non_ucx_overhead: per-device-message CPU time outside the ucx categories
    sess = api.session(MachineConfig.summit(nodes=2)).model(model).trace().build()
    run_latency(model, 8, placement, True, session=sess)
    snap = sess.metrics_snapshot()
    outside = sum(t for cat, t in snap["time_by_category"].items()
                  if not cat.startswith("ucx"))
    return outside / snap["counters"]["converse.send_device"] * 1e6


def fidelity_probes() -> Metrics:
    """Mean relative error over the nine frozen paper anchors.  The model is
    calibrated to these anchors, not validated against them."""
    anchors = json.loads(_ANCHORS.read_text())["anchors"]
    errors = [abs(_measure_anchor(a) - a["paper"]) / a["paper"] for a in anchors]
    return {"fidelity.anchor_err_pct": (100.0 * sum(errors) / len(errors), "%")}


# -- collectives ---------------------------------------------------------------
def collectives_probes() -> Metrics:
    """Host milliseconds of one 64-rank 1 MB hierarchical device allreduce
    (the ``coll_allreduce_ampi_64r_1M_hier`` shape of BENCH_baseline.json).
    No timed workload runs collectives; this makes a regression there visible."""
    import repro.api as api
    from repro.config import MachineConfig

    nbytes = 1 << 20

    def program(rank):
        buf = rank.charm.cuda.malloc(rank.gpu, nbytes)
        yield from rank.allreduce_device(buf, nbytes)

    def once():
        cfg = MachineConfig.summit(nodes=11).with_virtual_payload()
        sess = api.session(cfg).model("ampi").ranks(64).build()
        sess.run_until(sess.launch(program), max_events=200_000_000)

    return {"collectives.allreduce_64r_host_ms":
            (best_time(once, 2) * 1e3, "ms")}


def all_probes(seed: int) -> Metrics:
    out: Metrics = {}
    for probes in (sim_probes, hardware_probes, core_probes, model_probes,
                   obs_probes, api_probes, fidelity_probes, collectives_probes):
        out.update(probes())
    out.update(faults_probes(seed))
    return out
