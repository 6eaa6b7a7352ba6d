"""The traced run: per-layer metrics of one workload, taken from outside.

Untimed for the end-to-end metrics (those come from ``harness.measure`` with
nothing attached).  Four steps:

1. two plain rounds -- events, counters, modelled time, the best untraced
   round and the noise diagnostics;
2. one round under ``cProfile``, aggregated by ``src/repro`` package:
   ``calls.<layer>`` (exact) and ``self_pct.<layer>``; its slowdown against
   the best plain round is ``trace.overhead_pct``;
3. one round on traced + flight-recorded sessions: modelled time per blame
   layer along the critical path, and the delayed-posting total;
4. the probe panel of ``probes.py``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Dict, List, Tuple

from benchmarks.perf import probes
from benchmarks.perf.harness import Round, measure, run_round
from benchmarks.perf.workloads import Outcome, Workload

Metrics = Dict[str, Tuple[float, str]]

#: the layers: the packages of ``src/repro`` (``api.py`` and ``config.py``
#: together are ``api_config``)
LAYERS = ("sim", "hardware", "ucx", "core", "converse", "charm", "ampi",
          "openmpi", "charm4py", "collectives", "faults", "obs", "apps",
          "api_config")

#: always-on ``Session.counters`` reported per workload (0 when absent)
COUNTERS = ("ucx.send", "ucx.unexpected_hit", "ucx.mapping_new",
            "ucx.mapping_hit", "ucx.ep_connect", "ucx.ep_evicted",
            "mem.pool_hit", "mem.pool_carve", "cuda_ipc.open_new",
            "fault.drop", "fault.retransmit")

#: ``Session.critical_path()`` blame layers; anything else (fault recovery,
#: collectives) is summed under ``other``
BLAME_LAYERS = ("model", "machine", "ucx_protocol", "matching",
                "host_metadata", "link", "uninstrumented")

#: plain rounds of a trace run (its length is set by its content, not by
#: ``--seconds``: one profiled round, one observed round, the probe panel)
PLAIN_ROUNDS = 2


def layer_of(filename: str) -> str:
    """The layer a profiled function's file belongs to, ``""`` outside
    ``src/repro`` (builtins, the standard library, this harness)."""
    _, sep, rest = filename.replace("\\", "/").rpartition("/repro/")
    if not sep:
        return ""
    head = rest.split("/", 1)[0]
    if head in ("api.py", "config.py"):
        return "api_config"
    return head if head in LAYERS else ""


def aggregate_profile(profile: cProfile.Profile) -> Metrics:
    """Fold a profile into per-layer call counts and self-time shares.

    A function defined in a layer's files counts its calls and self time
    there.  Self time of anything else (builtins, stdlib, NumPy) is charged
    to the layer of each direct caller, and what no layer called directly
    stays in ``self_pct.other`` -- so the shares sum to 100.
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer:
            calls[layer] += ncalls
            self_s[layer] += tottime
            continue
        charged = 0.0
        for (caller_file, _l, _n), (_nc, _cc2, caller_tt, _ct2) in callers.items():
            caller_layer = layer_of(caller_file)
            if caller_layer:
                self_s[caller_layer] += caller_tt
                charged += caller_tt
        self_s["other"] += tottime - charged
    total = sum(self_s.values())
    out: Metrics = {f"calls.{layer}": (calls[layer], "count") for layer in LAYERS}
    for layer, seconds in self_s.items():
        out[f"self_pct.{layer}"] = (100.0 * seconds / total, "%")
    return out


def profiled_round(workload: Workload, reference: List) -> Tuple[Round, Metrics, float]:
    """One round under cProfile: (round, layer metrics, host seconds)."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        rnd = run_round(workload, reference)
    finally:
        profile.disable()
    return rnd, aggregate_profile(profile), time.perf_counter() - start


def observed_round(workload: Workload, reference: List) -> Tuple[Round, Metrics]:
    """One round on traced sessions: modelled microseconds per blame layer
    along each part's critical path, summed over the parts."""
    blame = dict.fromkeys(BLAME_LAYERS + ("other",), 0.0)
    delayed_us = 0.0

    def collect(outcome: Outcome) -> None:
        nonlocal delayed_us
        sess = outcome.session
        if sess is None:
            return
        for layer, seconds in sess.critical_path().blame.items():
            blame[layer if layer in BLAME_LAYERS else "other"] += seconds * 1e6
        delayed_us += sess.flight_summary()["delayed_posting_seconds"] * 1e6

    rnd = run_round(workload, reference, observe=True, on_outcome=collect)
    out: Metrics = {f"blame_us.{layer}": (us, "sim_us") for layer, us in blame.items()}
    out["posting.delayed_us"] = (delayed_us, "sim_us")
    return rnd, out


def trace(workload: Workload, seed: int):
    """Every per-layer metric of ``workload``; returns (metrics, attempted,
    failures)."""
    plain = measure(workload, rounds=PLAIN_ROUNDS, children=False)
    reference = plain.first.fingerprints
    prof_round, metrics, prof_seconds = profiled_round(workload, reference)
    obs_round, blame = observed_round(workload, reference)

    first = plain.first
    metrics["sim.events"] = (first.events, "count")
    metrics["sim.time_us"] = (first.sim_time_us, "sim_us")
    metrics["sim.host_us_per_event"] = (plain.wall_s / first.events * 1e6, "us")
    for name in COUNTERS:
        metrics[name] = (first.counters.get(name, 0), "count")
    metrics.update(blame)
    metrics["trace.overhead_pct"] = (
        100.0 * (prof_seconds / min(plain.round_times) - 1.0), "%")
    metrics.update(plain.noise())
    metrics.update(probes.all_probes(seed))

    attempted = plain.attempted + 2 * len(workload.parts)
    failures = plain.failures + prof_round.failures + obs_round.failures
    return metrics, attempted, failures
