"""Best-of-rounds host timing for one workload.

The estimator (README.md has the measured noise model behind it): repeat the
workload's whole part list in a closed loop -- one process, one thread, GC
left on (and run to completion between parts, untimed) -- until the window has elapsed and at least ``MIN_ROUNDS`` rounds
have run; each part's time is its *minimum* over the rounds and ``wall_s`` is
the sum of the part minima.  Between rounds a frozen pure-Python sentinel is
timed (diagnostics only) and a fresh child interpreter times set-up;
``setup_s`` is the minimum child time.  Every part execution is checked, and
its fingerprint must equal the first round's.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.perf.sentinel import sentinel
from benchmarks.perf.workloads import ROOT, Outcome, Workload

DEFAULT_WINDOW_S = 20.0
MIN_ROUNDS = 6
#: set-up children are spread over the window, at most this many
MAX_CHILDREN = 10
#: a round slower than this multiple of the best round counts as "slow"
SLOW_ROUND_FACTOR = 1.2

_CHILD = Path(__file__).with_name("setup_child.py")


def child_env() -> Dict[str, str]:
    """Environment of the set-up children: the repo's ``src`` importable,
    string hashing pinned like the parent's."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_setup_child(what: str) -> Tuple[float, str]:
    """Spawn one fresh interpreter running ``setup_child.py <what>`` and wait
    for it; returns (seconds from spawn to exit, its stdout)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(_CHILD), what], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=True, timeout=150,
    )
    return time.perf_counter() - start, done.stdout


def check_outcome(outcome: Outcome) -> List[str]:
    """Reasons this part execution failed (empty when it is correct)."""
    reasons = []
    t = outcome.sim_time_us
    if t is not None and not (math.isfinite(t) and t > 0):
        reasons.append(f"modelled time {t!r} is not finite and positive")
    counters = outcome.counters
    for key, sent in counters.items():
        for suffix, twin in ((".send", ".recv"), (".send_device", ".recv_device")):
            if key.endswith(suffix):
                got = counters.get(key[: -len(suffix)] + twin)
                if got is not None and got != sent:
                    reasons.append(f"{key}={sent} but {twin[1:]}={got}")
    if not outcome.conserved:
        reasons.append("application bytes not conserved")
    return reasons


@dataclass
class Round:
    """One pass over a workload's parts."""

    times: List[float]
    fingerprints: List[Optional[Tuple]]
    failures: List[str]
    sim_time_us: float = 0.0
    events: int = 0
    counters: Dict[str, int] = field(default_factory=dict)


def run_round(
    workload: Workload,
    reference: Optional[List[Optional[Tuple]]] = None,
    observe: bool = False,
    on_outcome: Optional[Callable[[Outcome], None]] = None,
) -> Round:
    """Run every part once, timing and checking each.  ``reference`` is the
    first round's fingerprints; ``on_outcome`` sees each outcome (and its
    session) before it is dropped."""
    rnd = Round([], [], [])
    ctx: dict = {}
    for i, part in enumerate(workload.parts):
        # Garbage of earlier parts and rounds (sessions are cyclic) would
        # make later ones slower; collect it outside the timed region so
        # every execution of a part starts from the same heap.  The
        # collector stays enabled while the part runs.
        gc.collect()
        start = time.perf_counter()
        try:
            outcome = part.run(ctx, observe)
        except Exception:  # a failed op is counted, the run goes on
            rnd.times.append(time.perf_counter() - start)
            rnd.fingerprints.append(None)
            rnd.failures.append(f"{part.name}: raised\n{traceback.format_exc()}")
            continue
        rnd.times.append(time.perf_counter() - start - outcome.check_s)
        fingerprint = outcome.fingerprint()
        rnd.fingerprints.append(fingerprint)
        reasons = check_outcome(outcome)
        if reference is not None and fingerprint != reference[i]:
            reasons.append("fingerprint differs from the first round")
        if reasons:
            rnd.failures.append(f"{part.name}: " + "; ".join(reasons))
        rnd.sim_time_us += outcome.sim_time_us or 0.0
        rnd.events += outcome.events
        for key, n in outcome.counters.items():
            rnd.counters[key] = rnd.counters.get(key, 0) + n
        if on_outcome is not None:
            on_outcome(outcome)
        del outcome  # or its session would outlive the next collection
    return rnd


@dataclass
class Measurement:
    workload: Workload
    first: Round                      # the reference round
    part_min: List[float]
    round_times: List[float]          # timed rounds only
    setup_times: List[float]
    sentinel_times: List[float]
    attempted: int
    failures: List[str]

    @property
    def wall_s(self) -> float:
        return sum(self.part_min)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "wall_s": (self.wall_s, "s"),
            "msgs_per_s": (self.workload.messages / self.wall_s, "msg/s"),
            "setup_s": (min(self.setup_times), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    def noise(self) -> Dict[str, Tuple[float, str]]:
        """Diagnostics that tell a noisy verdict from a real change."""
        samples = self.sentinel_times
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = 100.0 * (q3 - q1) / statistics.median(samples)
        else:
            spread = 0.0
        best = min(self.round_times)
        slow = sum(t > SLOW_ROUND_FACTOR * best for t in self.round_times)
        return {
            "noise.probe_spread_pct": (spread, "%"),
            "noise.slow_round_share": (100.0 * slow / len(self.round_times), "%"),
            "noise.rounds": (len(self.round_times), "count"),
        }


def measure(
    workload: Workload,
    window_s: float = DEFAULT_WINDOW_S,
    rounds: Optional[int] = None,
    children: bool = True,
) -> Measurement:
    """Time ``workload`` by the best-of-rounds estimator.

    One untimed warm-up round sets the reference fingerprints, then rounds
    repeat until ``window_s`` has elapsed and ``MIN_ROUNDS`` have run.  With
    ``rounds`` given (smoke tests, the trace run's plain rounds) exactly that
    many rounds run instead, the first doubling as the reference.
    """
    min_rounds = MIN_ROUNDS
    if rounds is not None:
        window_s, min_rounds = 0.0, rounds
    n_parts = len(workload.parts)
    part_min = [math.inf] * n_parts
    round_times: List[float] = []
    setup_times: List[float] = []
    sentinel_times: List[float] = []
    failures: List[str] = []
    attempted = 0

    def account(rnd: Round, timed: bool) -> None:
        nonlocal attempted
        attempted += n_parts
        failures.extend(rnd.failures)
        if timed:
            for i, t in enumerate(rnd.times):
                part_min[i] = min(part_min[i], t)
            round_times.append(sum(rnd.times))

    first = run_round(workload)
    account(first, timed=rounds is not None)
    start = time.perf_counter()
    last_child = -math.inf
    while True:
        now = time.perf_counter() - start
        if children and now - last_child >= window_s / MAX_CHILDREN:
            setup_times.append(run_setup_child(workload.name)[0])
            last_child = now
        sentinel_times.append(sentinel())
        if now >= window_s and len(round_times) >= min_rounds:
            break
        account(run_round(workload, first.fingerprints), timed=True)

    return Measurement(workload, first, part_min, round_times, setup_times,
                       sentinel_times, attempted, failures)
