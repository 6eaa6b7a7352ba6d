"""Noise sentinel: a frozen pure-Python probe timed between rounds.

It touches no simulator code (never import it from ``src/``), so its time
moves only with the host.  It is a *diagnostic*: ``wall_s`` is never
normalised by it, because the host's slow plateau costs different code
1.26x-1.43x (measured), which makes a ratio worse than the minimum.
Do not edit the loop: its cost is the reference later runs compare against.
"""

from __future__ import annotations

import time

_STEPS = 40_000
_EXPECTED = 2_871_863


def _work() -> int:
    x = 12345
    acc = 0
    buckets = [0] * 64
    for _ in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        buckets[x & 63] += 1
        acc ^= x >> 7
    return acc + buckets[17]


def sentinel() -> float:
    """Seconds one execution of the frozen probe took."""
    start = time.perf_counter()
    value = _work()
    elapsed = time.perf_counter() - start
    if value != _EXPECTED:
        raise RuntimeError(f"noise sentinel computed {value}, not {_EXPECTED}")
    return elapsed
