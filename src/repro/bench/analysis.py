"""Analysis helpers over measured series: alpha-beta fits, crossovers.

Turns the benchmark outputs into the quantities papers talk about:

* :func:`fit_alpha_beta` — least-squares fit of ``t(s) = alpha + s/beta``
  to a latency series, recovering effective startup latency and bandwidth
  (the LogP-style summary of a curve);
* :func:`crossover` — the message size where one curve overtakes another
  (e.g. where host staging's fixed costs stop dominating).

Used by tests to assert curve *shapes* rather than individual points.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.bench.reporting import Series


def fit_alpha_beta(series: Series) -> Tuple[float, float]:
    """Least-squares fit of ``t = alpha + size/beta`` to a latency series
    (x in bytes, y in **seconds**).  Returns ``(alpha_seconds, beta_bytes_per_s)``.

    The fit weights all points equally in linear space, so large-message
    points dominate beta and small-message points pin alpha — which is the
    conventional reading of such curves.
    """
    if len(series.points) < 2:
        raise ValueError("need at least two points to fit")
    x = np.asarray(series.xs, dtype=float)
    y = np.asarray(series.ys, dtype=float)
    slope, alpha = np.polyfit(x, y, 1)
    if slope <= 0:
        raise ValueError("series is not increasing with size; cannot fit beta")
    return float(alpha), float(1.0 / slope)


def crossover(a: Series, b: Series) -> Optional[float]:
    """Smallest shared x where ``a`` stops exceeding ``b`` (None if never).

    Interpolates in log-x between the bracketing points, which matches how
    one reads crossovers off a log-scale figure.
    """
    shared = sorted(set(a.xs) & set(b.xs))
    if not shared:
        raise ValueError("series share no x values")
    prev = None
    for x in shared:
        diff = a.at(x) - b.at(x)
        if diff <= 0:
            if prev is None:
                return float(x)
            px, pdiff = prev
            if pdiff == diff:
                return float(x)
            # linear interpolation of the sign change in log-x
            frac = pdiff / (pdiff - diff)
            return float(math.exp(
                math.log(px) + frac * (math.log(x) - math.log(px))
            ))
        prev = (x, diff)
    return None
