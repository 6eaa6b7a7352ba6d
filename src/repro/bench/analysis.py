"""Analysis helpers over measured series: crossovers.

:func:`crossover` is the message size where one curve overtakes another
(e.g. where host staging's fixed costs stop dominating); tests use it to
assert curve *shapes* rather than individual points.  A curve's startup
latency and bandwidth need no fit: :mod:`repro.cost` states each point's
terms exactly.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.bench.reporting import Series


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
