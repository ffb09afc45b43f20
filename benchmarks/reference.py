"""A fixed piece of interpreter work, timed to follow the machine's speed.

The host shares its cores with other tenants, and while they are busy the
same work runs up to 1.6x slower for seconds to minutes at a time.  Timing
this fixed work next to each operation measures that speed, so a run's
latencies can be divided by it.  The work mixes what the gztower layers do:
Fraction arithmetic into a dict keyed by sorted tuples (the exact layers)
and small numpy polynomial products and roots (the numeric layers).
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def work() -> float:
    acc: dict[tuple, Fraction] = {}
    for i in range(1, 7500):
        key = tuple(sorted(((i * 7) % 13, (i * 5) % 11, i % 3)))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 2)
    poly = np.array([1.0, 0.5 + 0.25j, -1.0])
    for _ in range(1200):
        prod = np.polymul(poly, [1.0, -0.5j])
        poly = np.roots(prod)[:2].sum() * 1e-3 + np.array([1.0, 0.5 + 0.25j, -1.0])
    return float(sum(acc.values())) + abs(poly[1])


def seconds() -> float:
    """Wall seconds for one call of work()."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
