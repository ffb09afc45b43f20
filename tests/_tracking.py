"""Root tracking for the test oracles: the exhaustive minimal-distance match,
level data whose roots follow those of a nearby point, the angles of level
data of either minor convention, and the chart data of a point computed
eagerly, without the point's memo."""

import itertools
from typing import NamedTuple

import numpy as np

from gztower import orbits
from gztower.orbits import (
    DEFAULT_MINOR_CONVENTION,
    ChartDerivatives,
    LevelData,
    level_data,
)


def match_loop(base, new):
    """Minimal-total-distance reordering by a loop over all permutations."""
    assert len(base) == len(new)
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(len(base))):
        cost = sum(abs(base[i] - new[perm[i]]) for i in range(len(base)))
        if cost < best_cost:
            best, best_cost = perm, cost
    return new[list(best)]


def chart_thetas(lv):
    """theta[n] = log(-C_n(gamma[n]) / A_(n-1)(gamma[n])), n = 1..N-1, from the
    roots of the level data lv, C_n = lead prod(lam - e[n]) and A_(n-1) =
    prod(lam - gamma[n-1]), as gz_forward takes them for the default
    convention."""
    prod = lambda x, roots: np.prod(np.subtract.outer(x, roots), axis=1)
    prev = [np.zeros(0, dtype=complex)] + list(lv.gamma)
    return [np.log(-c[0] * prod(g, e) / prod(g, p))
            for g, c, e, p in zip(lv.gamma, lv.c, lv.e, prev)]


def tracked_level_data(u, convention, base):
    """level_data at u, each root set reordered by match_loop to follow the
    matching one of base, a LevelData; sorted when base is None."""
    lv = level_data(u, convention)
    if base is None:
        return lv
    follow = lambda refs, sets: [match_loop(ref, x) for ref, x in zip(refs, sets)]
    return LevelData(a=lv.a, gamma=follow(base.gamma, lv.gamma), c=lv.c,
                     e=follow(base.e, lv.e))


class EagerChart(NamedTuple):
    """What OrbitPoint memoizes per convention, computed at once."""

    levels: LevelData
    derivatives: ChartDerivatives
    divisors: tuple
    conditioning: dict


def eager_derivatives(u, convention=DEFAULT_MINOR_CONVENTION):
    """The levels, derivatives, divisors and conditioning of a point at u in
    the convention, from scratch: the convention's own level_data, the root
    gradients of all 2N-1 minors at their roots, and the conditioning."""
    N = u.shape[0]
    lv = level_data(u, convention)
    minors = orbits._level_minors(N, convention.rows_variant)
    grads, conds = orbits._root_gradients(u, minors, lv.gamma + lv.e)
    d = ChartDerivatives(u=u, minors=minors, punctures=lv.gamma, gamma=grads[:N],
                         gamma_conditions=conds[:N],
                         c_at_gamma=orbits._log_minors(u, minors[N:], lv.gamma),
                         a_at_gamma=orbits._log_minors(u, minors[:N - 2], lv.gamma[1:]))

    def least_gap(pairs):
        gaps = [float(np.min(np.abs(np.subtract.outer(a, b))))
                for a, b in pairs if a.size and b.size]
        return min(gaps) if gaps else None

    conditioning = {
        "min_divisor_gap": least_gap(zip(lv.e, lv.gamma)),
        "min_level_gap": least_gap(zip(lv.gamma, lv.gamma[1:])),
        "max_root_condition": float(np.max(np.concatenate(conds))),
    }
    return EagerChart(lv, d, (grads[N:], conds[N:]), conditioning)
