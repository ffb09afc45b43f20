"""Root tracking for the test oracles: the exhaustive minimal-distance match,
level data whose roots follow those of a nearby point, and the angles of
level data of either minor convention."""

import itertools

import numpy as np

from gztower.orbits import LevelData, level_data


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
    level data lv, as gz_forward takes them for the default convention."""
    return [np.log(-np.polyval(c, g) / np.polyval(a, g))
            for g, c, a in zip(lv.gamma, lv.c, lv.a)]


def tracked_level_data(u, convention, base):
    """level_data at u, each root set reordered by match_loop to follow the
    matching one of base, a LevelData; sorted when base is None."""
    lv = level_data(u, convention)
    if base is None:
        return lv
    follow = lambda refs, sets: [match_loop(ref, x) for ref, x in zip(refs, sets)]
    return LevelData(a=lv.a, gamma=follow(base.gamma, lv.gamma), c=lv.c,
                     e=follow(base.e, lv.e))
