"""Root tracking for the test oracles: the exhaustive minimal-distance match,
the R_N spectra, level data whose roots follow those of a nearby point,
e-points refined in long double, the angles of level data with either
orientation of the lowering minors, the coefficients of one lowering minor,
the gradient of one action, and the chart data of a point computed eagerly,
without the point's memo."""

import itertools
from typing import NamedTuple

import numpy as np

from gztower import orbits, tower
from gztower.orbits import LevelData, OrbitPoint, level_data
from gztower.polytools import lambda_minor_det


def match_loop(base, new):
    """Minimal-total-distance reordering by a loop over all permutations."""
    assert len(base) == len(new)
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(len(base))):
        cost = sum(abs(base[i] - new[perm[i]]) for i in range(len(base)))
        if cost < best_cost:
            best, best_cost = perm, cost
    return new[list(best)]


def chart_thetas(lv, cols_of=None):
    """theta[n] = log(-C_n(gamma[n]) / A_(n-1)(gamma[n])), n = 1..N-1, from the
    roots of the level data lv, C_n = lead prod(lam - e[n]) and A_(n-1) =
    prod(lam - gamma[n-1]), as gz_forward takes them.  With a matrix cols_of,
    C_n(gamma[n]) is instead the transposed lowering minor of cols_of, as a
    direct determinant at each puncture."""
    prod = lambda x, roots: np.prod(np.subtract.outer(x, roots), axis=1)
    prev = [np.zeros(0, dtype=complex)] + list(lv.gamma)
    if cols_of is None:
        c = [c[0] * prod(g, e) for g, c, e in zip(lv.gamma, lv.c, lv.e)]
    else:
        N = len(cols_of)
        c = [orbits._minor_at(cols_of, minor, g)
             for minor, g in zip(orbits._level_minors(N, False)[N:], lv.gamma)]
    return [np.log(-cg / prod(g, p)) for cg, g, p in zip(c, lv.gamma, prev)]


def lowering_minor_coeffs(u, n):
    """Coefficients of C_n(lam), highest first, degree n-1 in lam (0-based u):
    one lambda_minor_det on the rows and columns that level data take."""
    return lambda_minor_det(u, *orbits._level_minors(n + 1)[-1])


def action_gradient(pt, selector):
    """(grad h)[i,j] = dh/du[j,i] for the action h = h[n,k] at pt: V diag(D[:,
    k-1]) V^-1 from the eigenbasis of u_n, embedded in the top-left n x n
    block, as action_angle_bracket_table takes it."""
    n, k = selector
    out = np.zeros((pt.n, pt.n), dtype=complex)
    V, Vinv, D = tower._eigen_actions(pt.u[:n, :n], n)
    out[:n, :n] = (V * D[:, k - 1]) @ Vinv
    return out


def r_spectrum(N):
    """R_N: the first N draws of complex(*rng.uniform(-1.5, 1.5, 2)), rng =
    default_rng(5), each kept when at least 0.35 from every kept one, and
    rounded to three decimals as the command line takes them."""
    rng, kept = np.random.default_rng(5), []
    while len(kept) < N:
        z = complex(*rng.uniform(-1.5, 1.5, 2))
        if all(abs(z - k) >= 0.35 for k in kept):
            kept.append(z)
    return [complex(f"{z.real:.3f}{z.imag:+.3f}j") for z in kept]


def tracked_level_data(u, base):
    """level_data at u, each root set reordered by match_loop to follow the
    matching one of base, a LevelData; sorted when base is None."""
    lv = level_data(u)
    if base is None:
        return lv
    follow = lambda refs, sets: [match_loop(ref, x) for ref, x in zip(refs, sets)]
    return LevelData(a=lv.a, gamma=follow(base.gamma, lv.gamma), c=lv.c,
                     e=follow(base.e, lv.e))


def _inverse(m):
    """Gauss-Jordan inverse with partial pivoting in m's own dtype: numpy's
    linalg takes no long double."""
    n = len(m)
    a = np.concatenate([m, np.eye(n, dtype=m.dtype)], axis=1)
    for c in range(n):
        p = c + int(np.argmax(np.abs(a[c:, c])))
        a[[c, p]] = a[[p, c]]
        a[c] /= a[c, c]
        for r in range(n):
            if r != c:
                a[r] -= a[r, c] * a[c]
    return a[:, n:]


def polished_e_points(u, lv):
    """lv with each e-point after one Newton step on det(lam - K_n) in long
    double, K_n = u_(n-1) - outer(u[:n-1, n-1], u[n, :n-1]) / u[n, n-1] the
    Schur complement whose eigenvalues level_data takes.  Near a puncture
    the log of e - gamma amplifies the float64 error of e, about
    eps |K_n| cond(e); on x86 the step leaves about eps |e|."""
    ul = u.astype(np.clongdouble)
    out = []
    for n, e in enumerate(lv.e, start=1):
        e = e.astype(np.clongdouble)
        K = ul[:n - 1, :n - 1] - np.outer(ul[:n - 1, n - 1], ul[n, :n - 1]) / ul[n, n - 1]
        for i in range(len(e)):
            with np.errstate(all="ignore"):
                step = 1 / np.trace(_inverse(e[i] * np.eye(n - 1) - K))
            if np.isfinite(step):
                e[i] -= step
        out.append(e.astype(complex))
    return lv._replace(e=out)


class EagerChart(NamedTuple):
    """What OrbitPoint memoizes, computed at once."""

    levels: LevelData
    punctures: tuple
    c_at_gamma: list
    a_at_gamma: list
    divisors: tuple
    conditioning: dict


def eager_derivatives(u):
    """The levels, puncture gradients, log-minors at gamma, divisors and
    conditioning of a point at u, from scratch: level_data, the root
    gradients of all 2N-1 minors at their roots, and the conditioning."""
    N = u.shape[0]
    lv = level_data(u)
    minors = orbits._level_minors(N)
    grads, conds = orbits._root_gradients(u, minors, lv.gamma + lv.e)

    def least_gap(pairs):
        gaps = [float(np.min(np.abs(np.subtract.outer(a, b))))
                for a, b in pairs if a.size and b.size]
        return min(gaps) if gaps else None

    conditioning = {
        "min_divisor_gap": least_gap(zip(lv.e, lv.gamma)),
        "min_level_gap": least_gap(zip(lv.gamma, lv.gamma[1:])),
        "max_root_condition": float(np.max(np.concatenate(conds))),
    }
    return EagerChart(lv, (grads[:N], conds[:N]),
                      orbits._log_minors(u, minors[N:], lv.gamma),
                      orbits._log_minors(u, minors[:N - 2], lv.gamma[1:]),
                      (grads[N:], conds[N:]), conditioning)


def eager_point(u, rows=True):
    """An OrbitPoint at u whose memo holds the gradients of gamma and the
    log-minors at gamma of eager_derivatives, those of C_n with rows False
    of the transposed minors, so theta and the sweep read what was computed
    at once."""
    eager, N = eager_derivatives(u), u.shape[0]
    c = eager.c_at_gamma if rows else orbits._log_minors(
        u, orbits._level_minors(N, False)[N:], eager.levels.gamma)
    pt = OrbitPoint(u=u, spectrum=eager.levels.gamma[-1])
    # through _memoized, so the entries are frozen like any other
    for key, value in {"punctures": eager.punctures, "a_at_gamma": eager.a_at_gamma,
                       ("c_at_gamma", rows): c}.items():
        pt._memoized(key, lambda value=value: value)
    return pt
