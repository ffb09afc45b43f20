"""Small numeric helpers for lambda-polynomials attached to a matrix.

Polynomials are numpy coefficient arrays, highest degree first (the
numpy.roots convention).  Matrix indices here are 0-based.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = [
    "lambda_minor_det", "principal_charpoly", "roots_polished",
    "sort_points", "match_points", "min_pairwise_gap", "TrackingError",
]


class TrackingError(RuntimeError):
    """Root tracking between nearby configurations is ambiguous."""


def lambda_minor_det(u: np.ndarray, rows: list[int], cols: list[int]) -> np.ndarray:
    """Coefficients of det of the (lam*Id - u) submatrix on rows x cols.

    lam sits where the global row and column agree: the minor is
    det(lam*P - S), P[i, j] = [rows[i] == cols[j]], S = u[rows, cols], of
    degree <= d = P.sum().  One batched det evaluates it at r*w**j, j = 0..d,
    w = exp(2*pi*i/(d+1)), and an FFT interpolates.  r follows the roots as
    u scales: it is the spectral radius of S11 - S12 S22^+ S21 (S11 carries
    lam, S22 does not, ^+ is the pseudo-inverse), or 1.0 if that is 0.
    Always returns exactly d+1 coefficients, highest first; the leading one
    is 0 (up to round-off) when the degree drops below d.
    """
    assert len(cols) == len(rows) >= 1
    sub = np.asarray(u, dtype=complex)[np.ix_(rows, cols)]
    P = np.equal.outer(rows, cols)
    d = int(P.sum())
    i, j = np.nonzero(P)
    blk = sub[np.ix_(i, j)]
    if d < len(rows):
        ro, co = ~P.any(axis=1), ~P.any(axis=0)
        blk = blk - sub[np.ix_(i, co)] @ np.linalg.lstsq(
            sub[np.ix_(ro, co)], sub[np.ix_(ro, j)])[0]
    r = float(np.max(np.abs(np.linalg.eigvals(blk)), initial=0.0)) or 1.0
    lam = r * np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    vals = np.linalg.det(lam[:, None, None] * P - sub)
    return (np.fft.fft(vals) / (d + 1) / r ** np.arange(d + 1))[::-1]


def principal_charpoly(u: np.ndarray, k: int) -> np.ndarray:
    """Characteristic polynomial of the top-left k x k block, monic."""
    idx = list(range(k))
    return lambda_minor_det(u, idx, idx)


def roots_polished(coeffs: np.ndarray, iters: int = 6) -> np.ndarray:
    """Companion-matrix roots refined by a few Newton steps."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) <= 1:
        return np.zeros(0, dtype=complex)
    roots = np.roots(coeffs)
    deriv = np.polyder(coeffs)
    for _ in range(iters):
        vals = np.polyval(coeffs, roots)
        dvals = np.polyval(deriv, roots)
        safe = np.abs(dvals) > 1e-300
        step = np.where(safe, vals / np.where(safe, dvals, 1.0), 0.0)
        roots = roots - step
    return roots


def sort_points(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points.imag, points.real))
    return points[order]


def min_pairwise_gap(points: np.ndarray) -> float:
    if len(points) < 2:
        return np.inf
    return min(abs(a - b) for a, b in itertools.combinations(points, 2))


@functools.lru_cache(maxsize=None)
def _permutation_table(k: int) -> np.ndarray:
    """Every permutation of range(k) as a column, in itertools order."""
    table = np.array(list(itertools.permutations(range(k))), dtype=np.intp).T
    table.setflags(write=False)
    return table


def match_points(base: np.ndarray, new: np.ndarray,
                 collision_dist: float | None = None) -> np.ndarray:
    """Reorder `new` to follow `base` by minimal-total-distance assignment.

    Exact: the costs of all k! permutations come from one numpy reduction
    over a cached permutation table, summed in index order, and the first
    minimal permutation in itertools order wins.  If requested, raise
    TrackingError when two candidates approach within collision_dist.
    """
    base = np.asarray(base)
    new = np.asarray(new)
    if len(base) != len(new):
        raise TrackingError("point counts differ between configurations")
    if collision_dist is not None and min_pairwise_gap(new) < collision_dist:
        raise TrackingError("points closer than the tracking resolution")
    k = len(base)
    if k <= 1:
        return new.copy()
    table = _permutation_table(k)
    cost = np.abs(base[:, None] - new[table]).sum(axis=0)
    return new[table[:, np.argmin(cost)]]
