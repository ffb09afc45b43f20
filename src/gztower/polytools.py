"""Small numeric helpers for lambda-polynomials attached to a matrix.

Polynomials are numpy coefficient arrays, highest degree first (the
numpy.roots convention).  Matrix indices here are 0-based.  Level data come
from eigenvalues (orbits); the one-minor routines here are the tests' oracles,
and circle_coeffs gives the flow tracker its actions.  circle_coeffs
interpolates by a direct DFT against a cached matrix of roots of unity, so
no process of the package loads numpy.fft.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "circle_coeffs", "lambda_minor_det", "roots_polished", "sort_points",
    "match_points", "min_pairwise_gap", "TrackingError",
]


class TrackingError(RuntimeError):
    """A point match is not certified, or the point counts differ."""


def circle_coeffs(S: np.ndarray, P: np.ndarray, r: float) -> np.ndarray:
    """Coefficients of det(lam P - S), highest first, d+1 of them, d = P.sum().

    S may be one k x k block or a stack (..., k, k), and P is k x k.  The
    determinant is taken at the d+1 points r*w**j, w = exp(2*pi*i/(d+1)),
    in one stacked det, and interpolated by an inverse DFT; r > 0 should
    follow the size of the roots.  The leading coefficient is 0 up to
    round-off when the degree drops below d.  The DFT is a broadcast
    product with _dft_matrix summed over the sample axis, not a BLAS
    product, so each row of a stack is bit for bit the one-block call's.
    """
    d = int(np.sum(P))
    lams = r * np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    dets = np.linalg.det(lams[:, None, None] * P - np.asarray(S)[..., None, :, :])
    spectrum = (dets[..., :, None] * _dft_matrix(d + 1)).sum(axis=-2)
    return (spectrum / ((d + 1) * r ** np.arange(d + 1)))[..., ::-1]


@functools.lru_cache(maxsize=None)
def _dft_matrix(m: int) -> np.ndarray:
    """W[j, k] = exp(-2 pi i jk / m), read-only, once per size m; jk is
    reduced mod m first, so every entry is a root of unity to round-off."""
    W = np.exp(-2j * np.pi * (np.outer(np.arange(m), np.arange(m)) % m) / m)
    W.flags.writeable = False
    return W


def lambda_minor_det(u: np.ndarray, rows: list[int], cols: list[int]) -> np.ndarray:
    """Coefficients of det of the (lam*Id - u) submatrix on rows x cols (lam
    where the global row and column agree), d+1 of them, by circle_coeffs.

    P[i, j] = [rows[i] == cols[j]] and S = u[rows, cols].  The radius is
    half the spectral radius of S11 - S12 S22^+ S21, S11 the block of S that
    carries lam, S22 the block without it and ^+ the pseudo-inverse (for an
    invertible S22 its eigenvalues are the roots), or 1.0 when that is 0,
    so the circle follows the roots as u scales.  The coefficient of lam^k
    weighs r^k, and half the largest root keeps the small ones: up to
    degree 8 on sampled orbit points at scales 1e-2 to 1e2, it lost at most
    6e-12 of the largest coefficient against the eigenvalues of level_data,
    and the largest root itself 1e-10.
    """
    assert len(cols) == len(rows) >= 1
    P = np.equal.outer(list(rows), list(cols))
    S = np.asarray(u, dtype=complex)[np.ix_(rows, cols)]
    i, j = np.nonzero(P)
    ro, co = np.flatnonzero(~P.any(axis=1)), np.flatnonzero(~P.any(axis=0))
    schur = S[np.ix_(i, j)] - S[np.ix_(i, co)] @ np.linalg.pinv(S[np.ix_(ro, co)]) @ S[np.ix_(ro, j)]
    rho = float(np.max(np.abs(np.linalg.eigvals(schur)), initial=0.0))
    return circle_coeffs(S, P, rho / 2 or 1.0)


def roots_polished(coeffs: np.ndarray) -> np.ndarray:
    """numpy.roots refined by six Newton steps; a step that leaves
    floating-point range keeps the root before it."""
    coeffs = np.asarray(coeffs, dtype=complex)
    roots, deriv = np.roots(coeffs).astype(complex), np.polyder(coeffs)
    with np.errstate(all="ignore"):
        for _ in range(6):
            step = np.polyval(coeffs, roots) / np.polyval(deriv, roots)
            roots = np.where(np.isfinite(step), roots - step, roots)
    return roots


def sort_points(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points.imag, points.real))
    return points[order]


def min_pairwise_gap(points: np.ndarray) -> float:
    """Smallest |a - b| over distinct entries a, b; inf for fewer than two.

    hypot, unlike np.abs on a complex array, rounds like abs() of a scalar.
    """
    points = np.asarray(points, dtype=complex)
    if len(points) < 2:
        return np.inf
    diff = np.subtract.outer(points, points)
    gaps = np.hypot(diff.real, diff.imag)
    np.fill_diagonal(gaps, np.inf)
    return np.min(gaps)


def match_points(base: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Reorder `new` to follow `base`: each base point gets its nearest new point.

    The match is certified when every base point has its nearest new point
    within d_i < g/2, g the smallest gap of base.  Then the nearest
    neighbours are the unique minimal-total-distance assignment: any other
    one gives some set S of points the nearest neighbours of others, each at
    a distance above g - d_i - d_j, which sums to more than the sum of d_i
    over S.  Raises TrackingError when the match is not certified or the
    point counts differ.
    """
    base, new = np.asarray(base), np.asarray(new)
    if base.shape != new.shape:
        raise TrackingError("point counts differ between configurations")
    if len(base) == 0:
        return new.copy()
    diff = np.subtract.outer(base, new)
    dist = np.hypot(diff.real, diff.imag)
    nearest = np.argmin(dist, axis=1)
    if not 2.0 * np.max(np.min(dist, axis=1)) < min_pairwise_gap(base):
        raise TrackingError("nearest neighbours are not certified: a point moved "
                            "by half the smallest gap or more")
    return new[nearest]
