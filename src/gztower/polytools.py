"""Small numeric helpers for lambda-polynomials attached to a matrix.

Polynomials are numpy coefficient arrays, highest degree first (the
numpy.roots convention).  Matrix indices here are 0-based.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "lambda_minor_det", "minor_dets", "roots_polished",
    "polished_roots", "sort_points", "match_points", "min_pairwise_gap",
    "TrackingError",
]


class TrackingError(RuntimeError):
    """A point match is not certified, or the point counts differ."""


@functools.lru_cache(maxsize=256)
def _minor_tables(n: int, minors: tuple) -> tuple:
    """Gathers into [u.ravel(), 0, 1, -1] that evaluate `minors` in one stack.

    Per minor: S11, S12, S22, S21, its blocks with and without lam (S22
    padded by an identity, S12 and S21 by zeros).  Per evaluation point:
    S with a -1 tail, the minor, the root of unity; the flat positions of
    lam in the stack of all points, and the point of each.  Per
    coefficient: the inverse DFT and the power of lam; per minor its slice.
    """
    zero, one, minus = n * n, n * n + 1, n * n + 2
    lam_at = [np.equal.outer(rows, cols) for rows, cols in minors]
    D = max(1, max(P.sum() for P in lam_at))
    s = max(1, max(len(P) - P.sum() for P in lam_at))
    s11, s12 = np.full((len(minors), D, D), zero), np.full((len(minors), D, s), zero)
    s21, s22 = np.full((len(minors), s, D), zero), np.full((len(minors), s, s), zero)
    s22[:, range(s), range(s)] = one
    gather, lam, owner, bounds = [], [], [], []
    for m, ((rows, cols), P) in enumerate(zip(minors, lam_at)):
        k, d = len(rows), int(P.sum())
        i, j = np.nonzero(P)        # lam sits on the diagonal of S[i, j]
        ro, co = np.flatnonzero(~P.any(axis=1)), np.flatnonzero(~P.any(axis=0))
        flat = np.add.outer(np.multiply(rows, n), cols)
        s11[m, :d, :d], s22[m, :k - d, :k - d] = flat[np.ix_(i, j)], flat[np.ix_(ro, co)]
        s12[m, :d, :k - d], s21[m, :k - d, :d] = flat[np.ix_(i, co)], flat[np.ix_(ro, j)]
        g, p = np.full((n, n), zero), np.zeros((n, n))
        g[:k, :k], g[range(k, n), range(k, n)], p[:k, :k] = flat, minus, P
        gather += [g] * (d + 1)
        lam += [p] * (d + 1)
        owner += [m] * (d + 1)
        bounds.append((len(owner) - d - 1, len(owner)))
    T = len(owner)
    dft, local, size = np.zeros((T, T), dtype=complex), np.zeros(T), np.zeros(T)
    for a, b in bounds:
        j = np.arange(b - a)
        local[a:b], size[a:b] = j, b - a
        dft[a:b, a:b] = np.exp(-2j * np.pi * np.outer(j[::-1], j) / (b - a)) / (b - a)
    lam = np.flatnonzero(lam)
    return (s11, s12, s22, s21, np.array(gather), lam, lam // (n * n), np.array(owner),
            np.exp(2j * np.pi * local / size), dft, size - 1 - local, tuple(bounds))


def minor_dets(u: np.ndarray, minors: tuple) -> list[np.ndarray]:
    """Coefficients of every lambda-minor in `minors`, (rows, cols) tuples.

    Minor m is det(lam*P - S), P[i, j] = [rows[i] == cols[j]], S = u[rows,
    cols], of degree <= d = P.sum().  Padded to n x n by an identity tail,
    it is evaluated at its own d+1 points r*w**j, w = exp(2*pi*i/(d+1)), in
    one stacked det, and interpolated by one block-diagonal inverse DFT.  r
    follows the roots as u scales: the spectral radius of S11 - S12 S22^+ S21
    (S11 carries lam, S22 not, ^+ the pseudo-inverse; one stacked eigvals),
    or 1.0 if that is 0.  Each minor gets d+1 coefficients, highest first;
    the leading one is 0 up to round-off when the degree drops below d.

    u may be one matrix or a stack (B, n, n); for a stack every minor comes
    back as a (B, d+1) array, all B points in the same stacked calls.  A
    point whose entries, Schur complements or coefficients are not finite
    gets NaN for every coefficient of every minor.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[-1]
    us = u.reshape(-1, n * n)
    s11, s12, s22, s21, gather, lam, lam_point, owner, omega, dft, power, bounds = \
        _minor_tables(n, minors)
    ext = np.empty((len(us), n * n + 3), dtype=complex)
    ext[:, :-3], ext[:, -3:] = us, (0, 1, -1)
    ok = np.isfinite(ext).all(axis=1)
    ext[~ok] = 0.0
    with np.errstate(all="ignore"):
        s22 = ext[:, s22]       # the pseudo-inverse of a scalar needs no SVD
        s22 = (np.divide(1.0, s22, out=np.zeros_like(s22), where=s22 != 0)
               if s22.shape[-1] == 1 else np.linalg.pinv(s22))
        schur = ext[:, s11] - ext[:, s12] @ (s22 @ ext[:, s21])
        ok &= np.isfinite(schur).all(axis=(1, 2, 3))
        schur[~ok] = 0.0
        r = np.max(np.abs(np.linalg.eigvals(schur)), axis=2)
        r[r == 0] = 1.0
        r = r[:, owner]
        mats = ext[:, gather]       # lam*P - S in place, one (B, T, n, n) array
        np.negative(mats, out=mats)
        mats.reshape(len(us), gather.size)[:, lam] += (r * omega)[:, lam_point]
        coeffs = (dft @ np.linalg.det(mats)[:, :, None])[:, :, 0] / r ** power
    coeffs[~(ok & np.isfinite(coeffs).all(axis=1))] = np.nan
    if u.ndim == 2:
        coeffs = coeffs[0]
    return [coeffs[..., a:b] for a, b in bounds]


def lambda_minor_det(u: np.ndarray, rows: list[int], cols: list[int]) -> np.ndarray:
    """Coefficients of det of the (lam*Id - u) submatrix on rows x cols
    (lam where the global row and column agree), d+1 of them; see minor_dets."""
    assert len(cols) == len(rows) >= 1
    return minor_dets(u, ((tuple(rows), tuple(cols)),))[0]


_NEWTON_STEPS = 6           # the Newton steps that polish every companion-matrix root


def polished_roots(polys) -> list[np.ndarray]:
    """Roots of every polynomial in `polys`, refined by _NEWTON_STEPS Newton steps.

    Each entry is one coefficient array (d+1,), highest degree first.  Exact
    leading zeros drop, as in numpy.roots: a polynomial of degree g < d has
    g roots; one with a non-finite coefficient has none.  All polynomials
    share one zero-padded coefficient matrix; companion eigenvalues come
    from one stacked eigvals per degree above 1; then all roots take the
    same Newton steps at once, Horner's rule on the padded coefficients,
    and a root whose steps leave floating-point range keeps its eigenvalue.
    """
    polys = [np.asarray(p, dtype=complex) for p in polys]
    L = max(2, max(map(len, polys), default=0))
    C = np.zeros((len(polys), L), dtype=complex)
    for row, p in zip(C, polys):
        row[L - len(p):] = p
    C[~np.isfinite(C).all(axis=1)] = 0.0
    nonzero = C != 0
    degree = np.where(nonzero.any(axis=1), L - 1 - nonzero.argmax(axis=1), 0)
    roots, owner = [np.zeros(0, dtype=complex)], [np.zeros(0, int)]
    for g in np.flatnonzero(np.bincount(degree, minlength=2)[1:]) + 1:
        sel = np.flatnonzero(degree == g)
        comp = -C[sel, L - g:] / C[sel, L - g - 1, None]    # top companion rows
        if g > 1:
            comp = np.linalg.eigvals(np.concatenate(
                (comp[:, None], np.eye(g - 1, g)[None].repeat(len(sel), 0)), axis=1))
        roots.append(comp.ravel())
        owner.append(np.repeat(sel, g))
    start, owner = map(np.concatenate, (roots, owner))
    deriv = np.zeros_like(C)
    deriv[:, 1:] = C[:, :-1] * np.arange(L - 1, 0, -1)
    horner = np.ascontiguousarray(np.stack((C, deriv))[:, owner].transpose(2, 0, 1))
    roots = start
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            vals, dvals = functools.reduce(lambda y, col: y * roots + col, horner, 0j)
            roots = roots - np.divide(vals, dvals, out=np.zeros_like(vals),
                                      where=np.abs(dvals) > 1e-300)
    roots = np.where(np.isfinite(roots), roots, start)
    return [roots[owner == i] for i in range(len(polys))]


def roots_polished(coeffs: np.ndarray) -> np.ndarray:
    """Companion-matrix roots refined by _NEWTON_STEPS Newton steps."""
    return polished_roots([coeffs])[0]


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
