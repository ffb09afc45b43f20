"""Small numeric helpers for lambda-polynomials attached to a matrix.

Polynomials are numpy coefficient arrays, highest degree first (the
numpy.roots convention).  Matrix indices here are 0-based.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "lambda_minor_det", "minor_dets", "principal_charpoly", "roots_polished",
    "polished_roots", "sort_points", "match_points", "min_pairwise_gap",
    "TrackingError",
]


class TrackingError(RuntimeError):
    """Root tracking between nearby configurations is ambiguous."""


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


def principal_charpoly(u: np.ndarray, k: int) -> np.ndarray:
    """Characteristic polynomial of the top-left k x k block, monic."""
    return lambda_minor_det(u, range(k), range(k))


def polished_roots(polys, iters: int = 6) -> list[np.ndarray]:
    """Roots of every polynomial in `polys`, refined by a few Newton steps.

    An entry is one coefficient array (d+1,), highest degree first, or a
    column stack (d+1, B) of B polynomials; it gets its roots (g,), or a
    (B, d) table of them.  Exact leading zeros drop, as in numpy.roots: a
    polynomial of degree g < d has g roots, and in a table NaN in the d - g
    slots after them; one with a non-finite coefficient has none.  All
    polynomials share one zero-padded coefficient matrix; companion
    eigenvalues come from one stacked eigvals per degree above 1; then all
    roots take the same Newton steps at once, Horner's rule on the padded
    coefficients, and a root whose steps leave floating-point range keeps
    its eigenvalue.
    """
    stacked = [np.ndim(p) == 2 for p in polys]
    blocks = [np.atleast_2d(np.asarray(p, dtype=complex).T) for p in polys]   # (B, d+1)
    rows = np.array([len(b) for b in blocks], dtype=int)
    width = np.array([b.shape[1] for b in blocks], dtype=int)
    L = max(2, width.max(initial=0))
    size = np.repeat(width, rows)                      # per polynomial
    ends = np.cumsum(size)
    owner = np.repeat(np.arange(len(size)), size)      # per coefficient
    C = np.zeros((len(size), L), dtype=complex)
    C[owner, L - ends[owner] + np.arange(len(owner))] = np.concatenate(
        [np.zeros(0), *(b.ravel() for b in blocks)])
    C[~np.isfinite(C).all(axis=1)] = 0.0
    nonzero = C != 0
    degree = np.where(nonzero.any(axis=1), L - 1 - nonzero.argmax(axis=1), 0)
    table = np.full((len(C), L - 1), np.nan, dtype=complex)
    roots, owner, slot = [np.zeros(0, dtype=complex)], [np.zeros(0, int)], [np.zeros(0, int)]
    for g in np.flatnonzero(np.bincount(degree, minlength=2)[1:]) + 1:
        sel = np.flatnonzero(degree == g)
        comp = -C[sel, L - g:] / C[sel, L - g - 1, None]    # top companion rows
        if g > 1:
            comp = np.linalg.eigvals(np.concatenate(
                (comp[:, None], np.eye(g - 1, g)[None].repeat(len(sel), 0)), axis=1))
        roots.append(comp.ravel())
        owner.append(np.repeat(sel, g))
        slot.append(np.arange(len(sel) * g) % g)
    start, owner, slot = map(np.concatenate, (roots, owner, slot))
    deriv = np.zeros_like(C)
    deriv[:, 1:] = C[:, :-1] * np.arange(L - 1, 0, -1)
    horner = np.ascontiguousarray(np.stack((C, deriv))[:, owner].transpose(2, 0, 1))
    roots = start
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            vals, dvals = functools.reduce(lambda y, col: y * roots + col, horner, 0j)
            roots = roots - np.divide(vals, dvals, out=np.zeros_like(vals),
                                      where=np.abs(dvals) > 1e-300)
    table[owner, slot] = np.where(np.isfinite(roots), roots, start)
    first = np.cumsum(rows) - rows
    return [table[i:i + B, :w - 1] if st else table[i, :degree[i]]
            for i, B, w, st in zip(first, rows, width, stacked)]


def roots_polished(coeffs: np.ndarray, iters: int = 6) -> np.ndarray:
    """Companion-matrix roots refined by a few Newton steps."""
    return polished_roots([coeffs], iters)[0]


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


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Column of each row in a minimal-total-cost assignment, O(k^3).

    Kuhn's Hungarian method (1955) in its shortest-augmenting-path form:
    rows join one at a time, and dual potentials on rows and columns keep
    every reduced cost non-negative.  The arithmetic is exact: costs are
    rounded to integer multiples of 2^-40 of the largest, so totals that
    differ only by rounding tie, and each cost gains the lower-order term
    j * k^(k-1-i), so among minimal assignments the first in lexicographic
    (itertools) order wins.  A non-finite cost gives the identity, the
    first of the all-NaN totals an exhaustive search would see.
    """
    k = len(cost)
    top = float(np.max(cost))
    if not np.isfinite(top):
        return list(range(k))
    q = np.rint(cost * (2.0 ** 40 / top)) if top > 0 else np.zeros((k, k))
    weight = [[int(q[i, j]) * k ** k + j * k ** (k - 1 - i) for j in range(k)]
              for i in range(k)]
    row_pot, col_pot = [0] * (k + 1), [0] * (k + 1)
    row_of, way = [0] * (k + 1), [0] * (k + 1)   # 1-based row on each column
    for i in range(1, k + 1):
        row_of[0], j0 = i, 0                     # column 0 roots the search
        reach, used = [math.inf] * (k + 1), [False] * (k + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            delta, j1 = math.inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    reduced = weight[i0 - 1][j - 1] - row_pot[i0] - col_pot[j]
                    if reduced < reach[j]:
                        reach[j], way[j] = reduced, j0
                    if reach[j] < delta:
                        delta, j1 = reach[j], j
            for j in range(k + 1):
                if used[j]:
                    row_pot[row_of[j]] += delta
                    col_pot[j] -= delta
                else:
                    reach[j] -= delta
            j0 = j1
        while j0:
            row_of[j0], j0 = row_of[way[j0]], way[j0]
    out = [0] * k
    for j in range(1, k + 1):
        out[row_of[j] - 1] = j - 1
    return out


def match_points(base: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Reorder `new` to follow `base` by minimal-total-distance assignment.

    new is one configuration (k,) or a sequence of them (B, k); in a
    sequence each row follows the one before it, the first follows base.
    When every point of the previous configuration has its nearest new point
    within d_i < g/2, g that configuration's smallest gap, the nearest
    neighbours are the unique minimal assignment: any other one gives some
    set S of points the nearest neighbours of others, each at a distance
    above g - d_i - d_j, which sums to more than the sum of d_i over S.  All
    rows are certified from one stacked distance table; a row that is not
    takes the Hungarian assignment (_min_cost_assignment).
    """
    base, new = np.asarray(base), np.asarray(new)
    if base.shape[-1] != new.shape[-1]:
        raise TrackingError("point counts differ between configurations")
    k = len(base)
    if k <= 1:
        return new.copy()
    rows = new.reshape(-1, k)
    prev = np.concatenate((base[None], rows[:-1]))
    dist = np.abs(prev[:, :, None] - rows[:, None, :])
    nearest = np.argmin(dist, axis=2)
    reach = np.take_along_axis(dist, nearest[:, :, None], axis=2)[:, :, 0]
    gaps = np.abs(prev[:, :, None] - prev[:, None, :])
    gaps[:, range(k), range(k)] = np.inf
    certified = 2.0 * reach.max(axis=1) < gaps.min(axis=(1, 2))
    out = np.empty_like(rows)
    order, ref = np.arange(k), base
    for s, row in enumerate(rows):
        if certified[s]:        # prev[s] is the previous row before reordering
            order = nearest[s][order]
        else:
            order = np.array(_min_cost_assignment(np.abs(ref[:, None] - row[None, :])))
        out[s] = ref = row[order]
    return out.reshape(new.shape)
