import functools
import itertools

import numpy as np
import pytest

from gztower.orbits import random_spectrum, sample_orbit
from gztower.polytools import (
    lambda_minor_det,
    match_points,
    polished_roots,
    roots_polished,
)


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def _cofactor_minor(u, rows, cols):
    """det of the (lam*Id - u) submatrix by cofactor expansion along rows.

    Exact for small integer entries.  Returns d+1 coefficients, highest
    first, where d counts the positions that carry lam; np.convolve never
    trims a leading zero.
    """
    k = len(rows)

    @functools.lru_cache(maxsize=None)
    def det(i, cs):
        if i == k:
            return np.ones(1, dtype=complex)
        total = np.zeros(k - i + 1, dtype=complex)
        for pos, c in enumerate(cs):
            entry = np.array([float(rows[i] == c), -u[rows[i], c]], dtype=complex)
            term = np.convolve(entry, det(i + 1, cs[:pos] + cs[pos + 1:]))
            total += term if pos % 2 == 0 else -term
        return total

    d = sum(r in cols for r in rows)
    full = det(0, tuple(cols))
    assert not np.any(full[:k - d])  # positions without lam give no higher power
    return full[k - d:]


def _match_loop(base, new):
    """Minimal-total-distance reordering by a loop over all permutations."""
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(len(base))):
        cost = sum(abs(base[i] - new[perm[i]]) for i in range(len(base)))
        if cost < best_cost:
            best, best_cost = perm, cost
    return new[list(best)]


def _roots_reference(coeffs, iters=6):
    """numpy.roots, then Newton steps with numpy.polyval, one polynomial."""
    coeffs = np.asarray(coeffs, dtype=complex)
    roots = np.roots(coeffs) if len(coeffs) > 1 else np.zeros(0, dtype=complex)
    deriv = np.polyder(coeffs)
    for _ in range(iters):
        vals, dvals = np.polyval(coeffs, roots), np.polyval(deriv, roots)
        safe = np.abs(dvals) > 1e-300
        roots = roots - np.where(safe, vals / np.where(safe, dvals, 1.0), 0.0)
    return roots


def _level_minors(N):
    """rows, cols of every A_n and of both orientations of every C_n."""
    out = [(list(range(n)), list(range(n))) for n in range(1, N + 1)]
    for n in range(1, N):
        shifted, plain = list(range(n - 1)) + [n], list(range(n))
        out += [(shifted, plain), (plain, shifted)]
    return out


# ---------------------------------------------------------------------------
# lambda minors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_minor_roots_match_cofactor_reference(N, scale):
    for seed in range(2):
        pt = sample_orbit(random_spectrum(N, np.random.default_rng(seed)), seed=seed)
        u = scale * pt.u
        for rows, cols in _level_minors(N):
            ref = _cofactor_minor(u, rows, cols)
            got = lambda_minor_det(u, rows, cols)
            assert len(got) == len(ref)
            if len(ref) == 1:
                assert abs(got[0] - ref[0]) <= 1e-10 * abs(ref[0])
                continue
            ref_roots = roots_polished(ref)
            got_roots = match_points(ref_roots, roots_polished(got))
            root_scale = np.max(np.abs(ref_roots))
            assert np.max(np.abs(got_roots - ref_roots)) <= 1e-10 * root_scale


def test_minor_is_exact_on_sparse_integer_matrices():
    rng = np.random.default_rng(0)
    dropped = 0
    for _ in range(200):
        u = rng.integers(-3, 4, (5, 5)) * (rng.random((5, 5)) < 0.4)
        for k in range(1, 6):
            rows = rng.choice(5, k, replace=False).tolist()
            cols = rng.choice(5, k, replace=False).tolist()
            ref = _cofactor_minor(u, rows, cols)
            got = lambda_minor_det(u, rows, cols)
            assert len(got) == len(ref) == 1 + sum(r in cols for r in rows)
            assert np.max(np.abs(got - ref)) < 1e-9
            dropped += ref[0] == 0
    assert dropped > 0  # the degree-drop case was exercised


# ---------------------------------------------------------------------------
# root matching
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_match_points_is_the_exhaustive_minimum(k):
    rng = np.random.default_rng(k)
    for trial in range(20):
        base = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        if trial % 2:
            new = base[rng.permutation(k)] + 0.3 * rng.standard_normal(k)
        else:
            new = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert np.array_equal(match_points(base, new), _match_loop(base, new))
    # exact ties: every permutation costs the same, the first one wins
    ring = np.exp(2j * np.pi * np.arange(k) / k)
    zeros = np.zeros(k, dtype=complex)
    assert np.array_equal(match_points(zeros, ring), _match_loop(zeros, ring))
    grid = np.arange(k) + 0j
    assert np.array_equal(match_points(grid, grid[::-1]), _match_loop(grid, grid[::-1]))


# ---------------------------------------------------------------------------
# polished roots
# ---------------------------------------------------------------------------

def test_batched_roots_match_numpy_roots_with_newton():
    rng = np.random.default_rng(5)
    polys = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (1, 2, 3, 3, 6, 9, 2)]
    polys += [np.array([0.0, 0.0, 1.0, -3.0, 2.0]),     # exact leading zeros drop
              np.zeros(4), np.array([]), np.array([5.0])]
    got = polished_roots(polys)
    assert len(got) == len(polys)
    for roots, coeffs in zip(got, polys):
        ref = _roots_reference(coeffs)
        assert len(roots) == len(ref)
        if len(ref):
            assert np.max(np.abs(match_points(ref, roots) - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.allclose(np.sort(got[7].real), [1.0, 2.0]) and not len(got[8])
