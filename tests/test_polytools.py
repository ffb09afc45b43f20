import functools
import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from _tracking import match_loop
from gztower import polytools
from gztower.orbits import random_spectrum, sample_orbit
from gztower.polytools import (
    TrackingError,
    circle_coeffs,
    lambda_minor_det,
    match_points,
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


def _certified(base, new):
    """Every point of base has a nearest point of new within half base's gap."""
    if len(base) < 2:
        return True
    gap = min(abs(a - b) for a, b in itertools.combinations(base, 2))
    return max(min(abs(a - b) for b in new) for a in base) < gap / 2


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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_circle_coeffs_is_the_fft_interpolation_it_replaced(d):
    # the direct DFT sums the d+1 terms numpy.fft sums, in another order:
    # scaled back by (d+1) r^k, each coefficient agrees with the FFT within
    # 8 (d+1)^2 ulps of the largest det.  Its matrix is built once, read-only
    rng = np.random.default_rng(d)
    S = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    P, r = np.eye(d), 0.7
    lams = r * np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    dets = np.linalg.det(lams[:, None, None] * P - S[:, None])
    got = circle_coeffs(S, P, r)[..., ::-1] * ((d + 1) * r ** np.arange(d + 1))
    bound = 8 * (d + 1) ** 2 * np.finfo(float).eps * np.max(np.abs(dets))
    assert np.max(np.abs(got - np.fft.fft(dets, axis=-1))) <= bound
    W = polytools._dft_matrix(d + 1)
    assert W is polytools._dft_matrix(d + 1) and not W.flags.writeable


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

def _match_or_error(base, new):
    """match_points(base, new), or TrackingError."""
    try:
        return match_points(base, new)
    except TrackingError as exc:
        return exc


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_match_points_is_the_exhaustive_minimum(k):
    # shuffled small moves and fresh random sets: matched where certified,
    # and refused otherwise
    rng = np.random.default_rng(k)
    certified = 0
    for trial in range(20):
        base = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        if trial % 2:
            new = base[rng.permutation(k)] + 1e-3 * rng.standard_normal(k)
        else:
            new = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        got = _match_or_error(base, new)
        if _certified(base, new):
            certified += 1
            assert np.array_equal(got, match_loop(base, new))
        else:
            assert isinstance(got, TrackingError)
    assert certified >= 10
    # exact ties: a certified reversal, and a base with no gap
    ring = np.exp(2j * np.pi * np.arange(k) / k)
    zeros = np.zeros(k, dtype=complex)
    grid = np.arange(k) + 0j
    assert np.array_equal(match_points(grid, grid[::-1]), grid)
    if k > 1:
        with pytest.raises(TrackingError, match="not certified"):
            match_points(zeros, ring)


_POINTS = st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                   min_size=1, max_size=6, unique=True)


@given(_POINTS, st.sampled_from([0.0, 0.1, 0.45, 3.0]), st.randoms(use_true_random=False))
def test_match_points_certified_and_assigned_branches(grid, spread, rnd):
    # distinct base points on a grid of spacing 1, new ones a shuffled copy
    # moved by up to `spread` per coordinate: small spreads certify nearest
    # neighbours, which are the exhaustive minimum; the rest are refused
    base = np.array([complex(x, y) for x, y in grid])
    k = len(base)
    moved = base + np.array([complex(rnd.uniform(-spread, spread), rnd.uniform(-spread, spread))
                             for _ in range(k)])
    new = moved[rnd.sample(range(k), k)]
    got = _match_or_error(base, new)
    if _certified(base, new):
        assert np.array_equal(got, match_loop(base, new))
    else:
        assert isinstance(got, TrackingError)
    if spread == 0.0:
        assert np.array_equal(got, base)
    with pytest.raises(TrackingError, match="counts differ"):
        match_points(base, new[1:])


# ---------------------------------------------------------------------------
# polished roots
# ---------------------------------------------------------------------------

def test_batched_roots_match_numpy_roots_with_newton():
    rng = np.random.default_rng(5)
    polys = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (1, 2, 3, 3, 6, 9, 2)]
    polys += [np.array([0.0, 0.0, 1.0, -3.0, 2.0]),     # exact leading zeros drop
              np.zeros(4), np.array([]), np.array([5.0])]
    got = [roots_polished(coeffs) for coeffs in polys]
    for roots, coeffs in zip(got, polys):
        ref = _roots_reference(coeffs)
        assert len(roots) == len(ref)
        if len(ref):
            assert np.max(np.abs(match_points(ref, roots) - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.allclose(np.sort(got[7].real), [1.0, 2.0]) and not len(got[8])
