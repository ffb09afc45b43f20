import itertools

import numpy as np
import pytest

from gztower.orbits import (
    MinorConvention,
    OrbitError,
    OrbitPoint,
    _level_stack,
    gz_forward,
    level_data,
    lowering_minor_coeffs,
    random_spectrum,
    regularity_margin,
    sample_orbit,
)
from gztower.polytools import (
    match_points,
    min_pairwise_gap,
    principal_charpoly,
    roots_polished,
    sort_points,
)
from gztower.tower import TowerError, build_tower

CONVENTIONS = [MinorConvention(rows_variant, sign)
               for rows_variant in (True, False) for sign in (1, -1)]


def _close_roots(got, ref):
    """Roots equal up to order, to within 1e-10 of the root scale."""
    assert len(got) == len(ref)
    if len(ref):
        scale = max(1e-300, float(np.max(np.abs(ref))))
        assert np.max(np.abs(match_points(ref, got) - ref)) <= 1e-10 * scale


def _close_coeffs(got, ref):
    assert len(got) == len(ref)
    assert np.max(np.abs(got - ref)) <= 1e-10 * max(1e-300, float(np.max(np.abs(ref))))


# ---------------------------------------------------------------------------
# against the per-level oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8])
def test_level_data_matches_the_per_level_minors_and_roots(N, scale):
    for seed in range(2):
        pt = sample_orbit(random_spectrum(N, np.random.default_rng(seed)), seed=seed)
        u = scale * pt.u
        for conv in CONVENTIONS:
            lv = level_data(u, conv)
            assert len(lv.a) == N + 1 and np.array_equal(lv.a[0], [1.0])
            assert len(lv.gamma) == N and len(lv.c) == len(lv.e) == N - 1
            for n in range(1, N + 1):
                ref = principal_charpoly(u, n)
                _close_coeffs(lv.a[n], ref)
                assert np.array_equal(lv.gamma[n - 1], sort_points(lv.gamma[n - 1]))
                _close_roots(lv.gamma[n - 1], sort_points(roots_polished(ref)))
            for n in range(1, N):
                ref = lowering_minor_coeffs(u, n, conv)
                _close_coeffs(lv.c[n - 1], ref)
                assert np.array_equal(lv.e[n - 1], sort_points(lv.e[n - 1]))
                _close_roots(lv.e[n - 1], sort_points(roots_polished(ref)))


@pytest.mark.parametrize("N", [1, 4, 8])
def test_level_data_without_lowering_minors(N):
    pt = sample_orbit(random_spectrum(N, np.random.default_rng(N)), seed=N)
    full, actions = level_data(pt.u), level_data(pt.u, lowering=False)
    assert actions.c == [] and actions.e == []
    for a, b in zip(full.a, actions.a):
        _close_coeffs(b, a)
    for g, h in zip(full.gamma, actions.gamma):
        _close_roots(h, g)


def test_level_data_tracks_a_base():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0, 0.3 - 1.1j, -0.6 + 0.9j], seed=4)
    base = level_data(pt.u)
    rng = np.random.default_rng(0)
    u2 = pt.u + 1e-7 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    moved = level_data(u2, base=base)
    for got, ref in zip(moved.gamma + moved.e, base.gamma + base.e):
        assert np.max(np.abs(got - ref), initial=0.0) < 1e-5
    # a reversed base gets reversed roots: the order follows the base, not a sort
    flipped = level_data(u2, base=type(base)(base.a, [g[::-1] for g in base.gamma],
                                             base.c, [e[::-1] for e in base.e]))
    for got, ref in zip(flipped.gamma + flipped.e, moved.gamma + moved.e):
        assert np.array_equal(got, ref[::-1])
    # a chart carries no divisor points: gamma follows it, e comes back sorted
    chart = level_data(u2, base=gz_forward(pt))
    for got, ref in zip(chart.gamma, moved.gamma):
        assert np.array_equal(got, ref)
    for e in chart.e:
        assert np.array_equal(e, sort_points(e))


def _stack(N):
    """Five points at N: two samples at three scales, one entry-wise random."""
    rng = np.random.default_rng(N)
    pts = [sample_orbit(random_spectrum(N, rng), seed=seed).u for seed in range(2)]
    us = [scale * u for u in pts for scale in (1e-2, 1e2)]
    return np.array(us + [rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))])


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8])
def test_stacked_level_data_matches_per_point_calls(N):
    us = _stack(N)
    for conv in CONVENTIONS[:3]:
        coeffs, roots, finite = _level_stack(us, conv, lowering=True)
        assert finite.all() and len(coeffs) == len(roots) == 2 * N - 1
        for b, u in enumerate(us):
            lv = level_data(u, conv)
            for c, r, ref_c, ref_r in zip(coeffs, roots, lv.a[1:] + lv.c, lv.gamma + lv.e):
                scale = np.max(np.abs(ref_c))
                assert np.max(np.abs(c[b] - ref_c)) <= 1e-13 * scale
                if len(ref_r):
                    scale = np.max(np.abs(ref_r))
                    assert np.max(np.abs(sort_points(r[b]) - ref_r)) <= 1e-13 * scale
    # a point's margin does not depend on the stack around it
    margins = regularity_margin(us)
    assert margins.shape == (len(us),)
    assert margins.tolist() == [regularity_margin(u) for u in us]


def test_stacked_margin_flags_overflowing_points_alone():
    # one point's minors overflow, one point is not finite: both get NaN,
    # where a single matrix raises; the others keep their margins
    us = _stack(3)
    h = np.random.default_rng(0).standard_normal((3, 3))
    us[1] = h @ np.diag([1.0, 2.0, 1e300]) @ np.linalg.inv(h)
    us[3, 0, 2] = np.inf
    margins = regularity_margin(us)
    assert np.isnan(margins[[1, 3]]).all()
    for b in (0, 2, 4):
        assert margins[b] == regularity_margin(us[b])
    with pytest.raises(OrbitError, match="floating-point range"):
        regularity_margin(us[3])
    assert regularity_margin(us[:0]).shape == (0,)


# ---------------------------------------------------------------------------
# pairwise gaps and the regularity margin
# ---------------------------------------------------------------------------

def _gap_loop(points):
    if len(points) < 2:
        return np.inf
    return min(abs(a - b) for a, b in itertools.combinations(points, 2))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
def test_min_pairwise_gap_equals_the_loop(k):
    rng = np.random.default_rng(k)
    for _ in range(10):
        points = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert min_pairwise_gap(points) == _gap_loop(points)
    repeated = np.concatenate([points, points[:1]])
    assert min_pairwise_gap(repeated) == _gap_loop(repeated)


def _margin_loop(u):
    """Smallest gap within each A_n and between consecutive ones, by loops."""
    gammas = level_data(u, lowering=False).gamma
    margin = _gap_loop(gammas[0])
    for prev, roots in zip(gammas, gammas[1:]):
        margin = min(margin, _gap_loop(roots), min(abs(a - b) for a in roots for b in prev))
    return float(margin)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_regularity_margin_equals_the_loop(N):
    rng = np.random.default_rng(N)
    for _ in range(5):
        u = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        assert regularity_margin(u) == _margin_loop(u)
    # nested minors of a triangular matrix share roots: the minimum is round-off
    tri = np.triu(rng.standard_normal((N, N))) + np.diag(np.arange(N))
    assert regularity_margin(tri) == _margin_loop(tri)
    assert N == 1 or regularity_margin(tri) < 1e-12


# ---------------------------------------------------------------------------
# failure paths through level_data
# ---------------------------------------------------------------------------

def test_degenerate_lowering_minor_through_level_data():
    # u[3,2] = u[3,0] = 0 kills the lam^2 coefficient of C_3 but not lam^1
    rng = np.random.default_rng(3)
    u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u[3, 2] = u[3, 0] = 0
    pt = OrbitPoint.create(u)
    lv = level_data(pt.u)
    assert len(lv.c[2]) == 3 and abs(lv.c[2][0]) < 1e-12 and abs(lv.c[2][1]) > 1e-3
    with pytest.raises(TowerError, match="level 3: lowering minor degenerates"):
        build_tower(pt)


def test_overflowing_minors_raise_orbit_error():
    # u itself stays finite (|u| ~ 1e300); its minors on a circle of that
    # radius do not
    h = np.random.default_rng(0).standard_normal((3, 3))
    u = h @ np.diag([1.0, 2.0, 1e300]) @ np.linalg.inv(h)
    assert np.isfinite(u).all()
    with pytest.raises(OrbitError, match="floating-point range"):
        level_data(u)
    with pytest.raises(OrbitError, match="floating-point range"):
        regularity_margin(u)
    with pytest.raises(OrbitError, match="floating-point range"):
        sample_orbit([1.0, 2.0, 1e300], seed=0)
