import itertools

import numpy as np
import pytest

from gztower import orbits
from gztower.orbits import (
    OrbitError,
    OrbitPoint,
    SingularChartError,
    gz_forward,
    level_data,
    lowering_minor_coeffs,
    random_spectrum,
    regularity_margin,
    sample_orbit,
    verify_canonical_chart,
)
from gztower.polytools import (
    lambda_minor_det,
    match_points,
    min_pairwise_gap,
    roots_polished,
    sort_points,
)
from gztower.tower import TowerError, _level_coeffs, build_tower


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
        lv = level_data(u)
        assert len(lv.a) == N + 1 and np.array_equal(lv.a[0], [1.0])
        assert len(lv.gamma) == N and len(lv.c) == len(lv.e) == N - 1
        for n in range(1, N + 1):
            ref = lambda_minor_det(u, range(n), range(n))
            _close_coeffs(lv.a[n], ref)
            assert np.array_equal(lv.gamma[n - 1], sort_points(lv.gamma[n - 1]))
            _close_roots(lv.gamma[n - 1], sort_points(roots_polished(ref)))
        for n in range(1, N):
            ref = lowering_minor_coeffs(u, n)
            _close_coeffs(lv.c[n - 1], ref)
            assert np.array_equal(lv.e[n - 1], sort_points(lv.e[n - 1]))
            _close_roots(lv.e[n - 1], sort_points(roots_polished(ref)))


@pytest.mark.parametrize("N", [1, 4, 8])
def test_level_data_actions_do_not_depend_on_the_convention(N):
    # the margin reads A_n and gamma alone, which the transposed lowering
    # minors share: the level data of u^T, whose C_n are the transposed C_n
    # of u, have the same A_n and gamma, and their C_n are those minors
    pt = sample_orbit(random_spectrum(N, np.random.default_rng(N)), seed=N)
    default, other = pt.levels(), level_data(pt.u.T)
    for a, b in zip(default.a, other.a):
        _close_coeffs(b, a)
    for g, h in zip(default.gamma, other.gamma):
        _close_roots(h, g)
    for c, (rows, cols) in zip(other.c, orbits._level_minors(N, False)[N:]):
        _close_coeffs(c, lambda_minor_det(pt.u, rows, cols))


def _stack(N):
    """Five points at N: two samples at three scales, one entry-wise random."""
    rng = np.random.default_rng(N)
    pts = [sample_orbit(random_spectrum(N, rng), seed=seed).u for seed in range(2)]
    us = [scale * u for u in pts for scale in (1e-2, 1e2)]
    return np.array(us + [rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))])


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8])
def test_stacked_level_data_matches_per_point_calls(N):
    # the flow tracker's stack path, at each point's own punctures: every
    # row is the one-point call's, and agrees with the point's level_data,
    # A_n by determinants on a circle against poly(gamma) within the
    # per-level oracle's bound, and C_n(gamma) by one determinant each
    # against lead prod(gamma - e)
    us = _stack(N)
    for b, u in enumerate(us):
        lv = level_data(u)
        a, c, finite = _level_coeffs(us, lv.gamma)
        one_a, one_c, _ = _level_coeffs(us[b:b + 1], lv.gamma)
        assert finite.all() and len(a) == N and len(c) == N - 1
        for got, one, ref in zip(a, one_a, lv.a[1:]):
            assert np.array_equal(got[b], one[0])
            assert np.max(np.abs(got[b] - ref)) <= 1e-10 * np.max(np.abs(ref))
        for got, one, g, lead, e in zip(c, one_c, lv.gamma, lv.c, lv.e):
            ref = lead[0] * np.prod(np.subtract.outer(g, e), axis=1)
            assert np.array_equal(got[b], one[0])
            assert np.max(np.abs(got[b] - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    gammas = level_data(u).gamma
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
    # u[3,2] = u[3,0] = 0 kills the lam^2 coefficient of C_3 but not lam^1:
    # the pivot of C_3 is 0, so C_3 has no compression, and its level data
    # are the lead 0 and NaN; the other levels keep theirs
    rng = np.random.default_rng(3)
    u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u[3, 2] = u[3, 0] = 0
    pt = OrbitPoint.create(u)
    lv = level_data(pt.u)
    assert len(lv.c[2]) == 3 and lv.c[2][0] == 0 and np.isnan(lv.c[2][1:]).all()
    assert len(lv.e[2]) == 2 and np.isnan(lv.e[2]).all()
    assert all(np.isfinite(x).all() for x in lv.a + lv.gamma + lv.c[:2] + lv.e[:2])
    assert abs(lowering_minor_coeffs(pt.u, 3)[1]) > 1e-3
    with pytest.raises(TowerError, match="level 3: lowering minor degenerates"):
        build_tower(pt)
    # the angle of that level is singular, and the sweep, which needs no
    # e-point, still runs: its conditioning reads NaN for them
    with pytest.raises(SingularChartError, match="level 3"):
        gz_forward(pt)
    with np.errstate(invalid="ignore"):
        rep = verify_canonical_chart(pt)
    assert rep.status == "ok" and np.isnan(rep.conditioning["max_root_condition"])


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
    u[0, 2] = np.inf
    with pytest.raises(OrbitError, match="floating-point range"):
        regularity_margin(u)
    with pytest.raises(OrbitError, match="floating-point range"):
        sample_orbit([1.0, 2.0, 1e300], seed=0)
