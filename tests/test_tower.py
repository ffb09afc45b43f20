from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from _tracking import tracked_level_data
from gztower.families import char_minor
from gztower import orbits, tower
from gztower.orbits import (
    DEFAULT_MINOR_CONVENTION,
    MinorConvention,
    OrbitError,
    OrbitPoint,
    level_data,
    lowering_minor_coeffs,
    regularity_margin,
    sample_orbit,
)
from gztower.poisson import U, evaluate_at
from gztower.polytools import lambda_minor_det
from gztower.tower import (
    BranchJumpError,
    PathThroughPunctureError,
    RegularityLostError,
    TowerError,
    action_angle_bracket_table,
    action_gradient,
    angle_variables,
    build_tower,
    default_base_point,
    differentials,
    hamiltonian_flow,
    linearization_check,
    path_log_increments,
    trajectory_records,
)


# ---------------------------------------------------------------------------
# differentials and residues
# ---------------------------------------------------------------------------

def test_residue_example_two_punctures():
    assert differentials([0.0, 1.0])[:, 0].tolist() == [-1.0, 1.0]


def test_residue_sums_exact():
    d = differentials([Fraction(0), Fraction(1), Fraction(3, 2)])
    assert d.sum(axis=0).tolist() == [0, 0, 1]


def test_single_puncture():
    assert differentials([0.5 + 0.5j]).sum(axis=0).tolist() == [1.0]


def test_coincident_punctures_rejected():
    with pytest.raises(ValueError):
        differentials([Fraction(1), Fraction(1)])


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True))
@settings(max_examples=30)
def test_residue_sum_rule_rational(values):
    punctures = [Fraction(v, 7) for v in values]
    sums = differentials(punctures).sum(axis=0).tolist()
    n = len(punctures)
    assert sums == [Fraction(int(k == n - 1)) for k in range(n)]


def test_residue_sum_rule_float():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pts = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sums = differentials(list(pts)).sum(axis=0)
        assert max(abs(s - (1.0 if k == 3 else 0.0)) for k, s in enumerate(sums)) < 1e-12


# ---------------------------------------------------------------------------
# straight-path elementary integrals
# ---------------------------------------------------------------------------

def _random_segment(seed):
    x, y = np.random.default_rng(seed).uniform(-2.0, 2.0, (2, 5))
    z = x + 1j * y
    return z[0], z[1], list(z[2:])


SEGMENTS = {
    "three-punctures": (3.0 + 0j, -2.0 + 2.5j, [0.2 + 0.1j, -0.5 - 0.4j, 1.1 + 0.9j]),
    **{f"random-{seed}": _random_segment(seed) for seed in range(4)},
    # punctures 9e-4 either side of the segment's interior
    "near-interior": (0j, 1.0 + 0j, [0.4 + 0.0009j, 0.6 - 0.0009j, 2.0 + 1.0j]),
    # a puncture 7e-4 beyond an endpoint, which a path bulging around it
    # would wind around once
    "near-endpoint": (0j, 1.0 + 0j, [1.0005 + 0.0005j, -0.3 + 0.7j]),
    "near-endpoint-reversed": (1.0 + 0j, 0j, [1.0005 + 0.0005j]),
}


@pytest.mark.parametrize("case", SEGMENTS)
def test_path_log_against_quadrature(case):
    # independent oracle: trapezoidal quadrature of lam^m / A(lam) along the
    # straight segment, on nodes clustered at its endpoints
    a, b, punctures = SEGMENTS[case]
    residues = differentials(punctures)
    dlogs = path_log_increments(a, b, punctures)
    ts = (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 200001))) / 2.0
    zs = a + (b - a) * ts
    denom = np.prod([zs - g for g in punctures], axis=0)
    for m in range(len(punctures)):
        closed = sum(r * d for r, d in zip(residues[:, m], dlogs))
        vals = zs ** m / denom
        quad = np.sum((vals[1:] + vals[:-1]) * np.diff(zs)) / 2.0
        assert abs(closed - quad) < 1e-7


def test_path_deflects_around_puncture():
    # a puncture exactly on the segment counts as passed to the path's
    # right: Delta log = +i*pi in either direction
    for a, b in ((-1.0 + 0j, 1.0 + 0j), (1.0 + 0j, -1.0 + 0j)):
        dlogs = path_log_increments(a, b, [0.0 + 0j])
        assert abs(dlogs[0] - 1j * np.pi) < 1e-12


def test_endpoint_at_puncture_rejected():
    with pytest.raises(PathThroughPunctureError):
        path_log_increments(2.0, 1.0 + 0j, [1.0 + 0j])


# ---------------------------------------------------------------------------
# angle variables
# ---------------------------------------------------------------------------

def test_level_one_literal_angle_is_zero():
    tau, literal = angle_variables([1.5 + 0.5j], [], [], lam0=5.0,
                                   leading_coeff=2.0 + 1.0j)
    assert literal.tolist() == [0j]
    assert tau[0] == pytest.approx(np.log(2.0 + 1.0j))


def test_angles_vanish_when_divisors_coincide():
    # e-points equal to the previous-level roots: the two sums cancel termwise
    gamma = [0.0 + 0j, 2.0 + 0j]
    shared = [1.0 + 0.3j]
    _, literal = angle_variables(gamma, shared, shared, lam0=6.0, leading_coeff=1.0)
    assert max(abs(literal)) < 1e-14


def test_angle_base_point_independence():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    base = default_base_point(pt)
    ref = build_tower(pt, lam0=base)
    for off in (0.25, 1.0 + 0.5j, -0.75j):
        alt = build_tower(pt, lam0=base + off)
        for lv_r, lv_a in zip(ref.levels[:-1], alt.levels[:-1]):
            assert max(abs(x - y) for x, y in zip(lv_r.tau, lv_a.tau)) < 1e-9


def test_abel_coordinate_derivative_consistency():
    # moving one e-point changes tau[n,k] by integrand * delta, so exp(tau)
    # transforms multiplicatively with the predicted factor
    gamma = [0.5 + 0j, -1.0 + 0.5j, 2.0 - 0.5j]
    e_pts = [1.3 + 0.2j, -0.2 - 0.6j]
    prev = [0.9 + 0.1j, -0.8 + 0.2j]
    lam0 = 6.0 + 0j
    delta = 1e-6
    n = len(gamma)
    for k in (1, n):
        _, lit0 = angle_variables(gamma, e_pts, prev, lam0, leading_coeff=1.0)
        moved = [e_pts[0] + delta, e_pts[1]]
        _, lit1 = angle_variables(gamma, moved, prev, lam0, leading_coeff=1.0)
        a_at = np.prod([e_pts[0] - g for g in gamma])
        predicted = delta * e_pts[0] ** (n - k) / a_at
        observed = lit1[k - 1] - lit0[k - 1]
        assert abs(observed - predicted) < 1e-6 * max(1.0, abs(predicted))
        ratio = np.exp(lit1[k - 1]) / np.exp(lit0[k - 1])
        assert abs(ratio - np.exp(predicted)) < 1e-6


def test_augmentation_requires_leading_coefficient():
    with pytest.raises(TypeError):
        angle_variables([1.0 + 0j], [], [], lam0=4.0)


# ---------------------------------------------------------------------------
# tower assembly
# ---------------------------------------------------------------------------

def test_tower_n1_trivial():
    pt = sample_orbit([0.7 + 0.2j], seed=0)
    tower = build_tower(pt)
    assert len(tower.levels) == 1
    lv = tower.levels[0]
    assert len(lv.e) == 0 and lv.tau == [] and lv.leading_coeff is None
    assert tower.zero_section == {}


def test_tower_n3_structure():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    tower = build_tower(pt)
    assert [lv.n for lv in tower.levels] == [1, 2, 3]
    for lv in tower.levels:
        assert len(lv.gamma) == lv.n
        assert len(lv.h) == lv.n
        # monic actions are the elementary symmetric functions of the roots
        assert np.max(np.abs(np.poly(lv.gamma)[1:] - lv.h)) < 1e-10
        if lv.n < pt.n:
            assert len(lv.e) == lv.n - 1
            assert len(lv.tau) == lv.n
            assert all(np.isfinite([z.real, z.imag]).all() and abs(z) > 0
                       for z in lv.jacobian)
        else:
            assert len(lv.e) == 0 and lv.tau == []
    assert sorted(tower.zero_section) == [2, 3]
    for n, section in tower.zero_section.items():
        assert len(section) == n
        assert all(np.isfinite([z.real, z.imag]).all() for z in section)


def test_tower_takes_each_path_log_once(monkeypatch):
    # below the top level: the e-points and the previous roots; at the top:
    # the previous roots, which the zero section shares with the angles
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0, 0.5 - 1.0j, -1.5 + 1.0j], seed=11)
    calls = []
    plain = tower.path_log_increments
    monkeypatch.setattr(tower, "path_log_increments",
                        lambda *args: calls.append(args) or plain(*args))
    desc = build_tower(pt)
    assert len(calls) == 2 * 4 + 1
    for lv, prev in zip(desc.levels[:-1], [[]] + [lv.gamma for lv in desc.levels]):
        tau, literal = angle_variables(lv.gamma, lv.e, prev, desc.base_point,
                                       lv.leading_coeff)
        assert (tau.tolist(), literal.tolist()) == (lv.tau, lv.tau_literal)


@pytest.mark.parametrize("rows_variant", [True, False])
def test_lowering_minor_has_one_coefficient_per_degree(rows_variant):
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0, 0.5j], seed=5)
    for n in range(1, 4):
        assert len(lowering_minor_coeffs(pt.u, n, MinorConvention(rows_variant))) == n


def test_degenerate_lowering_minor_is_rejected():
    # u[3,2] = 0 kills the lam^2 coefficient of C_3 (rows {0,1,3} x cols
    # {0,1,2}) but not the lam^1 one, which a trimmed coefficient array
    # would pass off as the leading coefficient
    rng = np.random.default_rng(3)
    u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u[3, 2] = u[3, 0] = 0
    pt = OrbitPoint.create(u)
    coeffs = lowering_minor_coeffs(pt.u, 3)
    assert len(coeffs) == 3 and abs(coeffs[0]) < 1e-12 and abs(coeffs[1]) > 1e-3
    with pytest.raises(TowerError, match="level 3: lowering minor degenerates"):
        build_tower(pt)
    # the action-angle table divides by the pivot of each C_m: it raises the
    # same error before any division, with no RuntimeWarning (an error under
    # this suite's filterwarnings)
    with pytest.raises(TowerError, match="level 3: lowering minor degenerates"):
        action_angle_bracket_table(pt)


def test_actions_check_scales_with_the_coefficients():
    # the A_n coefficients here reach 1.2e5; np.poly of the punctures
    # misses them by up to 2.7e-7, at most 2.3e-12 of their size
    pt = sample_orbit([1, 2, 3, 4, 5, 6, 7, 8], seed=3)
    assert [lv.n for lv in build_tower(pt).levels] == list(range(1, 9))


def test_actions_check_rejects_a_relative_error_of_1e_6(monkeypatch):
    # a new point: a sampled one already holds the level data of its draw
    sampled = sample_orbit([1, 2, 3, 4, 5, 6, 7, 8], seed=3)
    pt = OrbitPoint(u=sampled.u, spectrum=sampled.spectrum)
    kernel = orbits._level_roots

    def perturbed_roots(u, convention, lowering=False):
        # the largest puncture of level 8 moved by 1e-6 relative; A_8 is
        # poly(gamma), so only the backward residual can see it
        coeffs, roots = kernel(u, convention, lowering)
        gamma = roots[7].copy()
        gamma[np.argmax(np.abs(gamma))] *= 1 + 1e-6
        roots[7], coeffs[7] = gamma, np.poly(gamma).astype(complex)
        return coeffs, roots

    monkeypatch.setattr(orbits, "_level_roots", perturbed_roots)
    with pytest.raises(TowerError, match="level 8: punctures off the spectrum of u_8"):
        build_tower(pt)


def test_tower_json():
    pt = sample_orbit([1.0, -1.0], seed=4)
    data = build_tower(pt).to_json()
    assert set(data) == {"levels", "zero_section", "minor_convention", "base_point"}
    assert data["minor_convention"] == "rows"


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def _gradient_polys(N, selector):
    """Oracle: symbolic partials of h[n,k] with respect to every u entry."""
    n, k = selector
    hpoly = char_minor(N, n, side="left").coefficient_of_lambda(n - k)
    return {(i, j): hpoly.differentiate((U, i, j))
            for i in range(1, N + 1) for j in range(1, N + 1)}


def _gradient_matrix(grads, u):
    """(grad h)[i,j] = dh/du[j,i] from the symbolic partials."""
    out = np.zeros(u.shape, dtype=complex)
    for (i, j), poly in grads.items():
        out[j - 1, i - 1] = evaluate_at(poly, u=u)
    return out


def _rk4_points(u, selector, t_final, steps, sample_every):
    """Oracle: fixed-step RK4 of u' = [grad h, u], with the symbolic gradient
    re-evaluated at every stage."""
    grads = _gradient_polys(u.shape[0], selector)
    dt = t_final / steps

    def rhs(v):
        x = _gradient_matrix(grads, v)
        return x @ v - v @ x

    points = [u]
    for step_idx in range(1, steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step_idx % sample_every == 0:
            points.append(u)
    return points


_SPECTRA = {1: [0.7 + 0.2j], 2: [0.5, -1.0 + 0.5j], 3: [1.0, 2.0 + 0.5j, -1.0],
            4: [1.0, 2.0 + 0.5j, -1.0, 0.5j], 5: [1.0, 2.0 + 0.5j, -1.0, 0.5j, -0.8 - 0.9j]}


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_action_gradient_matches_symbolic(N):
    pt = sample_orbit(_SPECTRA[N], seed=N)
    for n in range(1, N + 1):
        for k in range(1, n + 1):
            want = _gradient_matrix(_gradient_polys(N, (n, k)), pt.u)
            got = action_gradient(pt, (n, k))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("N, selector", [(3, (2, 1)), (4, (3, 2)), (5, (4, 3))])
def test_closed_form_flow_matches_rk4(N, selector):
    pt = sample_orbit(_SPECTRA[N], seed=N)
    flow = hamiltonian_flow(pt, selector, t_final=1.0, steps=1000, sample_every=100)
    oracle = _rk4_points(pt.u, selector, 1.0, 1000, 100)
    assert len(flow.points) == len(oracle) == 11
    assert np.allclose(flow.times, np.linspace(0.0, 1.0, 11), rtol=0, atol=1e-15)
    for got, want in zip(flow.points, oracle):
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_flow_endpoint_is_independent_of_the_grid():
    pt = sample_orbit(_SPECTRA[4], seed=4)
    coarse = hamiltonian_flow(pt, (3, 2), t_final=1.0, steps=10).points[-1]
    fine = hamiltonian_flow(pt, (3, 2), t_final=1.0, steps=1000).points[-1]
    assert np.max(np.abs(coarse - fine)) <= 1e-12 * np.max(np.abs(fine))


def test_flow_leaving_floating_point_range_loses_regularity():
    pt = sample_orbit([1.0, 2.0, 3.0], seed=0)
    with pytest.raises(RegularityLostError) as err:
        hamiltonian_flow(pt, (2, 1), t_final=1e4, steps=1000, sample_every=25)
    assert 0.0 < err.value.time < 1e4

def test_flow_with_finite_u_and_overflowing_minors_loses_regularity():
    # at t = 10 the h[4,3] flow has |u| near 1e154, finite, while its minors
    # leave floating-point range: the flow returns u(10), and the tracker
    # reports a regularity loss there, not a bad spectrum
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
    flow = hamiltonian_flow(pt, (4, 3), t_final=10.0, steps=1)
    assert flow.times.tolist() == [0.0, 10.0]
    assert np.isfinite(flow.points[-1]).all()
    with pytest.raises(OrbitError):
        level_data(flow.points[-1])
    with pytest.raises(RegularityLostError) as err:
        tower._continued_angles(pt, flow.points, flow.times, None)
    assert err.value.time == 10.0


def test_flow_conserves_spectrum_and_actions():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    flow = hamiltonian_flow(pt, (2, 1), t_final=1.0, steps=1000, sample_every=100)
    s0 = np.sort_complex(np.linalg.eigvals(flow.points[0]))
    for u in flow.points:
        assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(u)) - s0)) < 1e-8
        for n in (1, 2, 3):
            drift = np.abs(lambda_minor_det(u, range(n), range(n))
                           - lambda_minor_det(pt.u, range(n), range(n)))
            assert np.max(drift) < 1e-8


def test_casimir_flow_is_stationary():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    flow = hamiltonian_flow(pt, (3, 2), t_final=0.5, steps=100, sample_every=100)
    assert max(np.max(np.abs(u - pt.u)) for u in flow.points) < 1e-10


def test_flow_regularity_guard_reports_time():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    with pytest.raises(RegularityLostError) as err:
        hamiltonian_flow(pt, (2, 1), t_final=0.1, steps=10, reg_gap=1e6)
    assert err.value.time == 0.0


_FLOW_SELECTORS = [(N, (n, k)) for N in (3, 4, 5) for n in range(1, N) for k in range(1, n + 1)]


@pytest.mark.parametrize("N, selector", _FLOW_SELECTORS)
def test_flow_conserves_the_margin_and_every_level_polynomial(N, selector):
    # every A_m, and so the regularity margin, holds along the flow: the
    # reason the flow checks regularity at t = 0 alone
    pt = sample_orbit(_SPECTRA[N], seed=N)
    flow = hamiltonian_flow(pt, selector, t_final=1.0, steps=1000, sample_every=25)
    assert len(flow.points) == 41
    margin0 = regularity_margin(pt.u)
    a0 = [lambda_minor_det(pt.u, range(m), range(m)) for m in range(1, N + 1)]
    for u in flow.points:
        assert np.max(np.abs(u)) < 1e3
        assert abs(regularity_margin(u) - margin0) <= 1e-8 * margin0
        for m, want in enumerate(a0, start=1):
            drift = np.max(np.abs(lambda_minor_det(u, range(m), range(m)) - want))
            assert drift <= 1e-8 * np.max(np.abs(want))


def test_flow_checks_regularity_once_whatever_the_steps(monkeypatch):
    # the flow reads the start margin and A_n from its point's level data: a
    # sampled point keeps the level data of its last draw, and a new point
    # computes it once
    calls = []
    kernel = orbits._level_roots
    monkeypatch.setattr(orbits, "_level_roots",
                        lambda u, conv: (calls.append(u), kernel(u, conv))[1])
    sampled = sample_orbit(_SPECTRA[5], seed=5)
    draws = len(calls)
    flow = hamiltonian_flow(sampled, (4, 3), t_final=1.0, steps=10**6, sample_every=25000)
    assert len(calls) == draws
    pt = OrbitPoint(u=sampled.u, spectrum=sampled.spectrum)
    for steps in (10**6, 10, 1000):
        hamiltonian_flow(pt, (4, 3), steps=steps, sample_every=max(1, steps // 40))
    assert len(calls) == draws + 1 and np.array_equal(calls[-1], pt.u)
    assert len(flow.points) == 41
    assert np.array_equal(flow.times, np.arange(41) * 25000 * (1.0 / 10**6))
    assert np.array_equal(flow.points[0], pt.u)


@pytest.mark.parametrize("start", ["below-gap", "overflowing-minors"])
def test_irregular_start_loses_regularity_at_zero(start):
    # the start margin decides for the whole flow: below reg_gap (a
    # triangular point of the same orbit, whose nested minors share roots),
    # or (u(10) of the h[4,3] flow taken as the start) not computable at all
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
    if start == "below-gap":
        u = np.triu(np.random.default_rng(0).standard_normal((5, 5))).astype(complex)
        u[range(5), range(5)] = pt.spectrum
        pt = OrbitPoint(u=u, spectrum=pt.spectrum)
        assert pt.margin() < 1e-12 and orbits.regularity_margin(u) == pt.margin()
        want = _outcome(lambda: _flow_loop(pt, (4, 3), sample_every=25))
        assert want == ("regularity", (0.0, "regularity lost at t = 0.0"))
    else:
        u10 = hamiltonian_flow(pt, (4, 3), t_final=10.0, steps=1).points[-1]
        pt = orbits.OrbitPoint(u=u10, spectrum=pt.spectrum)
    got = _outcome(lambda: hamiltonian_flow(pt, (4, 3), sample_every=25))
    assert got == ("regularity", (0.0, "regularity lost at t = 0.0"))


def test_invalid_selector_rejected():
    pt = sample_orbit([1.0, -1.0], seed=4)
    with pytest.raises(ValueError):
        hamiltonian_flow(pt, (3, 1))


# ---------------------------------------------------------------------------
# the stacked flow and tracker against their per-point loops
# ---------------------------------------------------------------------------

def _flow_loop(pt, selector, t_final=1.0, steps=1000, reg_gap=1e-6, sample_every=1):
    """Oracle: the flow one kept grid time at a time, regularity checked at
    the start alone."""
    X = action_gradient(pt, selector)
    u = pt.u.copy()
    if orbits.regularity_margin(u) < reg_gap:
        raise RegularityLostError(0.0)
    n = selector[0]
    V = np.eye(pt.n, dtype=complex)
    V[:n, :n] = np.linalg.eig(u[:n, :n])[1]
    Vinv = np.linalg.inv(V)
    d = np.diag(Vinv @ X @ V)
    rates, M = d[:, None] - d[None, :], Vinv @ u @ V
    dt = t_final / steps
    times, points = [0.0], [u]
    for step_idx in range(1, steps + 1):
        if step_idx % sample_every and step_idx != steps:
            continue
        t = step_idx * dt
        with np.errstate(over="ignore", invalid="ignore"):
            u = V @ (np.exp(t * rates) * M) @ Vinv
        if not np.isfinite(u).all():
            raise RegularityLostError(t)
        times.append(t)
        points.append(u)
    return np.array(times), points


class _TrackerLoop:
    """Oracle: the tracker one sample at a time.  The first sample gets the
    straight-path angles; tracked_level_data matches each later sample's
    roots to the sample before, and each tau continues by the logs of the
    e-point ratios, one e-point at a time, against the first sample's
    punctures, and tau[n,1] also by the log of the lead C_n ratio.  The h
    come from lambda_minor_det, determinants on a circle as the tracker's.
    An error carries the time of its sample."""

    def __init__(self, convention, lam0):
        self.convention, self.lam0 = convention, lam0
        self.first = self.state = None

    def step(self, u, t):
        try:
            taus, hs, flags, lv = self._step(u, t)
        except TowerError as exc:
            exc.time = t
            raise
        self.state, self.tau = lv, taus
        return taus, hs, flags

    def _start(self, lv):
        self.first = self.state = lv
        self.tau = {}
        for n in range(1, len(lv.gamma)):
            tau, _ = angle_variables(lv.gamma[n - 1], lv.e[n - 1],
                                     lv.gamma[n - 2] if n >= 2 else [], self.lam0,
                                     leading_coeff=lv.c[n - 1][0])
            self.tau.update({(n, k): val for k, val in enumerate(tau, start=1)})

    def _step(self, u, t):
        try:
            lv = tracked_level_data(u, self.convention, self.state)
        except OrbitError:
            raise RegularityLostError(t) from None
        if self.first is None:
            self._start(lv)
        N = len(lv.gamma)
        hs = {(n, k): complex(h) for n in range(1, N + 1)
              for k, h in enumerate(lambda_minor_det(u, range(n), range(n))[1:], start=1)}
        taus, flags = {}, {}
        for n in range(1, N):
            gamma = self.first.gamma[n - 1]
            lead_log = complex(np.log(complex(lv.c[n - 1][0]) / complex(self.state.c[n - 1][0])))
            logs, turn = np.zeros(n, dtype=complex), abs(lead_log.imag)
            for old, new in zip(self.state.e[n - 1], lv.e[n - 1]):
                dlog = path_log_increments(old, new, gamma)
                logs += dlog
                turn = max(turn, np.max(np.abs(dlog.imag)))
            if turn > np.pi / 2:
                raise BranchJumpError(f"level {n}: a ratio turned by {turn:.3f} rad")
            inc = (logs @ differentials(gamma))[::-1]
            inc[0] += lead_log
            for k in range(1, n + 1):
                taus[(n, k)] = self.tau[(n, k)] + inc[k - 1]
            flags[n] = any(abs(taus[(n, k)] - self.tau[(n, k)]) > np.pi / 2
                           for k in range(1, n + 1))
        return taus, hs, flags, lv


def _tracked_loop(pt, selector, steps, sample_every, lam0=None):
    lam0 = default_base_point(pt) if lam0 is None else lam0
    times, points = _flow_loop(pt, selector, steps=steps, sample_every=sample_every)
    tracker = _TrackerLoop(DEFAULT_MINOR_CONVENTION, lam0)
    return times, points, [tracker.step(u, t) for t, u in zip(times, points)]


def _outcome(run):
    """(kind, time or message) of a call that may fail, or its result."""
    try:
        return "ok", run()
    except RegularityLostError as exc:
        return "regularity", (exc.time, str(exc))


# at t = 0.8 an e-point of this flow lies 9e-4 from a level-4 puncture
_NEAR_PUNCTURE = [0.548397 - 1.193040j, 0.960227 + 1.049305j, -0.214281 - 0.318218j,
                  0.776116 - 0.060948j, 1.135441 - 1.060996j]

# (spectrum, seed, selector, steps, sample_every): grids of 11 to 1001 kept
# times
_FLOWS = {
    "n3-coarse": (_SPECTRA[3], 3, (2, 1), 100, 10),
    "n4-fine": (_SPECTRA[4], 4, (3, 2), 150, 1),
    "n5-bench": (_NEAR_PUNCTURE, 195104716, (4, 3), 1000, 25),
    "n5-every-step": (_SPECTRA[5], 5, (4, 3), 1000, 1),
}


@pytest.mark.parametrize("case", _FLOWS)
def test_stacked_flow_matches_the_step_loop(case):
    spectrum, seed, selector, steps, every = _FLOWS[case]
    pt = sample_orbit(spectrum, seed=seed)
    flow = hamiltonian_flow(pt, selector, steps=steps, sample_every=every)
    times, points = _flow_loop(pt, selector, steps=steps, sample_every=every)
    assert np.array_equal(flow.times, times) and len(flow.points) == len(points)
    assert np.array_equal(flow.points[0], pt.u)
    for got, want in zip(flow.points, points):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["n3-coarse", "n4-fine", "n5-bench"])
def test_stacked_tracker_matches_the_sample_loop(case):
    spectrum, seed, selector, steps, every = _FLOWS[case]
    pt = sample_orbit(spectrum, seed=seed)
    times, points, want = _tracked_loop(pt, selector, steps, every)
    keys, taus, hs, flags = tower._continued_angles(pt, points, times, None)
    h_keys = keys + [(pt.n, k) for k in range(1, pt.n + 1)]
    assert taus.shape == (len(times), len(keys)) and len(times) > 10
    for tau, h, flag, (tau_ref, h_ref, flag_ref) in zip(taus, hs, flags, want):
        assert list(tau_ref) == keys and list(h_ref) == h_keys
        assert np.max(np.abs(tau - list(tau_ref.values()))) <= 1e-12
        assert np.max(np.abs(h - list(h_ref.values()))) <= 1e-12 * np.max(np.abs(h))
        assert flag.tolist() == list(flag_ref.values())
    # the first sample is u0 itself: its taus are the tower's angles
    tower_taus = [t for lv in build_tower(pt).levels for t in lv.tau]
    assert np.max(np.abs(taus[0] - tower_taus)) <= 1e-12


@pytest.mark.parametrize("t_final, steps, every", [(1e4, 1000, 25), (1e4, 1000, 1)])
def test_regularity_loss_out_of_range_reports_the_oracle_time(t_final, steps, every):
    # u(t) overflows: the first failing kept time, on grids of 41 and 1001
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
    want = _outcome(lambda: _flow_loop(pt, (4, 3), t_final, steps, sample_every=every))
    got = _outcome(lambda: hamiltonian_flow(pt, (4, 3), t_final, steps, sample_every=every))
    assert want[0] == "regularity" and got == want


def _line_error(pt, selector, records):
    """max |tau(t) - tau(0) - delta t| over the records of a flow of h[selector]."""
    t = np.array([rec["t"] for rec in records])
    tau = np.array([[complex(*v) for v in rec["tau"].values()] for rec in records])
    delta = np.array([key == "%d,%d" % selector for key in records[0]["tau"]])
    return float(np.max(np.abs(tau - tau[0] - t[:, None] * delta)))


# a geometry flow whose straight-path tau[4,1] changed sheet along the way
_JUMPING = ([0.370469 + 0.085768j, 0.830049 - 0.121992j, 0.339010 - 1.312951j,
             1.251893 + 0.423985j, -1.381221 + 1.057899j], 248819507)


@pytest.mark.parametrize("samples", [40, 500])
def test_branch_jump_reports_the_oracle_key_and_magnitude(samples):
    # 41 samples or 501: the flow on which straight paths jumped completes,
    # on the oracle's values and on the line
    spectrum, seed = _JUMPING
    pt = sample_orbit(spectrum, seed=seed)
    every = max(1, 1000 // samples)
    _, _, want = _tracked_loop(pt, (4, 3), 1000, every)
    records = trajectory_records(pt, (4, 3), samples=samples)
    assert len(records) == len(want) == samples + 1
    for rec, (tau_ref, _, _) in zip(records, want):
        assert max(abs(complex(*rec["tau"]["%d,%d" % key]) - val)
                   for key, val in tau_ref.items()) <= 1e-12
    assert _line_error(pt, (4, 3), records) <= 1e-8


# geometry flow5 inputs (benchmarks/gen.py, seeds 2 and 4) on which the
# straight-path angles jumped by 10.2, and left the line by 2.91 without a
# jump above pi
_OFF_THE_LINE = {
    "jumped": ([0.988068 - 0.851330j, -0.005832 - 1.197889j, 0.577554 - 1.384188j,
                -0.482924 + 0.605848j, 0.068486 - 0.130708j], 1317947088),
    "changed-sheet": ([1.328411 + 0.000679j, 0.496972 + 1.375747j, -1.099813 - 0.450188j,
                       -0.006397 - 0.828687j, -0.019140 + 0.066261j], 1937492129),
}


@pytest.mark.parametrize("case", _OFF_THE_LINE)
def test_continued_angles_stay_on_the_line(case):
    spectrum, seed = _OFF_THE_LINE[case]
    pt = sample_orbit(spectrum, seed=seed)
    records = trajectory_records(pt, (4, 3))
    assert len(records) == 41
    assert _line_error(pt, (4, 3), records) <= 1e-8


_PERIOD_FLOWS = {**_FLOWS, **{case: (spectrum, seed, (4, 3), 1000, 25)
                              for case, (spectrum, seed) in _OFF_THE_LINE.items()}}


@pytest.mark.parametrize("case", _PERIOD_FLOWS)
def test_continued_angles_differ_from_straight_paths_by_periods(case):
    # an oracle free of any continuation: at every sample the continued
    # tau[n,k] minus build_tower's straight-path tau at u(t) is 2*pi*i times
    # sum_j m_j res_j(lam^(n-k) / A_n), with integers m_j, plus 2*pi*i times
    # an integer on tau[n,1]; the residues of lam^(n-1) / A_n sum to one, so
    # that integer adds to every m_j, and the residue table solves for them
    spectrum, seed, selector, steps, every = _PERIOD_FLOWS[case]
    pt = sample_orbit(spectrum, seed=seed)
    flow = hamiltonian_flow(pt, selector, steps=steps, sample_every=every)
    _, taus, _, _ = tower._continued_angles(pt, flow.points, flow.times, None)
    lam0 = default_base_point(pt)
    straight = np.array([[t for lv in build_tower(OrbitPoint(u, pt.spectrum), lam0).levels
                          for t in lv.tau] for u in flow.points])
    periods = (taus - straight) / (2j * np.pi)
    for lv in build_tower(pt).levels[:-1]:
        n = lv.n
        table = differentials(lv.gamma)[:, ::-1]        # [j, k-1]: res_j(lam^(n-k) / A_n)
        m = np.linalg.solve(table.T, periods[:, n * (n - 1) // 2:n * (n + 1) // 2].T)
        assert np.max(np.abs(m - np.round(m))) <= 1e-6


def test_tracker_raises_the_oracle_error_at_an_overflowing_sample():
    # 100 samples 0.001 apart, the 81st replaced by u(10), whose minors
    # overflow: the tracker fails there, at the oracle's time, after the 80
    # samples before it pass
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=2)
    times, points = _flow_loop(pt, (4, 3), steps=1000, sample_every=1)
    times, points = times[:100].copy(), points[:100]
    times[80], points[80] = 10.0, _flow_loop(pt, (4, 3), t_final=10.0, steps=1)[1][-1]
    assert np.isfinite(points[80]).all()
    lam0 = default_base_point(pt)
    oracle = _TrackerLoop(DEFAULT_MINOR_CONVENTION, lam0)
    want = _outcome(lambda: [oracle.step(u, t) for t, u in zip(times, points)])
    got = _outcome(lambda: tower._continued_angles(pt, points, times, lam0))
    assert want == got == ("regularity", (10.0, "regularity lost at t = 10.0"))


def _faulty_kernels(faults, gamma):
    """The one-point level kernel, which the oracle reads through level_data,
    and the tracker's level kernel, with faults injected at given points u,
    each (kind, level n, u): 'jump' turns C_n by 2 rad; 'through' puts the
    last e-point of level n on the last puncture g of level n in gamma, so
    the tracker's C_n(g) is an exact zero (n >= 2); 'overflow' takes the
    point out of floating-point range, as either kernel reports it."""
    one_point, stacked = orbits._level_roots, tower._level_coeffs

    def level_roots(u, convention, lowering=False):
        coeffs, roots = one_point(u, convention, lowering)
        N = u.shape[-1]
        for kind, n, v in faults:
            if not np.array_equal(u, v):
                continue
            if kind == "jump":
                coeffs[N + n - 1] = coeffs[N + n - 1] * np.exp(2j)
            elif kind == "through":
                roots[N + n - 1] = np.append(roots[N + n - 1][:-1], gamma[n - 1][-1])
            else:
                raise OrbitError("leave floating-point range")
        return coeffs, roots

    def level_coeffs(us, punctures, convention):
        coeffs, values, finite = stacked(us, punctures, convention)
        for kind, n, v in faults:
            hit = np.all(us == v, axis=(1, 2))
            if kind == "jump":
                values[n - 1][hit] *= np.exp(2j)
            elif kind == "through":
                values[n - 1][hit, -1] = 0.0
            else:
                for x in coeffs + values:
                    x[hit] = np.nan
                finite[hit] = False
        return coeffs, values, finite
    return level_roots, level_coeffs


# (kind, level, sample) faults among the first 81 samples of a flow, and the
# error they give: the first failing sample decides, and within a sample the
# per-sample order does (lost regularity, then level by level a C_n that
# vanishes at a puncture and a turned ratio).
_FAULTS = {
    "through-before-jump": ([("through", 4, 30), ("jump", 1, 40)], "PathThroughPunctureError"),
    "jump-after-through": ([("through", 3, 50), ("jump", 3, 40)], "BranchJumpError"),
    "through-at-the-start": ([("through", 4, 0), ("jump", 3, 1)], "PathThroughPunctureError"),
    "through-below-jump": ([("jump", 3, 45), ("through", 2, 45)], "PathThroughPunctureError"),
    "jump-below-through": ([("through", 4, 45), ("jump", 2, 45)], "BranchJumpError"),
    "overflow-before-jump": ([("jump", 1, 20), ("overflow", 1, 20)], "RegularityLostError"),
}


@pytest.mark.parametrize("case", _FAULTS)
def test_tracker_raises_the_error_of_the_first_failing_sample(monkeypatch, case):
    faults, kind = _FAULTS[case]
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=2)
    times, points = _flow_loop(pt, (4, 3), steps=1000, sample_every=1)
    times, points = times[:81], points[:81]
    gamma = [lv.gamma for lv in build_tower(pt).levels]
    level_roots, level_coeffs = _faulty_kernels(
        [(fault, n, points[s]) for fault, n, s in faults], gamma)
    monkeypatch.setattr(orbits, "_level_roots", level_roots)
    monkeypatch.setattr(tower, "_level_coeffs", level_coeffs)
    lam0 = default_base_point(pt)

    def outcome(run):
        try:
            run()
        except Exception as exc:
            return type(exc).__name__, str(exc), exc.time
        return "ok", "", None

    # the e-point oracle fails at the same sample with the same error
    oracle = _TrackerLoop(DEFAULT_MINOR_CONVENTION, lam0)
    want = outcome(lambda: [oracle.step(u, t) for t, u in zip(times, points)])
    got = outcome(lambda: tower._continued_angles(pt, points, times, lam0))
    first = min(s for _, _, s in faults)
    n = min(n for _, n, s in faults if s == first)
    assert got[::2] == want[::2] == (kind, times[first])
    if kind == "BranchJumpError":
        assert got[1].startswith(f"level {n}: ") and "turned by 2.0" in got[1]
    elif kind == "PathThroughPunctureError" and first > 0:
        assert got[1] == f"level {n}: C_{n} vanishes at puncture {n}, {gamma[n - 1][-1]:.6g}"


def test_stacked_path_logs_match_one_row_calls():
    # each row of a stack of endpoints gets the one-row result, and a stack
    # fails at its first row with an endpoint on a puncture
    rng = np.random.default_rng(7)
    cloud = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a, b, gamma = cloud(6, 3), cloud(6, 3), cloud(4)
    logs = path_log_increments(a, b, gamma)
    assert logs.shape == (6, 3, 4)
    for row in range(6):
        assert np.array_equal(logs[row], path_log_increments(a[row], b[row], gamma))
    b[4, 1], a[3, 2] = gamma[0], gamma[2]
    with pytest.raises(PathThroughPunctureError) as err:
        path_log_increments(a, b, gamma)
    assert err.value.row == 3
    with pytest.raises(PathThroughPunctureError) as err:
        path_log_increments(a[4:], b[4:], gamma)
    assert err.value.row == 0


# ---------------------------------------------------------------------------
# linearization and the canonical pairing
# ---------------------------------------------------------------------------

def test_linearization_n2():
    pt = sample_orbit([0.5, -1.0 + 0.5j], seed=3)
    rep = linearization_check(pt, (1, 1))
    assert rep.status == "ok"
    assert abs(rep.slopes[(1, 1)] - 1.0) < 1e-3


def test_linearization_refuses_n1():
    # gl_1 has no angle: a check of no slopes is refused
    with pytest.raises(ValueError, match="no angle"):
        linearization_check(sample_orbit([0.5], seed=0), (1, 1))


@pytest.mark.parametrize("selector", [(1, 1), (2, 1), (2, 2)])
def test_linearization_n3(selector):
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    rep = linearization_check(pt, selector)
    assert rep.status == "ok"
    for key, slope in rep.slopes.items():
        expected = 1.0 if key == selector else 0.0
        assert abs(slope - expected) < 1e-3


def test_casimir_flow_all_slopes_zero():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    rep = linearization_check(pt, (3, 1))
    # the Casimir selector has no conjugate angle on the orbit: every tracked
    # angle must sit still
    assert all(abs(s) < 1e-3 for s in rep.slopes.values())
    assert rep.status == "ok"


def test_action_angle_table_is_canonical():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    rep = action_angle_bracket_table(pt)
    assert rep.status == "ok"
    assert rep.max_deviation_upper < 1e-4
    # the augmented level-one angle is conjugate to h[1,1]
    assert abs(rep.h_tau[((1, 1), (1, 1))] - 1.0) < 1e-4
    for (ka, kb), val in rep.h_tau.items():
        expected = 1.0 if ka == kb else 0.0
        assert abs(val - expected) < 1e-4
    for val in rep.h_h.values():
        assert abs(val) < 1e-4


def test_trajectory_records_shape():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    records = trajectory_records(pt, (2, 1), t_final=0.05, steps=50, samples=5)
    assert len(records) >= 5
    rec = records[0]
    assert set(rec) == {"t", "u", "h", "tau", "branch_flags"}
    assert set(rec["tau"]) == {"1,1", "2,1", "2,2"}
    assert set(rec["h"]) == {"1,1", "2,1", "2,2", "3,1", "3,2", "3,3"}
