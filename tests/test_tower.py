from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

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
from gztower.polytools import principal_charpoly
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
    d = differentials([0.0, 1.0])
    assert d.residue_column(0) == [-1.0, 1.0]


def test_residue_sums_exact():
    d = differentials([Fraction(0), Fraction(1), Fraction(3, 2)])
    assert d.residue_sums() == [0, 0, 1]


def test_single_puncture():
    d = differentials([0.5 + 0.5j])
    assert d.residue_sums() == [1.0]


def test_coincident_punctures_rejected():
    with pytest.raises(ValueError):
        differentials([Fraction(1), Fraction(1)])


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True))
@settings(max_examples=30)
def test_residue_sum_rule_rational(values):
    punctures = [Fraction(v, 7) for v in values]
    sums = differentials(punctures).residue_sums()
    n = len(punctures)
    assert sums == [Fraction(int(k == n - 1)) for k in range(n)]


def test_residue_sum_rule_float():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pts = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sums = differentials(list(pts)).residue_sums()
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
    diffs = differentials(punctures)
    dlogs = path_log_increments(a, b, punctures)
    ts = (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 200001))) / 2.0
    zs = a + (b - a) * ts
    denom = np.prod([zs - g for g in punctures], axis=0)
    for m in range(len(punctures)):
        closed = sum(r * d for r, d in zip(diffs.residue_column(m), dlogs))
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
    res = angle_variables([1.5 + 0.5j], [], [], lam0=5.0,
                          leading_coeff=2.0 + 1.0j)
    assert res.tau_literal == [0j]
    assert res.tau[0] == pytest.approx(np.log(2.0 + 1.0j))


def test_angles_vanish_when_divisors_coincide():
    # e-points equal to the previous-level roots: the two sums cancel termwise
    gamma = [0.0 + 0j, 2.0 + 0j]
    shared = [1.0 + 0.3j]
    res = angle_variables(gamma, shared, shared, lam0=6.0, augment=False)
    assert max(abs(t) for t in res.tau_literal) < 1e-14


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
        res0 = angle_variables(gamma, e_pts, prev, lam0, augment=False)
        moved = [e_pts[0] + delta, e_pts[1]]
        res1 = angle_variables(gamma, moved, prev, lam0, augment=False)
        a_at = np.prod([e_pts[0] - g for g in gamma])
        predicted = delta * e_pts[0] ** (n - k) / a_at
        observed = res1.tau_literal[k - 1] - res0.tau_literal[k - 1]
        assert abs(observed - predicted) < 1e-6 * max(1.0, abs(predicted))
        ratio = np.exp(res1.tau_literal[k - 1]) / np.exp(res0.tau_literal[k - 1])
        assert abs(ratio - np.exp(predicted)) < 1e-6


def test_augmentation_requires_leading_coefficient():
    with pytest.raises(ValueError):
        angle_variables([1.0 + 0j], [], [], lam0=4.0, augment=True)


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


def test_actions_check_scales_with_the_coefficients():
    # the A_n coefficients here reach 1.2e5; np.poly of the punctures
    # misses them by up to 2.7e-7, at most 2.3e-12 of their size
    pt = sample_orbit([1, 2, 3, 4, 5, 6, 7, 8], seed=3)
    assert [lv.n for lv in build_tower(pt).levels] == list(range(1, 9))


def test_actions_check_rejects_a_relative_error_of_1e_6(monkeypatch):
    import gztower.orbits as orbits_mod

    pt = sample_orbit([1, 2, 3, 4, 5, 6, 7, 8], seed=3)
    exact_roots = orbits_mod.polished_roots

    def perturbed_roots(polys):
        # roots of A_8 with its largest coefficient moved by 1e-6 relative
        polys = [p.copy() for p in polys]
        for coeffs in polys:
            if len(coeffs) == 9:
                k = int(np.argmax(np.abs(coeffs)))
                coeffs[k] *= 1 + 1e-6
        return exact_roots(polys)

    monkeypatch.setattr(orbits_mod, "polished_roots", perturbed_roots)
    with pytest.raises(TowerError, match="level 8: actions disagree"):
        build_tower(pt)


def test_tower_json():
    pt = sample_orbit([1.0, -1.0], seed=4)
    data = build_tower(pt).to_json()
    assert set(data) == {"levels", "zero_section", "minor_convention", "base_point"}
    assert data["minor_convention"] == "rows+"


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
            got = action_gradient(pt.u, (n, k))
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

def test_flow_with_finite_u_and_overflowing_minors_loses_regularity(monkeypatch):
    # at t = 10 the h[4,3] flow has |u| near 1e154, finite, while its minors
    # leave floating-point range: a regularity loss, not a bad spectrum; the
    # checked stack is (t = 0, t = 10)
    seen = []
    monkeypatch.setattr(tower, "regularity_margin",
                        lambda u: (seen.append(u), regularity_margin(u))[1])
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
    with pytest.raises(RegularityLostError) as err:
        hamiltonian_flow(pt, (4, 3), t_final=10.0, steps=1)
    assert err.value.time == 10.0
    assert np.isfinite(seen[-1][-1]).all()
    with pytest.raises(OrbitError):
        level_data(seen[-1][-1])
    tracker = tower._TauTracker(pt.n, DEFAULT_MINOR_CONVENTION, default_base_point(pt))
    with pytest.raises(RegularityLostError) as err:
        tracker.step(seen[-1][-1], 10.0)
    assert err.value.time == 10.0


def test_flow_conserves_spectrum_and_actions():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    flow = hamiltonian_flow(pt, (2, 1), t_final=1.0, steps=1000, sample_every=100)
    s0 = np.sort_complex(np.linalg.eigvals(flow.points[0]))
    for u in flow.points:
        assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(u)) - s0)) < 1e-8
        for n in (1, 2, 3):
            drift = np.abs(principal_charpoly(u, n)
                           - principal_charpoly(pt.u, n))
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


def test_invalid_selector_rejected():
    pt = sample_orbit([1.0, -1.0], seed=4)
    with pytest.raises(ValueError):
        hamiltonian_flow(pt, (3, 1))


# ---------------------------------------------------------------------------
# the stacked flow and tracker against their per-point loops
# ---------------------------------------------------------------------------

def _flow_loop(pt, selector, t_final=1.0, steps=1000, reg_gap=1e-6, sample_every=1,
               check_every=10):
    """Oracle: the flow one kept grid time at a time, each checked alone."""
    X = action_gradient(pt.u, selector)
    u = pt.u.copy()
    if tower.regularity_margin(u) < reg_gap:
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
        check = step_idx % check_every == 0 or step_idx == steps
        sample = step_idx % sample_every == 0 or step_idx == steps
        if not (check or sample):
            continue
        t = step_idx * dt
        with np.errstate(over="ignore", invalid="ignore"):
            u = V @ (np.exp(t * rates) * M) @ Vinv
        try:
            if not np.isfinite(u).all() or (check and tower.regularity_margin(u) < reg_gap):
                raise RegularityLostError(t)
        except OrbitError:
            raise RegularityLostError(t) from None
        if sample:
            times.append(t)
            points.append(u)
    return np.array(times), points


class _TrackerLoop:
    """Oracle: the tracker one sample at a time, each matched to the last by
    level_data and its angles from angle_variables."""

    def __init__(self, u0, convention, lam0):
        self.N, self.convention, self.lam0 = u0.shape[0], convention, complex(lam0)
        self.state = level_data(u0, convention)
        self.aug_log = [complex(np.log(complex(c[0]))) for c in self.state.c]
        self.tau = {}
        self.step(u0, 0.0)

    def step(self, u, t):
        try:
            lv = level_data(u, self.convention, base=self.state)
        except OrbitError:
            raise RegularityLostError(t) from None
        hs = {(n, k): complex(lv.a[n][k]) for n in range(1, self.N + 1)
              for k in range(1, n + 1)}
        aug_logs = [aug + complex(np.log(complex(c[0]) / complex(c0[0])))
                    for aug, c, c0 in zip(self.aug_log, lv.c, self.state.c)]
        taus = {}
        for n in range(1, self.N):
            res = angle_variables(lv.gamma[n - 1], lv.e[n - 1],
                                  lv.gamma[n - 2] if n >= 2 else [], self.lam0,
                                  augment=False)
            for k, val in enumerate(res.tau_literal, start=1):
                taus[(n, k)] = val + aug_logs[n - 1] if k == 1 else val
        flags = {n: False for n in range(1, self.N)}
        for (n, k), val in taus.items():
            jump = abs(val - self.tau[(n, k)]) if self.tau else 0.0
            if jump > np.pi:
                raise BranchJumpError(f"tau[{n},{k}] jumped by {jump:.3f} between samples")
            flags[n] = flags[n] or jump > np.pi / 2.0
        self.state, self.aug_log, self.tau = lv, aug_logs, taus
        return taus, hs, flags


def _tracked_loop(pt, selector, steps, sample_every, lam0=None):
    lam0 = default_base_point(pt) if lam0 is None else lam0
    times, points = _flow_loop(pt, selector, steps=steps, sample_every=sample_every)
    tracker = _TrackerLoop(pt.u, DEFAULT_MINOR_CONVENTION, lam0)
    return times, points, [tracker.step(u, t) for t, u in zip(times, points)]


def _outcome(run):
    """(kind, time or message) of a call that may fail, or its result."""
    try:
        return "ok", run()
    except RegularityLostError as exc:
        return "regularity", (exc.time, str(exc))
    except BranchJumpError as exc:
        return "jump", str(exc)


# at t = 0.8 an e-point of this flow lies 9e-4 from a level-4 puncture
_NEAR_PUNCTURE = [0.548397 - 1.193040j, 0.960227 + 1.049305j, -0.214281 - 0.318218j,
                  0.776116 - 0.060948j, 1.135441 - 1.060996j]

# (spectrum, seed, selector, steps, sample_every): grids of 11 to 1001 kept
# times, so from one chunk of 64 to sixteen
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
    tracker = tower._TauTracker(pt.n, DEFAULT_MINOR_CONVENTION, default_base_point(pt))
    taus, hs, flags = tracker.step(points, times)
    assert taus.shape == (len(times), len(tracker.keys)) and len(times) > 10
    for tau, h, flag, (tau_ref, h_ref, flag_ref) in zip(taus, hs, flags, want):
        assert list(tau_ref) == tracker.keys and list(h_ref) == tracker.h_keys
        assert np.max(np.abs(tau - list(tau_ref.values()))) <= 1e-12
        assert np.max(np.abs(h - list(h_ref.values()))) <= 1e-12 * np.max(np.abs(h))
        assert flag.tolist() == list(flag_ref.values())
    # the first sample is u0 itself: its taus are the tower's angles
    tower_taus = [t for lv in build_tower(pt).levels for t in lv.tau]
    assert np.max(np.abs(taus[0] - tower_taus)) <= 1e-12


@pytest.mark.parametrize("step_idx", [100, 130, 640])
def test_injected_regularity_loss_reports_the_oracle_time(monkeypatch, step_idx):
    # one checked grid point loses regularity: mid-chunk (kept index 100 is
    # the 37th of the second chunk), just past a chunk boundary, and late
    pt = sample_orbit(_SPECTRA[4], seed=4)
    target = _flow_loop(pt, (3, 2), sample_every=1)[1][step_idx]

    def margin(u):
        hit = np.all(np.abs(u - target) <= 1e-12 * np.max(np.abs(target)), axis=(-2, -1))
        return np.where(hit, 0.0, regularity_margin(u))

    monkeypatch.setattr(tower, "regularity_margin", margin)
    for every in (1, 25):
        want = _outcome(lambda: _flow_loop(pt, (3, 2), sample_every=every))
        got = _outcome(lambda: hamiltonian_flow(pt, (3, 2), sample_every=every))
        t = step_idx / 1000
        assert want == got == ("regularity", (t, f"regularity lost at t = {t}"))


@pytest.mark.parametrize("t_final, steps, every", [(1e4, 1000, 25), (1e4, 1000, 1), (10.0, 1, 1)])
def test_regularity_loss_out_of_range_reports_the_oracle_time(t_final, steps, every):
    # u(t) overflows, or (t = 10, h[4,3]) its minors do: the first failing
    # checked or sampled time, over grids of one to sixteen chunks
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
    want = _outcome(lambda: _flow_loop(pt, (4, 3), t_final, steps, sample_every=every))
    got = _outcome(lambda: hamiltonian_flow(pt, (4, 3), t_final, steps, sample_every=every))
    assert want[0] == "regularity" and got == want


# a geometry flow whose straight-path tau[4,1] changes sheet along the way
_JUMPING = ([0.370469 + 0.085768j, 0.830049 - 0.121992j, 0.339010 - 1.312951j,
             1.251893 + 0.423985j, -1.381221 + 1.057899j], 248819507)


@pytest.mark.parametrize("samples", [40, 500])
def test_branch_jump_reports_the_oracle_key_and_magnitude(samples):
    # 41 samples in one chunk, or 501 in eight: the first jump of either run
    # names the same key and magnitude
    spectrum, seed = _JUMPING
    pt = sample_orbit(spectrum, seed=seed)
    every = max(1, 1000 // samples)
    want = _outcome(lambda: _tracked_loop(pt, (4, 3), 1000, every))
    got = _outcome(lambda: trajectory_records(pt, (4, 3), samples=samples))
    assert want[0] == "jump" and got == want


def test_tracker_raises_the_oracle_error_at_an_overflowing_sample(monkeypatch):
    # 100 samples 0.001 apart, the 81st (17th of the tracker's second chunk)
    # replaced by u(10), whose minors overflow: the tracker fails there, at
    # the oracle's time, after the 80 samples before it pass
    monkeypatch.setattr(tower, "regularity_margin", lambda u: np.full(np.shape(u)[:-2], np.inf))
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=2)
    times, points = _flow_loop(pt, (4, 3), steps=1000, sample_every=1)
    times, points = times[:100].copy(), points[:100]
    times[80], points[80] = 10.0, _flow_loop(pt, (4, 3), t_final=10.0, steps=1)[1][-1]
    assert np.isfinite(points[80]).all()
    lam0 = default_base_point(pt)
    oracle = _TrackerLoop(pt.u, DEFAULT_MINOR_CONVENTION, lam0)
    want = _outcome(lambda: [oracle.step(u, t) for t, u in zip(times, points)])
    tracker = tower._TauTracker(pt.n, DEFAULT_MINOR_CONVENTION, lam0)
    got = _outcome(lambda: tracker.step(points, times))
    assert want == got == ("regularity", (10.0, "regularity lost at t = 10.0"))


def _faulty_level_stack(faults):
    """The level-data kernel with faults injected at given points u, each
    (kind, level n, u): 'jump' scales C_n by e^4, so tau[n,1] jumps by 4;
    'drop' loses a root of A_n; 'through' moves an e-point of level n onto
    a puncture; 'coincide' makes two punctures of level n equal."""
    kernel = orbits._level_stack

    def patched(us, convention, lowering):
        coeffs, roots, finite = kernel(us, convention, lowering)
        N = us.shape[-1]
        for kind, n, u in faults:
            hit = np.all(us == u, axis=(1, 2))
            if kind == "jump":
                coeffs[N + n - 1][hit] *= np.exp(4.0)
            elif kind == "drop":
                roots[n - 1][hit, -1] = np.nan
            elif kind == "through":
                roots[N + n - 1][hit, 0] = roots[n - 1][hit, 0]
            else:
                roots[n - 1][hit, 1] = roots[n - 1][hit, 0]
        return coeffs, roots, finite
    return patched


# (kind, level, sample) faults among the first 80 samples of a flow whose
# tau[4,1] first jumps at sample 82, and the error they give: the first
# failing sample decides, and within a sample the per-sample order does
# (root counts, then the angles level by level: endpoints, punctures,
# previous roots, then the jumps).  The tracker's first chunk is 0-63.
_FAULTS = {
    "jump-before-drop": ([("jump", 2, 5), ("drop", 3, 10)], "BranchJumpError"),
    "drop-before-jump": ([("drop", 3, 70), ("jump", 2, 75)], "TrackingError"),
    "through-before-jump": ([("through", 4, 30), ("jump", 1, 40)], "PathThroughPunctureError"),
    "jump-before-coincide": ([("jump", 3, 66), ("coincide", 3, 80)], "BranchJumpError"),
    "coincide-before-through": ([("coincide", 2, 50), ("through", 4, 50)],
                                "CoincidentPuncturesError"),
    "through-before-coincide": ([("coincide", 2, 45), ("through", 2, 45)],
                                "PathThroughPunctureError"),
    "drop-before-coincide": ([("coincide", 2, 20), ("drop", 4, 20)], "TrackingError"),
    "jump-at-the-boundary": ([("jump", 4, 64), ("through", 3, 65)], "BranchJumpError"),
}


@pytest.mark.parametrize("case", _FAULTS)
def test_tracker_raises_the_error_of_the_first_failing_sample(monkeypatch, case):
    faults, kind = _FAULTS[case]
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0, 5.0], seed=2)
    times, points = _flow_loop(pt, (4, 3), steps=1000, sample_every=1)
    times, points = times[:81], points[:81]
    patched = _faulty_level_stack([(fault, n, points[s]) for fault, n, s in faults])
    monkeypatch.setattr(orbits, "_level_stack", patched)
    monkeypatch.setattr(tower, "_level_stack", patched)
    lam0 = default_base_point(pt)

    def outcome(run):
        try:
            run()
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return "ok", ""

    oracle = _TrackerLoop(pt.u, DEFAULT_MINOR_CONVENTION, lam0)
    want = outcome(lambda: [oracle.step(u, t) for t, u in zip(times, points)])
    tracker = tower._TauTracker(pt.n, DEFAULT_MINOR_CONVENTION, lam0)
    got = outcome(lambda: tracker.step(points, times))
    assert got == want and want[0] == kind
    if kind == "BranchJumpError":
        assert want[1] == f"tau[{faults[0][1]},1] jumped by 4.000 between samples"


def test_stacked_angles_match_one_level_calls():
    # each row of a stack gets the one-level result, and a stack fails at
    # its first failing row with that row's error
    rng = np.random.default_rng(7)
    cloud = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gamma, e, prev, lead = cloud(6, 4), cloud(6, 3), cloud(6, 3), cloud(6)
    res = angle_variables(gamma, e, prev, 6.0, leading_coeff=lead)
    for row in range(6):
        one = angle_variables(gamma[row], e[row], prev[row], 6.0, leading_coeff=lead[row])
        assert np.max(np.abs(res.tau[row] - one.tau)) <= 1e-13
        assert np.max(np.abs(res.tau_literal[row] - one.tau_literal)) <= 1e-13
        assert np.max(np.abs(differentials(gamma).residues[row]
                             - differentials(gamma[row]).residues)) == 0.0
    gamma[4, 2] = gamma[4, 0]
    e[3, 1] = gamma[3, 3]
    for rows, kind, first in ((slice(None), PathThroughPunctureError, 3),
                              (slice(4, None), tower.CoincidentPuncturesError, 0)):
        with pytest.raises(kind) as err:
            angle_variables(gamma[rows], e[rows], prev[rows], 6.0, augment=False)
        assert err.value.row == first
        with pytest.raises(kind):
            angle_variables(gamma[rows][first], e[rows][first], prev[rows][first], 6.0,
                            augment=False)


# ---------------------------------------------------------------------------
# linearization and the canonical pairing
# ---------------------------------------------------------------------------

def test_linearization_n2():
    pt = sample_orbit([0.5, -1.0 + 0.5j], seed=3)
    rep = linearization_check(pt, (1, 1))
    assert rep.status == "ok"
    assert abs(rep.slopes[(1, 1)] - 1.0) < 1e-3


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
