"""Closed-form chart derivatives against central-difference oracles.

The stencils below are the finite-difference oracles the canonical chart,
residue-form and action-angle checks used before their derivatives became
analytic; they stay here as independent oracles.  The entry-wise gradients
take the package's one stencil, poisson.central_gradient.
"""

import itertools

import numpy as np
import pytest

from _tracking import chart_thetas, eager_derivatives, eager_point, tracked_level_data
from gztower import orbits
from gztower.orbits import (
    OrbitPoint,
    OrbitTangent,
    gz_forward,
    random_spectrum,
    residue_form_check,
    sample_orbit,
    verify_canonical_chart,
)
from gztower.poisson import central_gradient
from gztower.tower import action_angle_bracket_table, action_gradient, build_tower

ORIENTATIONS = pytest.mark.parametrize("rows", [True, False], ids=["rows", "cols"])


# ---------------------------------------------------------------------------
# the stencil oracles
# ---------------------------------------------------------------------------

def _central_gradients(f, u, step):
    """central_gradient d/du[a, b] of each value of f(u), a dict with the same
    keys in the same order at every u."""
    grads = central_gradient(lambda v, k: list(f(np.reshape(v, u.shape)).values()),
                             u.ravel().tolist(), step)
    grads = np.array(grads).reshape(u.shape + (-1,))
    return {key: grads[..., i] for i, key in enumerate(f(u))}


def _matched_chart_values(u, base, base_theta, rows):
    """Chart functions at a nearby u, tracked against the base level data;
    rows False: the angles of the transposed lowering minors."""
    lv = tracked_level_data(u, base)
    out = {}
    for n, roots in enumerate(lv.gamma, start=1):
        for j, g in enumerate(roots):
            out[("gamma", n, j + 1)] = g
    thetas = chart_thetas(lv, None if rows else u)
    for n, (val, ref) in enumerate(zip(thetas, base_theta), start=1):
        # branch continuity: shift by the multiple of 2*pi*i nearest the base
        val = val + 2j * np.pi * np.round((ref - val).imag / (2.0 * np.pi))
        for j, v in enumerate(val):
            out[("theta", n, j + 1)] = v
    return out


def _chart_gradients(pt, rows, step=1e-5):
    """Stencil gradients of every chart function, [a, b] = dF/du[a, b]."""
    base = pt.levels()
    theta = chart_thetas(base, None if rows else pt.u)
    return _central_gradients(
        lambda u: _matched_chart_values(u, base, theta, rows), pt.u, step)


def _tower_angles(u, spectrum):
    """Augmented tau[m, l] of a freshly built tower; continuous in u, since each
    sums over the divisor points and punctures in any order."""
    levels = build_tower(OrbitPoint(u=u, spectrum=spectrum), lam0=10.0).levels
    return {(lv.n, k): tau for lv in levels for k, tau in enumerate(lv.tau, start=1)}


def _tangent_chart_data(pt, xi, step, rows, base):
    """Directional derivatives of roots and log-minors along one tangent;
    those of C_n at gamma by direct determinants of its rows or transposed
    (cols) minors."""
    u = pt.u
    N = pt.n
    h = step * max(1.0, float(np.linalg.norm(u))) / max(1.0, float(np.linalg.norm(xi)))
    p, m = (tracked_level_data(u + sgn * h * xi, base) for sgn in (1.0, -1.0))

    def dlog(plus, minus, at, z):
        return (np.polyval(plus, z) - np.polyval(minus, z)) / (2 * h * np.polyval(at, z))

    def dlog_c(n):
        minor, g = orbits._level_minors(N, rows)[N + n - 1], base.gamma[n - 1]
        at = lambda v: orbits._minor_at(v, minor, g)
        return (at(u + h * xi) - at(u - h * xi)) / (2 * h * at(u))

    return {
        "dgamma": [(gp - gm) / (2 * h) for gp, gm in zip(p.gamma, m.gamma)],
        "de": [(ep - em) / (2 * h) for ep, em in zip(p.e, m.e)],
        "la_at_e": [dlog(p.a[n], m.a[n], base.a[n], base.e[n - 1]) for n in range(1, N)],
        "lc_at_gamma": [dlog_c(n) for n in range(1, N)],
        "la_at_gamma_prev": [dlog(p.a[n], m.a[n], base.a[n], base.gamma[n - 2])
                             for n in range(2, N)],
    }


def _close(analytic, oracle, rel):
    scale = max(1.0, float(np.max(np.abs(analytic), initial=0.0)))
    return float(np.max(np.abs(analytic - oracle), initial=0.0)) <= rel * scale


def _points():
    rng = np.random.default_rng(2024)
    return [sample_orbit(random_spectrum(n, rng), seed=rng) for n in (2, 3, 4, 5)]


POINTS = _points()


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pt", POINTS, ids=lambda pt: f"N{pt.n}")
def test_the_stencil_angles_are_the_charts(pt):
    # the oracle's rows angles are gz_forward's, bit for bit
    for oracle, chart in zip(chart_thetas(pt.levels()), gz_forward(pt).theta, strict=True):
        assert np.array_equal(oracle, chart)


@ORIENTATIONS
@pytest.mark.parametrize("pt", POINTS, ids=lambda pt: f"N{pt.n}")
def test_chart_gradients_match_the_stencil(pt, rows):
    # cols: the theta gradients of the sweep's negative control
    eager = eager_point(pt.u, rows)
    oracle = _chart_gradients(pt, rows)
    for n, stack in enumerate(eager.punctures()[0], start=1):
        for j, grad in enumerate(stack, start=1):
            assert _close(grad, oracle[("gamma", n, j)], 1e-6), ("gamma", n, j)
    for n, stack in enumerate(orbits._theta_gradients(eager, rows), start=1):
        for j, grad in enumerate(stack, start=1):
            assert _close(grad, oracle[("theta", n, j)], 1e-6), ("theta", n, j)


@ORIENTATIONS
@pytest.mark.parametrize("pt", POINTS, ids=lambda pt: f"N{pt.n}")
def test_tangent_derivatives_match_the_stencil(pt, rows):
    # every piece of the residue form, along one random tangent [x, u], and
    # the log-minors of C_n at gamma in either orientation
    u, N = pt.u, pt.n
    rng = np.random.default_rng(N)
    xi = OrbitTangent(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))).vector(u)
    lv, (dgamma, _), _, _, (de, _), _ = eager_derivatives(u)
    c_at_gamma = eager_point(u, rows).c_at_gamma(rows)
    oracle = _tangent_chart_data(pt, xi, 1e-6, rows, lv)
    along = lambda grads: np.einsum("kab,ab->k", grads, xi)
    minors = orbits._level_minors(N)
    log_a = lambda n, lams: along(orbits._minor_gradients(u, minors[n - 1], lams, roots=False)[0])
    for n in range(1, N + 1):
        assert _close(along(dgamma[n - 1]), oracle["dgamma"][n - 1], 1e-6)
    for n in range(1, N):
        assert _close(along(de[n - 1]), oracle["de"][n - 1], 1e-6)
        assert _close(log_a(n, lv.e[n - 1]), oracle["la_at_e"][n - 1], 1e-6)
        assert _close(along(c_at_gamma[n - 1][0]), oracle["lc_at_gamma"][n - 1], 1e-6)
    for n in range(2, N):
        assert _close(log_a(n, lv.gamma[n - 2]), oracle["la_at_gamma_prev"][n - 2], 1e-6)


@pytest.mark.parametrize("pt", POINTS[:3], ids=lambda pt: f"N{pt.n}")
def test_action_angle_table_matches_the_stencil(pt):
    # {h, tau} = tr(grad tau [X, u]) with the stencil gradient of the
    # tower's angles
    u = pt.u
    grads = _central_gradients(lambda v: _tower_angles(v, pt.spectrum), u, 1e-6)
    rep = action_angle_bracket_table(pt)
    for (ka, kb), val in zip(itertools.product(rep.keys, repeat=2), rep.h_tau.ravel()):
        X = action_gradient(pt, ka)
        oracle = np.sum(grads[kb] * (X @ u - u @ X))
        assert abs(val - oracle) < 1e-6 * max(1.0, abs(oracle)), (ka, kb)


def test_punctures_of_a_hermitian_point_are_perfectly_conditioned():
    # every u_n of a Hermitian u is normal, so its left and right
    # eigenvectors coincide and each puncture has condition 1
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    u = q @ np.diag([1.0, 2.0, 4.0]) @ q.conj().T
    for conditions in eager_derivatives(u).punctures[1]:
        assert np.allclose(conditions, 1.0)


# ---------------------------------------------------------------------------
# the three checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", range(2, 9), ids=lambda N: f"N{N}")
def test_canonical_table_is_exact_to_rounding(N):
    # the point of POINTS at N, if any, and six more sampled at N
    rng = np.random.default_rng(300 + N)
    sampled = [sample_orbit(random_spectrum(N, rng), seed=rng) for _ in range(6)]
    for pt in [pt for pt in POINTS if pt.n == N] + sampled:
        rep = verify_canonical_chart(pt)
        assert rep.winner == "rows"
        assert rep.max_deviation <= 1e-10
        assert rep.casimir_deviation <= 1e-10
        # the negative control fails on every point: the transposed minors
        # read about 2, so the sweep still tells them apart
        devs = {v["convention"]: v["max_deviation"] for v in rep.variants}
        assert abs(devs["cols"] - 2.0) < 1e-6
        assert rep.to_json()["derivatives"] == "analytic"


@pytest.mark.parametrize("pt", POINTS, ids=lambda pt: f"N{pt.n}")
def test_action_angle_table_is_exact_to_rounding(pt):
    rep = action_angle_bracket_table(pt)
    assert rep.status == "ok"
    assert rep.max_deviation_upper <= 1e-10
    assert rep.keys[0] == (1, 1) and abs(rep.h_tau[0, 0] - 1.0) <= 1e-10


@pytest.mark.parametrize("pt", POINTS, ids=lambda pt: f"N{pt.n}")
def test_residue_form_is_exact_to_rounding(pt):
    rng = np.random.default_rng(7)
    draw = lambda: OrbitTangent(rng.standard_normal((pt.n, pt.n))
                                + 1j * rng.standard_normal((pt.n, pt.n)))
    rep = residue_form_check(pt, [(draw(), draw()) for _ in range(5)])
    assert rep.winner == "contour=A term1_sign=-1 overall_sign=-1"
    assert rep.variants[0]["max_deviation"] <= 1e-10


@pytest.mark.parametrize("spectrum,seed", [
    ((-0.411909 - 0.159561j, 0.782366 - 0.384436j, -1.420546 - 0.068778j), 1353597071),
    ((-0.017983 + 0.123423j, 0.06666 - 0.860506j, -0.062899 + 0.835741j), 522896616),
], ids=["pass11", "pass19"])
def test_battery_seed1_chart_points_are_canonical(spectrum, seed):
    # the finite-difference table read 2.3e-5 and 1.3e-5 here, over 1e-5
    pt = sample_orbit(list(spectrum), seed=seed)
    rep = verify_canonical_chart(pt)
    assert rep.status == "ok"
    assert max(rep.max_deviation, rep.casimir_deviation) < 1e-10


def test_level_one_n1_and_n2_edges():
    # N=2 has one angle and one lowering minor; at N=1 every check would
    # pass on zero cases, so each refuses the point
    pt = sample_orbit([0.5, -1.0 + 0.5j], seed=3)
    assert verify_canonical_chart(pt).status == "ok"
    assert action_angle_bracket_table(pt).status == "ok"
    x = OrbitTangent(np.eye(pt.n) + 0.5j)
    assert residue_form_check(pt, [(x, OrbitTangent(pt.u.copy()))]).status == "ok"
    with pytest.raises(ValueError, match="no tangent pair"):
        residue_form_check(pt, [])
    pt = sample_orbit([0.3 + 0.4j], seed=3)
    x = OrbitTangent(np.eye(1) + 0.5j)
    for check in (verify_canonical_chart, action_angle_bracket_table,
                  lambda pt: residue_form_check(pt, [(x, OrbitTangent(pt.u.copy()))])):
        with pytest.raises(ValueError, match="N = 1"):
            check(pt)
