import numpy as np
import pytest

from _tracking import eager_derivatives, eager_point
from gztower import orbits
from gztower.orbits import (
    MinorConvention,
    OrbitError,
    OrbitPoint,
    OrbitTangent,
    SingularChartError,
    chart_residuals,
    gz_forward,
    kk_bracket,
    lowering_minor_coeffs,
    random_spectrum,
    regularity_margin,
    residue_form_check,
    sample_orbit,
    verify_canonical_chart,
)
from gztower.poisson import (
    CanonicalPoint,
    canonical_bracket,
    random_canonical_point,
    u_as_canonical,
)
from gztower.polytools import lambda_minor_det, roots_polished


# ---------------------------------------------------------------------------
# sampling and regularity
# ---------------------------------------------------------------------------

def test_sample_orbit_matches_spectrum():
    pt = sample_orbit([1.0, 2.0], seed=0)
    roots = np.sort_complex(roots_polished(lambda_minor_det(pt.u, range(2), range(2))))
    assert np.max(np.abs(roots - np.array([1.0, 2.0]))) < 1e-10


def test_sample_orbit_rejects_repeated_spectrum():
    with pytest.raises(OrbitError):
        sample_orbit([1.0, 1.0 + 1e-9], seed=0)


def test_sample_orbit_n1():
    pt = sample_orbit([0.3 + 0.4j], seed=0)
    assert np.allclose(pt.u, [[0.3 + 0.4j]])


def test_orbit_point_create_checks_spectrum():
    u = np.diag([1.0, 2.0]) + np.array([[0.0, 1.0], [0.3, 0.0]])
    with pytest.raises(OrbitError):
        OrbitPoint.create(u, spectrum=[5.0, 6.0])


def test_orbit_point_create_matches_a_declared_spectrum():
    # eigenvalues 1..4 of a regular u, declared in any order and within
    # 1e-10; a move of 1e-9, a repeated entry or a wrong count is rejected
    pt = sample_orbit([1.0, 2.0, 3.0, 4.0], seed=1)
    eig = np.linalg.eigvals(pt.u)
    for declared in (eig[::-1], eig + 1e-12, [4, 2, 3, 1]):
        got = OrbitPoint.create(pt.u, spectrum=declared)
        assert np.max(np.abs(got.spectrum - [1, 2, 3, 4])) < 1e-10
    for declared in (eig + 1e-9, [1, 2, 3, 3], list(eig) + [5.0], eig[:3]):
        with pytest.raises(OrbitError, match="does not match the declared one"):
            OrbitPoint.create(pt.u, spectrum=declared)


def test_orbit_point_create_checks_regularity_first():
    u = np.array([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(OrbitError, match="not regular"):
        OrbitPoint.create(u, spectrum=[5.0, 6.0])


def test_orbit_point_json_roundtrip():
    pt = sample_orbit([1.0, -1.0, 2.0 + 1j], seed=5)
    back = OrbitPoint.from_json(pt.to_json())
    assert np.allclose(back.u, pt.u)
    assert np.allclose(back.spectrum, pt.spectrum)


def test_triangular_matrix_is_not_regular():
    # nested minors of a triangular matrix share roots, so the chart is
    # undefined there; the regularity margin sees the collision
    u = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    assert regularity_margin(u) < 1e-12


# ---------------------------------------------------------------------------
# the forward chart
# ---------------------------------------------------------------------------

def test_gamma_of_triangular_matrix_is_the_diagonal():
    # the level data only; theta is singular for triangular u
    u = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    pt = OrbitPoint(u=u, spectrum=np.array([1.0, 3.0], dtype=complex))
    gamma = pt.levels().gamma
    assert np.allclose(gamma[0], [1.0])
    assert np.allclose(np.sort_complex(gamma[1]), [1.0, 3.0])


def test_gz_forward_singular_chart_raises():
    u = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    pt = OrbitPoint(u=u, spectrum=np.array([1.0, 3.0], dtype=complex))
    with pytest.raises(SingularChartError):
        gz_forward(pt)


def test_top_level_gamma_equals_spectrum():
    pt = sample_orbit([1.0, 2.0, 3.0], seed=7)
    chart = gz_forward(pt)
    assert np.max(np.abs(np.sort_complex(chart.gamma[2])
                         - np.sort_complex(pt.spectrum))) < 1e-9


# N=8 takes well under a second with polynomial-time minors and root
# matching, and tens of seconds with factorial ones
@pytest.mark.parametrize("n,seed", [(2, 1), (3, 2), (4, 3), (8, 8)])
def test_chart_residuals_random_orbits(n, seed):
    rng = np.random.default_rng(seed)
    pt = sample_orbit(random_spectrum(n, rng), seed=rng)
    chart = gz_forward(pt)
    res_a, res_c = chart_residuals(chart, pt)
    assert res_a < 1e-9
    assert res_c < 1e-9
    # the residuals are relative; on these scales the absolute ones hold too
    a_prev = np.ones(1)
    for k, (g, theta) in enumerate(zip(chart.gamma, chart.theta + [None]), start=1):
        a_k = lambda_minor_det(pt.u, range(k), range(k))
        assert np.max(np.abs(np.poly(g) - a_k)) < 1e-9
        if theta is not None:
            c_k = lowering_minor_coeffs(pt.u, k)
            rhs = -np.polyval(a_prev, g) * np.exp(theta)
            assert np.max(np.abs(np.polyval(c_k, g) - rhs)) < 1e-9
        a_prev = a_k


def _r_spectrum(N):
    """R_N: the first N draws of complex(*rng.uniform(-1.5, 1.5, 2)), rng =
    default_rng(5), each kept when at least 0.35 from every kept one, and
    rounded to three decimals as the command line takes them."""
    rng, kept = np.random.default_rng(5), []
    while len(kept) < N:
        z = complex(*rng.uniform(-1.5, 1.5, 2))
        if all(abs(z - k) >= 0.35 for k in kept):
            kept.append(z)
    return [complex(f"{z.real:.3f}{z.imag:+.3f}j") for z in kept]


def test_chart_is_canonical_at_n20():
    # at N=20 roots of monomial coefficients of degree up to 20 lose the
    # chart (a sweep deviation of 108); roots from eigenvalues keep it, and
    # the residuals against u stay near round-off
    pt = sample_orbit(_r_spectrum(20), seed=3)
    rep = verify_canonical_chart(pt)
    assert rep.status == "ok" and rep.winner == "rows"
    res_a, res_c = chart_residuals(gz_forward(pt), pt)
    assert res_a < 1e-9 and res_c < 1e-9


def test_lowering_minor_matches_lagrange_interpolation():
    # C_n is the degree n-1 polynomial through the points
    # (gamma[n,j], -A_{n-1}(gamma[n,j]) e^theta[n,j]); the minor from u must
    # coincide with that interpolation coefficient by coefficient
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.5], seed=9)
    chart = gz_forward(pt)
    for n in (1, 2):
        gams = chart.gamma[n - 1]
        a_prev = (lambda_minor_det(pt.u, range(n - 1), range(n - 1)) if n > 1
                  else np.array([1.0 + 0j]))
        values = [-np.polyval(a_prev, g) * np.exp(chart.theta[n - 1][j])
                  for j, g in enumerate(gams)]
        interp = np.zeros(n, dtype=complex)
        for j, g in enumerate(gams):
            basis = np.array([1.0 + 0j])
            denom = 1.0 + 0j
            for s, gs in enumerate(gams):
                if s != j:
                    basis = np.polymul(basis, np.array([1.0, -gs]))
                    denom *= g - gs
            contrib = values[j] / denom * basis
            interp[n - len(contrib):] += contrib
        minor = lowering_minor_coeffs(pt.u, n)
        assert np.max(np.abs(interp - minor)) < 1e-9


def test_chart_json():
    pt = sample_orbit([1.0, -2.0], seed=2)
    data = gz_forward(pt).to_json()
    assert data["n"] == 2
    assert len(data["gamma"]) == 2 and len(data["theta"]) == 1
    assert data["minor_convention"] == "rows"


# ---------------------------------------------------------------------------
# the Kirillov-Kostant oracle
# ---------------------------------------------------------------------------

def test_kk_entry_bracket_matches_gl_relation():
    pt = sample_orbit([1.0, 2.0, 3.0], seed=7)
    val = kk_bracket(lambda u: u[0, 1], lambda u: u[1, 0], pt.u)
    assert abs(val - (pt.u[0, 0] - pt.u[1, 1])) < 1e-5
    # another index pattern: {u[1,2], u[2,3]} = u[1,3]
    val = kk_bracket(lambda u: u[0, 1], lambda u: u[1, 2], pt.u)
    assert abs(val - pt.u[0, 2]) < 1e-5


def test_kk_antisymmetry_and_casimir():
    pt = sample_orbit([1.0, 2.0, 3.0], seed=7)
    f = lambda u: u[0, 1]
    assert abs(kk_bracket(f, f, pt.u)) < 1e-12
    assert abs(kk_bracket(lambda u: np.trace(u), f, pt.u)) < 1e-6


# polynomial and rational functions of u, none of them a Casimir
LINK_FUNCS = [
    lambda u: u[0, 1] * u[1, 0] + u[0, 0] ** 2,
    lambda u: (u @ u)[0, 1],
    lambda u: u[0, 1] / u[1, 1],
    lambda u: u[1, 0] / (3.0 + u[0, 0] * u[1, 1]),
]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kk_oracle_matches_the_canonical_oracle_through_the_momentum_map(n):
    # {f, h}(u) = {f o mu, h o mu}(g, p) with mu(g, p) = p^T g, at g = 1, p = u^T
    rng = np.random.default_rng(n)
    pull = lambda f: (lambda pt: f(pt.p.T @ pt.g))
    for _ in range(2):
        u = u_as_canonical(random_canonical_point(n, rng))
        pt = CanonicalPoint(np.eye(n), u.T)
        for i, f in enumerate(LINK_FUNCS):
            for h in LINK_FUNCS[i + 1:]:
                expected = canonical_bracket(pull(f), pull(h), pt)
                assert abs(kk_bracket(f, h, u) - expected) < 1e-7 * max(1.0, abs(expected))


def test_left_family_restriction_commutes():
    # coefficients of the nested minors pairwise commute in the orbit bracket
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)

    def coeff(n, k):
        return lambda u: complex(lambda_minor_det(u, range(n), range(n))[k])

    funcs = [coeff(n, k) for n in (1, 2, 3) for k in range(1, n + 1)]
    worst = 0.0
    for i, f in enumerate(funcs):
        for h in funcs[i + 1:]:
            worst = max(worst, abs(kk_bracket(f, h, pt.u, step=1e-6)))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# chart canonicity
# ---------------------------------------------------------------------------

def test_canonical_chart_n2():
    pt = sample_orbit([0.5, -1.0 + 0.5j], seed=3)
    rep = verify_canonical_chart(pt)
    assert rep.status == "ok"
    assert rep.winner == "rows"
    assert rep.max_deviation < 1e-5
    assert rep.casimir_deviation < 1e-5


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_transposed_minor_reads_minus_the_angle(N):
    # at a puncture gamma of A_n, the Desnanot-Jacobi identity on the block
    # gamma - u_(n+1) gives C^rows_n C^cols_n = -A_(n+1) A_(n-1), so
    # theta_cols = -theta_rows + f(gamma): {theta, gamma} reads -1 where +1
    # is due, and the cols orientation deviates by 2 exactly
    rng = np.random.default_rng(100 + N)
    for _ in range(8):
        pt = sample_orbit(random_spectrum(N, rng), seed=rng)
        rows, cols = pt.levels(MinorConvention(True)), pt.levels(MinorConvention(False))
        for n in range(1, N):
            g = rows.gamma[n - 1]
            lhs = np.polyval(rows.c[n - 1], g) * np.polyval(cols.c[n - 1], g)
            rhs = -np.polyval(rows.a[n + 1], g) * np.polyval(rows.a[n - 1], g)
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-10
        rep = verify_canonical_chart(pt)
        assert [v["convention"] for v in rep.variants] == ["rows", "cols"]
        assert rep.winner == "rows"
        assert abs(rep.variants[1]["max_deviation"] - 2.0) <= 1e-8


@pytest.mark.parametrize("N", [2, 5, 8])
def test_sweep_bracket_matrix_equals_the_einsum(N):
    # the bracket table as one flattened matrix product is the per-pair
    # trace tr(u G_a G_b), up to the order of its sums
    pt = sample_orbit(random_spectrum(N, np.random.default_rng(N)), seed=N)
    for conv in (MinorConvention(True), MinorConvention(False)):
        grads = np.concatenate(pt.punctures()[0] + orbits._theta_gradients(pt, conv)
                               ).transpose(0, 2, 1)
        T = np.einsum("aij,bji->ab", pt.u @ grads, grads)
        kk = orbits._canonicity_deviation(pt, conv)[2]
        assert np.max(np.abs(kk - (T.T - T))) <= 1e-13 * np.max(np.abs(T))


def test_canonical_chart_n3_full_table():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    rep = verify_canonical_chart(pt)
    assert rep.status == "ok"
    assert rep.winner == "rows"


def _count_lowering_kernels(monkeypatch):
    """The minors of every run of the level kernel that finds the roots of
    the lowering minors alone."""
    runs, kernel = [], orbits._level_roots

    def counted(u, convention, lowering=False):
        out = kernel(u, convention, lowering)
        if lowering:
            runs.append(len(out[1]))
        return out

    monkeypatch.setattr(orbits, "_level_roots", counted)
    return runs


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_a_reported_cols_convention_equals_an_eager_computation(monkeypatch, N):
    # with the two orientations swapped, the rows C_n are the transposed
    # minors and cols wins the sweep: its level kernel runs once, and the
    # report equals the bracket table of an eager computation
    pt = sample_orbit(random_spectrum(N, np.random.default_rng(N)), seed=N)
    minors = orbits._level_minors
    monkeypatch.setattr(orbits, "_level_minors", lambda n, rows: minors(n, not rows))
    cols = MinorConvention(False)
    fresh = OrbitPoint(u=pt.u, spectrum=pt.spectrum)
    fresh.levels()
    runs = _count_lowering_kernels(monkeypatch)
    rep = verify_canonical_chart(fresh)
    assert runs == [N - 1]
    assert rep.winner == "cols" and rep.status == "ok"
    assert abs(rep.variants[0]["max_deviation"] - 2.0) <= 1e-8
    eager = eager_derivatives(pt.u, cols)
    dev, cas, kk = orbits._canonicity_deviation(eager_point(pt.u, cols), cols)
    assert (rep.max_deviation, rep.casimir_deviation) == (dev, cas)
    assert rep.table == orbits._bracket_table(kk, N)
    assert rep.conditioning == eager.conditioning


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_a_sweep_without_winner_reports_the_rows_table(monkeypatch, N):
    # no convention within 1e-30: the report takes the smaller deviation,
    # rows, with the rows table and conditioning, and finds no cols roots
    pt = sample_orbit(random_spectrum(N, np.random.default_rng(10 + N)), seed=N)
    runs = _count_lowering_kernels(monkeypatch)
    rep = verify_canonical_chart(pt, tolerance=1e-30)
    assert runs == []
    assert rep.winner is None and rep.status == "violation" and len(rep.variants) == 2
    ok = verify_canonical_chart(OrbitPoint(u=pt.u, spectrum=pt.spectrum))
    assert ok.winner == "rows" and rep.table and rep.table == ok.table
    assert rep.conditioning == ok.conditioning
    assert rep.max_deviation == ok.max_deviation == rep.variants[0]["max_deviation"]


def _ix_minor_gradients(u, minor, lams, roots):
    """_minor_gradients with P and the block index built on each call."""
    rows, cols = minor
    P = np.equal.outer(rows, cols)
    M = lams[:, None, None] * P - u[np.ix_(rows, cols)]
    if roots:
        left, _, right = np.linalg.svd(M)
        y, z = left[:, :, -1].conj(), right[:, -1, :].conj()
        den = np.einsum("ki,ij,kj->k", y, P, z)
        block, extra = y[:, :, None] * z[:, None, :] / den[:, None, None], 1.0 / np.abs(den)
    else:
        inv = np.linalg.inv(M)
        block, extra = -inv.transpose(0, 2, 1), np.einsum("kij,ji->k", inv, P)
    grads = np.zeros((len(lams), *u.shape), dtype=complex)
    grads[:, np.array(rows)[:, None], np.array(cols)] = block
    return grads, extra


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_the_cached_minor_index_equals_the_ix_formula(N):
    rng = np.random.default_rng(N)
    u = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    for rows_variant in (True, False):
        for minor in orbits._level_minors(N, rows_variant):
            P, index = orbits._minor_index(*minor)
            assert orbits._minor_index(*minor)[0] is P
            for array in (P, *index):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
            # as many lams as the minor has roots (none for C_1), or a lam per row
            for roots, count in ((True, int(P.sum())), (False, len(minor[0]))):
                lams = rng.standard_normal(count) + 1j * rng.standard_normal(count)
                got = orbits._minor_gradients(u, minor, lams, roots=roots)
                want = _ix_minor_gradients(u, minor, lams, roots)
                assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))


# ---------------------------------------------------------------------------
# the contour form
# ---------------------------------------------------------------------------

def _random_pairs(n, count, rng):
    out = []
    for _ in range(count):
        x = OrbitTangent(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        y = OrbitTangent(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        out.append((x, y))
    return out


@pytest.mark.parametrize("spectrum,seed", [([0.5, -1.0 + 0.5j], 3),
                                           ([1.0, 2.0 + 0.5j, -1.0], 11)])
def test_residue_form_matches_kk(spectrum, seed):
    pt = sample_orbit(spectrum, seed=seed)
    rng = np.random.default_rng(seed)
    rep = residue_form_check(pt, _random_pairs(pt.n, 10, rng))
    assert rep.status == "ok"
    assert rep.winner == "contour=A term1_sign=-1 overall_sign=-1"


def _looped_pair_values(u, pairs):
    """_pair_values, one OrbitTangent.vector and one _kk per pair."""
    tangents = np.array([t.vector(u) for pair in pairs for t in pair]).reshape(len(pairs) * 2, -1)
    return tangents, np.array([orbits._kk(u, y.x, x.x) for x, y in pairs])


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_the_stacked_pair_values_equal_the_per_pair_loop(monkeypatch, N):
    rng = np.random.default_rng(20 + N)
    pt = sample_orbit(random_spectrum(N, rng), seed=N)
    pairs = _random_pairs(N, 7, rng)
    for got, want in zip(orbits._pair_values(pt.u, pairs), _looped_pair_values(pt.u, pairs),
                         strict=True):
        assert got.shape == want.shape and np.array_equal(got, want)
    stacked = residue_form_check(pt, pairs).to_json()
    monkeypatch.setattr(orbits, "_pair_values", _looped_pair_values)
    assert residue_form_check(pt, pairs).to_json() == stacked


def test_residue_form_degenerate_directions():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    rng = np.random.default_rng(0)
    x = OrbitTangent(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    # x = y: the form and the commutator pairing both vanish
    rep = residue_form_check(pt, [(x, x)])
    assert rep.status == "ok"
    # x = u commutes with u: the tangent vanishes, both sides are ~0
    rep = residue_form_check(pt, [(OrbitTangent(pt.u.copy()), x)])
    assert rep.status == "ok"
