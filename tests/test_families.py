import itertools
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gztower import families
from gztower.families import (
    PRIME,
    _SQRT_M1,
    CommutingFamily,
    FamilySpec,
    ResiduePoint,
    _coefficient_generators,
    _det_and_inverse,
    _gaussian_point,
    _gf_rows,
    _residue,
    _transpose,
    _trivial_gradients,
    _trivial_members,
    build_family,
    char_minor,
    independence_rank,
    random_rational_matrix,
    random_residue_point,
    verify_commutes,
    verify_independence,
    verify_trivial_numeric,
)
from gztower.poisson import (
    AmbientSizeError,
    CanonicalPoint,
    PoissonPoly,
    _gradients,
    canonical_bracket,
    central_gradient,
    evaluate_at,
    gradient_at,
    poly_function,
    random_canonical_point,
    u_as_canonical,
    utilde_as_canonical,
)

P = PoissonPoly


# ---------------------------------------------------------------------------
# characteristic minors
# ---------------------------------------------------------------------------

def test_char_minor_1x1():
    assert char_minor(2, 1) == P.lam(2) - P.u(2, 1, 1)


def test_char_minor_2x2_expansion():
    lam = P.lam(2)
    expected = ((lam - P.u(2, 1, 1)) * (lam - P.u(2, 2, 2))
                - P.u(2, 1, 2) * P.u(2, 2, 1))
    assert char_minor(2, 2) == expected


def test_corner_minor_1x1():
    # rows {2} x cols {1} of (lam - u): lam does not appear
    assert char_minor(2, 1, corner=True) == -P.u(2, 2, 1)


def test_char_minor_right_side_uses_ut():
    assert char_minor(2, 1, side="right") == P.lam(2) - P.ut(2, 1, 1)


def test_char_minor_evaluation_matches_numpy_det():
    rng = np.random.default_rng(0)
    for n, k in [(3, 1), (3, 2), (3, 3), (4, 3)]:
        u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        sub = lam * np.eye(k) - u[:k, :k]
        direct = np.linalg.det(sub)
        sym = evaluate_at(char_minor(n, k), u=u, lam=lam)
        assert abs(sym - direct) < 1e-10


def test_full_char_poly_conjugation_invariant():
    rng = np.random.default_rng(1)
    n = 3
    u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    poly = char_minor(n, n)
    lam = 0.7 - 0.3j
    before = evaluate_at(poly, u=u, lam=lam)
    after = evaluate_at(poly, u=v @ u @ np.linalg.inv(v), lam=lam)
    assert abs(before - after) < 1e-9


def _poly_det(entries):
    """Cofactor determinant of a square matrix of polynomials (the oracle
    for the column expansion that builds every determinant in src)."""
    n = entries[0][0].n
    cache = {}

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        key = rows + cols
        if key not in cache:
            out = P.zero(n)
            for pos, c in enumerate(cols):
                term = entries[rows[0]][c] * det(rows[1:], cols[:pos] + cols[pos + 1:])
                out = out + term if pos % 2 == 0 else out - term
            cache[key] = out
        return cache[key]

    idx = tuple(range(len(entries)))
    return det(idx, idx)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("corner", [False, True])
def test_char_minor_equals_the_cofactor_determinant(n, side, corner):
    gen = P.u if side == "left" else P.ut
    for k in range(1, n + 1):
        rows = range(n - k + 1, n + 1) if corner else range(1, k + 1)
        entries = [[(P.lam(n) if r == c else 0) - gen(n, r, c) for c in range(1, k + 1)]
                   for r in rows]
        assert char_minor(n, k, side=side, corner=corner) == _poly_det(entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mf_determinant_equals_the_cofactor_determinant(n):
    shift = random_rational_matrix(n, random.Random(n))
    entries = [[P.u(n, r, c) - P.mu(n) * shift[r - 1][c - 1] - (P.lam(n) if r == c else 0)
                for c in range(1, n + 1)] for r in range(1, n + 1)]
    fam = build_family(FamilySpec("mf", n, side="left", shift=shift))
    assert fam.generators == _coefficient_generators(_poly_det(entries), "MF")


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("nope", 2)
    with pytest.raises(ValueError):
        FamilySpec("mf", 2)  # missing shift
    with pytest.raises(ValueError):
        FamilySpec("gz-principal", 2, shift=((Fraction(1),),))


@pytest.mark.parametrize("side", ["right", "both"])
def test_an_mf_spec_on_another_side_than_left_is_refused(side):
    # mf is built from u alone: a spec that states another side would
    # report a side it never checked
    shift = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
    with pytest.raises(ValueError, match="one-sided"):
        FamilySpec("mf", 2, side, shift)
    with pytest.raises(ValueError, match="one-sided"):
        FamilySpec("mf", 2, "left", shift)._replace(side=side)


def test_family_spec_validates_a_replaced_or_made_spec():
    spec = FamilySpec("gz-principal", 2)
    with pytest.raises(ValueError, match="unknown side"):
        spec._replace(side="up")
    with pytest.raises(ValueError, match="required exactly for the mf family"):
        FamilySpec._make(("mf", 2, "left", None))
    assert spec._replace(side="left") == FamilySpec("gz-principal", 2, "left")
    assert type(spec._replace(n=3)) is FamilySpec


def test_gz_principal_n1():
    fam = build_family(FamilySpec("gz-principal", 1, "both"))
    assert [p for _, p in fam.generators] == [-P.u(1, 1, 1)]


def test_gz_principal_n2_members():
    fam = build_family(FamilySpec("gz-principal", 2, "both"))
    assert len(fam.generators) == 4
    members = {label: poly for label, poly in fam.generators}
    assert members["L[k=1] lam^0"] == -P.u(2, 1, 1)
    assert members["R[k=1] lam^0"] == -P.ut(2, 1, 1)
    assert members["I[k=2] lam^1"] == -(P.u(2, 1, 1) + P.u(2, 2, 2))
    assert members["I[k=2] lam^0"] == (P.u(2, 1, 1) * P.u(2, 2, 2)
                                       - P.u(2, 1, 2) * P.u(2, 2, 1))


def test_generator_count_is_n_squared():
    for n in (1, 2, 3, 4):
        fam = build_family(FamilySpec("gz-principal", n, "both"))
        assert len(fam.generators) == n * n


def test_mf_diagonal_example_against_numeric_det():
    spec = FamilySpec("mf", 2, side="left",
                      shift=((Fraction(1), Fraction(0)),
                             (Fraction(0), Fraction(0))))
    fam = build_family(spec)
    # u-dependent coefficients of det(u - mu A - lam): the lam coefficient is
    # -(u11+u22) (the +mu part is a separate constant-coefficient monomial),
    # the mu coefficient is -u22, the constant term is det u
    members = {label: poly for label, poly in fam.generators}
    assert members["MF lam^1"] == -(P.u(2, 1, 1) + P.u(2, 2, 2))
    assert members["MF lam^0 mu^1"] == -P.u(2, 2, 2)
    assert members["MF lam^0"] == (P.u(2, 1, 1) * P.u(2, 2, 2)
                                   - P.u(2, 1, 2) * P.u(2, 2, 1))
    # reassembling with the dropped constant coefficients reproduces the
    # numeric determinant
    rng = np.random.default_rng(2)
    u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lam, mu = 0.3 + 0.1j, -0.8 + 0.4j
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    direct = np.linalg.det(u - mu * a - lam * np.eye(2))
    total = lam ** 2 + lam * mu  # dropped: constant coefficients of lam^2, lam*mu
    total += evaluate_at(members["MF lam^1"], u=u) * lam
    total += evaluate_at(members["MF lam^0 mu^1"], u=u) * mu
    total += evaluate_at(members["MF lam^0"], u=u)
    assert abs(total - direct) < 1e-12


# ---------------------------------------------------------------------------
# commutativity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["gz-principal", "gz-corner"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gz_families_commute_exactly(kind, n):
    rep = verify_commutes(build_family(FamilySpec(kind, n, "both")))
    assert rep.status == "ok"
    assert rep.max_nonzero_terms == 0
    if kind == "gz-principal":
        assert rep.pairs_checked == (n * n) * (n * n - 1) // 2


def test_mf_family_commutes_exactly_n4():
    rng = random.Random(13)
    spec = FamilySpec("mf", 4, side="left",
                      shift=random_rational_matrix(4, rng))
    assert verify_commutes(build_family(spec)).status == "ok"


def test_mf_family_commutes_exactly_n2():
    rng = random.Random(3)
    spec = FamilySpec("mf", 2, side="left",
                      shift=random_rational_matrix(2, rng))
    assert verify_commutes(build_family(spec)).status == "ok"


@given(st.integers(0, 10_000))
@settings(max_examples=10)
def test_mf_family_commutes_for_random_shifts(seed):
    rng = random.Random(seed)
    spec = FamilySpec("mf", 2, side="left",
                      shift=random_rational_matrix(2, rng))
    assert verify_commutes(build_family(spec)).status == "ok"


def test_family_spec_rejects_the_trivial_kind():
    # the trivial family is rational in g: verify_trivial_numeric checks it
    with pytest.raises(ValueError, match="unknown family kind"):
        FamilySpec("trivial", 2, "left")


def test_verify_commutes_refuses_a_family_without_pairs():
    # N = 1: the one generator tr u gives no pair to check
    with pytest.raises(ValueError, match="no pair"):
        verify_commutes(build_family(FamilySpec("gz-principal", 1, "both")))


def test_commutation_report_shape():
    rep = verify_commutes(build_family(FamilySpec("gz-principal", 2, "both")))
    data = rep.to_json()
    assert data["status"] == "ok"
    assert data["witness"] is None
    assert data["family"]["kind"] == "gz-principal"


# ---------------------------------------------------------------------------
# the family cache: one build per spec in a process
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_families():
    """An empty build_family cache, emptied again after the test, so no
    family built elsewhere decides what the test counts."""
    build_family.cache_clear()
    yield
    build_family.cache_clear()


_SHIFT3 = random_rational_matrix(3, random.Random(3))
_CACHED = [*(FamilySpec(kind, 3, side) for kind in ("gz-principal", "gz-corner")
             for side in families.SIDES), FamilySpec("mf", 3, "left", _SHIFT3)]


@pytest.mark.parametrize("spec", _CACHED, ids=lambda spec: f"{spec.kind}-{spec.side}")
def test_a_cached_family_gives_the_cold_reports(fresh_families, spec):
    pts = [random_residue_point(3, random.Random(7)),
           random_canonical_point(3, np.random.default_rng(7))]
    cold = build_family(spec)
    reports = [verify_commutes(cold)] + [independence_rank(cold, pt) for pt in pts]
    warm = build_family(FamilySpec(*spec))      # an equal spec, another object
    assert warm is cold
    assert [verify_commutes(warm)] + [independence_rank(warm, pt) for pt in pts] == reports
    assert build_family.cache_info().hits == 1


@pytest.mark.parametrize("spec", _CACHED, ids=lambda spec: f"{spec.kind}-{spec.side}")
def test_a_family_is_built_once_per_spec(fresh_families, monkeypatch, spec):
    calls = []
    for name in ("char_minor", "column_det"):
        fn = getattr(families, name)
        monkeypatch.setattr(families, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    fam = build_family(spec)
    # gz: minors k = 1..n-1 per side and the full one, a column_det each; mf: one
    sides = 2 if spec.side == "both" else 1
    minors = 0 if spec.kind == "mf" else sides * (spec.n - 1) + 1
    assert calls.count("char_minor") == minors
    assert calls.count("column_det") == max(minors, 1)
    calls.clear()
    assert build_family(FamilySpec(*spec)) is fam
    verify_commutes(fam)
    assert calls == []


def test_fresh_mf_shifts_stay_within_the_bound(fresh_families):
    rng = random.Random(11)
    for _ in range(50):
        spec = FamilySpec("mf", 2, "left", random_rational_matrix(2, rng))
        assert verify_commutes(build_family(spec)).status == "ok"
        assert build_family.cache_info().currsize <= families._FAMILIES_KEPT
    assert build_family.cache_info().maxsize == families._FAMILIES_KEPT
    # a spec made with list rows is the same key as one made with tuples
    listed = FamilySpec("mf", 2, "left", [list(row) for row in spec.shift])
    assert listed == spec and build_family(listed) is build_family(spec)


def test_a_cached_family_cannot_be_mutated(fresh_families):
    fam = build_family(FamilySpec("gz-principal", 2, "both"))
    assert isinstance(fam.generators, tuple)
    with pytest.raises(TypeError):
        fam.generators[0] = fam.generators[1]
    with pytest.raises(AttributeError):
        fam.generators.append(fam.generators[0])
    with pytest.raises(AttributeError):
        fam.generators = ()
    with pytest.raises(TypeError):
        fam.generators[0][1] = P.zero(2)
    assert build_family(FamilySpec("gz-principal", 2, "both")) is fam
    assert len(fam.generators) == 4


# ---------------------------------------------------------------------------
# the trivial family and independence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_trivial_family_numeric(n):
    if n == 1:      # one member, no pair to check
        with pytest.raises(ValueError, match="no pair"):
            verify_trivial_numeric(n, pt_count=5, seed=0)
        return
    rep = verify_trivial_numeric(n, pt_count=5, seed=0)
    assert rep.status == "ok"
    assert rep.max_abs_bracket < 1e-5


def test_trivial_family_numeric_refuses_zero_points():
    with pytest.raises(ValueError, match="no pair"):
        verify_trivial_numeric(3, pt_count=0)


def test_trivial_family_numeric_n3():
    rep = verify_trivial_numeric(3, pt_count=3, seed=1)
    assert rep.status == "ok"


def _trivial_reference(n, pt_count, seed, step=1e-6):
    """Worst |{f, h}| and pair count, one canonical_bracket per pair, at the
    points the check draws."""
    rng = random.Random(seed)

    def member(k):
        def f(pt):
            g, p = pt.g.ravel().tolist(), pt.p.ravel().tolist()
            return _trivial_members(_transpose(p, n), g, _det_and_inverse(g, n)[1], n)[k]
        return f

    funcs = [member(k) for k in range(n * n)]
    worst = 0.0
    pairs = 0
    for _ in range(pt_count):
        g, _, p = _gaussian_point(n, rng)
        pt = CanonicalPoint(np.reshape(g, (n, n)), np.reshape(p, (n, n)))
        for f, h in itertools.combinations(funcs, 2):
            worst = max(worst, abs(canonical_bracket(f, h, pt, step=step)))
            pairs += 1
    return worst, pairs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trivial_check_equals_per_pair_oracle(n):
    # same points, same steps, same accumulation order: equal to the last bit
    rep = verify_trivial_numeric(n, pt_count=2, seed=n)
    assert (rep.max_abs_bracket, rep.pairs_checked) == _trivial_reference(n, 2, n)


@pytest.mark.parametrize("n, pt_count, seed, worst", [
    (5, 1, 1016164991, 1.1743834395268846e-09),
    (4, 5, 1099128568, 1.649990751689366e-09),
])
def test_trivial_check_keeps_its_worst_bracket(n, pt_count, seed, worst):
    # g is inverted once per draw, by the elimination that checks its
    # determinant: the worst bracket is the one of a second inversion, bit for bit
    assert verify_trivial_numeric(n, pt_count, seed=seed).max_abs_bracket == worst


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trivial_moves_equal_the_full_members_bit_for_bit(n):
    # a move recomputes one row or column of the members and copies the
    # rest; the gradients equal the stencil over the full members exactly
    rng = random.Random(100 + n)
    for _ in range(4):
        g, g_inv, p = _gaussian_point(n, rng)
        dg, dp = _trivial_gradients(g, g_inv, p, n)
        p_t = _transpose(p, n)
        assert dg == central_gradient(
            lambda x, k: _trivial_members(p_t, x, _det_and_inverse(x, n)[1], n), g, 1e-6)
        assert dp == central_gradient(
            lambda x, k: _trivial_members(_transpose(x, n), g, g_inv, n), p, 1e-6)
        # a p-move changes one row of the members: the others read exactly 0
        for k, row in enumerate(dp):
            assert all(v == 0 for j, v in enumerate(row) if j // n != k % n)


@pytest.mark.parametrize("n, pt_count, seed, worst", [
    (3, 1, 0, "1.1894137181678389e-08"),
    (4, 3, 1, "1.3371971083624291e-09"),
    (5, 1, 2, "1.2174545927046008e-09"),
])
def test_trivial_check_reports_the_full_members_worst_bracket(n, pt_count, seed, worst):
    # the worst brackets of the oracle that recomputed every member per move
    assert repr(verify_trivial_numeric(n, pt_count, seed=seed).max_abs_bracket) == worst


@pytest.mark.parametrize("nan_point", [0, 1], ids=["first-point", "last-point"])
def test_a_nan_bracket_fails_the_trivial_check(monkeypatch, nan_point):
    # a NaN derivative of member 0 at one of two points makes that point's
    # brackets of member 0 NaN: max() would keep the finite worst of the
    # other pairs and read ok, and a later finite point must not hide it
    gradients, calls = families._trivial_gradients, []

    def patched(*args):
        dg, dp = gradients(*args)
        if len(calls) == nan_point:
            dg[0][0] = float("nan")
        calls.append(args)
        return dg, dp

    monkeypatch.setattr(families, "_trivial_gradients", patched)
    rep = verify_trivial_numeric(3, pt_count=2, seed=0)
    assert len(calls) == 2 and rep.pairs_checked == 72
    assert np.isnan(rep.max_abs_bracket) and rep.status == "violation"


def test_a_trivial_scan_that_skips_a_pair_reads_violation(monkeypatch):
    # combinations leaving out its last pair: the 9 members at N=3 make 36
    # pairs per point, and a scan that saw 35 is not ok, although every
    # bracket it took was within tolerance
    short = lambda items, r: list(itertools.combinations(items, r))[:-1]
    monkeypatch.setattr(families, "itertools",
                        types.SimpleNamespace(combinations=short, product=itertools.product))
    rep = verify_trivial_numeric(3, pt_count=1)
    assert rep.max_abs_bracket <= rep.tolerance
    assert (rep.status, rep.members, rep.pairs_checked) == ("violation", 9, 35)
    assert rep.witness == {"expected": 36, "seen": 35}


def test_trivial_members_are_p_transposed():
    # u g^{-1} = p^T, so the plain-Python members match numpy to rounding
    rng = random.Random(8)
    g, drawn_inv, p = _gaussian_point(3, rng)
    det, g_inv = _det_and_inverse(g, 3)
    assert drawn_inv == g_inv       # the draw hands over the inverse it checked
    G, Pm = np.reshape(g, (3, 3)), np.reshape(p, (3, 3))
    assert abs(det - np.linalg.det(G)) < 1e-12 * max(1.0, abs(det))
    assert np.allclose(np.reshape(g_inv, (3, 3)), np.linalg.inv(G), rtol=1e-12, atol=1e-12)
    assert np.allclose(np.reshape(_trivial_members(_transpose(p, 3), g, g_inv, 3), (3, 3)), Pm.T,
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 9)])
def test_independence_rank(n, expected):
    rng = np.random.default_rng(4)
    fam = build_family(FamilySpec("gz-principal", n, "both"))
    pt = random_canonical_point(n, rng)
    assert independence_rank(fam, pt) == expected
    assert independence_rank(fam, random_residue_point(n, random.Random(n))) == expected


def _svd_rank(fam, pt, tol=1e-8):
    """The numeric oracle: singular values of the complex Jacobian above
    tol times the largest, each row from gradient_at and the chain rule."""
    n = pt.n
    rows = []
    for _, poly in fam.generators:
        grad = gradient_at(poly, u=u_as_canonical(pt), ut=utilde_as_canonical(pt), g=pt.g)
        du, dut, dg = grad[:3 * n * n].reshape(3, n, n)
        # u = p^T g and ut = -g p^T
        jac_g = pt.p @ du - dut @ pt.p + dg
        jac_p = pt.g @ du.T - dut.T @ pt.g
        rows.append(np.concatenate([jac_g.ravel(), jac_p.ravel()]))
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


@pytest.mark.parametrize("kind, n", [("gz-principal", 2), ("gz-principal", 3),
                                     ("gz-principal", 4), ("gz-corner", 2),
                                     ("gz-corner", 3), ("gz-corner", 4),
                                     ("mf", 2), ("mf", 3), ("mf", 4)])
def test_gf_rank_equals_the_svd_rank(kind, n):
    shift = random_rational_matrix(n, random.Random(n)) if kind == "mf" else None
    fam = build_family(FamilySpec(kind, n, "left" if kind == "mf" else "both", shift))
    rng = np.random.default_rng(10 * n)
    for _ in range(3):
        pt = random_canonical_point(n, rng)
        assert independence_rank(fam, pt) == _svd_rank(fam, pt)


def test_a_generator_and_its_square_read_a_rank_deficit():
    n = 3
    f = build_family(FamilySpec("gz-principal", n, "left")).generators[-1][1]
    fam = CommutingFamily(FamilySpec("gz-principal", n, "left"), [("f", f), ("f^2", f * f)])
    rng = random.Random(2)
    for _ in range(3):
        assert independence_rank(fam, random_residue_point(n, rng)) == 1
    assert independence_rank(fam, random_canonical_point(n, np.random.default_rng(2))) == 1


def test_residues_read_floats_exactly():
    assert _SQRT_M1 ** 2 % PRIME == PRIME - 1
    assert _residue(0.75 - 2.5j) == (3 * pow(4, -1, PRIME) - 5 * _SQRT_M1 * pow(2, -1, PRIME)) % PRIME
    assert _residue(-3) == PRIME - 3


def test_gf_rows_follow_the_chain_rule():
    # at a real integer point each row is an integer vector, den * d(poly)/d(g, p);
    # lifted from GF(PRIME) it matches the finite-difference oracle
    n = 3
    rng = random.Random(5)
    while True:
        g, p = ([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in range(2))
        if abs(np.linalg.det(g)) > 0.5:
            break
    pt = CanonicalPoint(g, p)
    specs = [FamilySpec("gz-principal", n, "both"), FamilySpec("gz-corner", n, "right"),
             FamilySpec("mf", n, "left", random_rational_matrix(n, random.Random(5)))]
    polys = [poly for spec in specs for _, poly in build_family(spec).generators]
    residue_rows = _gf_rows(polys, ResiduePoint(g, p))
    assert residue_rows == _gf_rows(polys, pt)
    for poly, row in zip(polys, residue_rows):
        exact = np.array([x - PRIME if x > PRIME // 2 else x for x in row], dtype=float)
        numeric = np.concatenate([grad.ravel() for grad in
                                  _gradients(poly_function(poly), pt, 1e-6)]) * poly._den
        assert np.max(np.abs(exact - numeric)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


def test_independence_rank_checks_the_ambient_size():
    fam = build_family(FamilySpec("gz-principal", 3, "both"))
    with pytest.raises(AmbientSizeError):
        independence_rank(fam, random_residue_point(2, random.Random(0)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("side", ["both", "left", "right"])
def test_verify_independence_grades_the_principal_generic_rank(n, side):
    # N^2 on both sides, N(N+1)/2 on one
    expected = n * n if side == "both" else n * (n + 1) // 2
    rng = random.Random(n)
    rep = verify_independence(build_family(FamilySpec("gz-principal", n, side)),
                              [random_residue_point(n, rng) for _ in range(2)])
    assert rep.to_json() == {"ranks": [expected] * 2, "prime": PRIME,
                             "expected": expected, "status": "ok"}


def test_a_principal_family_short_of_a_member_fails_verify_independence():
    n = 3
    full = build_family(FamilySpec("gz-principal", n, "both"))
    fam = CommutingFamily(full.spec, full.generators[:-1])
    rep = verify_independence(fam, [random_residue_point(n, random.Random(1))])
    assert (rep.ranks, rep.expected, rep.status) == ([n * n - 1], n * n, "violation")


def test_verify_independence_leaves_mf_ungraded_but_not_unchecked():
    # mf's generic rank is not known, so its ranks are reported ungraded;
    # no points is an error, not a pass on zero ranks
    n = 3
    fam = build_family(FamilySpec("mf", n, "left", random_rational_matrix(n, random.Random(n))))
    rep = verify_independence(fam, [random_residue_point(n, random.Random(0))])
    assert rep.expected is None and rep.status == "ok" and len(rep.ranks) == 1
    with pytest.raises(ValueError):
        verify_independence(fam, [])
