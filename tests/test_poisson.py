import functools
import itertools
import operator
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gztower.families import (
    FamilySpec,
    build_family,
    random_rational_matrix,
    verify_commutes,
)
from gztower.poisson import (
    G,
    LAM,
    MU,
    U,
    UTILDE,
    AmbientSizeError,
    CanonicalPoint,
    PoissonPoly,
    SlotOverflowError,
    bracket,
    canonical_bracket,
    central_gradient,
    evaluate,
    evaluate_at,
    gradient_at,
    poly_function,
    random_canonical_point,
    scan_pairs,
    u_as_canonical,
    utilde_as_canonical,
    _bracket_terms,
    _gen_bracket,
    _mono_str,
    _term_pairs,
)
from gztower.quantum import RIGHT, NCPoly

P = PoissonPoly


# ---------------------------------------------------------------------------
# the tuple/Fraction reference implementation
# ---------------------------------------------------------------------------

def _mono_mul(m1, m2):
    acc = dict(m1)
    for g, e in m2:
        acc[g] = acc.get(g, 0) + e
    return tuple(sorted(acc.items()))


def _mono_drop(m, idx):
    g, e = m[idx]
    if e == 1:
        return m[:idx] + m[idx + 1:]
    return m[:idx] + ((g, e - 1),) + m[idx + 1:]


def _accumulate(out, m, c):
    s = out.get(m, 0) + c
    if s:
        out[m] = s
    else:
        out.pop(m, None)


class RefPoly:
    """PoissonPoly as it was before packing: sorted tuple monomials -> Fraction."""

    def __init__(self, n, terms):
        self.n = n
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return RefPoly(self.n, out)

    def __neg__(self):
        return RefPoly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, _mono_mul(m1, m2), c1 * c2)
        return RefPoly(self.n, out)

    def __pow__(self, k):
        out = RefPoly(self.n, {(): 1})
        for _ in range(k):
            out = out * self
        return out

    def differentiate(self, gen):
        out = {}
        for m, c in self.terms.items():
            for idx, (g, e) in enumerate(m):
                if g == gen:
                    _accumulate(out, _mono_drop(m, idx), c * e)
        return RefPoly(self.n, out)

    def lambda_mu_coefficients(self):
        buckets = {}
        for m, c in self.terms.items():
            powers = dict(m)
            key = (powers.get((LAM, 0, 0), 0), powers.get((MU, 0, 0), 0))
            rest = tuple((g, e) for g, e in m if g[0] not in (LAM, MU))
            buckets.setdefault(key, {})[rest] = c
        return {k: RefPoly(self.n, t) for k, t in buckets.items()}

    def coefficient_of_lambda(self, k):
        out = {}
        for (lp, mp), poly in self.lambda_mu_coefficients().items():
            if lp == k:
                for m, c in poly.terms.items():
                    out[_mono_mul(m, (((MU, 0, 0), mp),) if mp else ())] = c
        return RefPoly(self.n, out)

    def term_list(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))
        return [[str(c), _mono_str(m)] for m, c in items]

    def evaluate_at(self, u, ut, g, lam, mu):
        mats = {U: u, UTILDE: ut, G: g}
        total = 0j
        for mono, coeff in self.terms.items():
            val = complex(coeff)
            for (kind, r, c), e in mono:
                base = {LAM: lam, MU: mu}[kind] if kind in (LAM, MU) else mats[kind][r - 1, c - 1]
                val *= base ** e
            total += val
        return total


_table = functools.lru_cache(maxsize=None)(_gen_bracket)


def _bracket_reference(a, b):
    """{a, b} by the Leibniz rule over every pair of terms and factors."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            scale = ca * cb
            for ia, (x, ex) in enumerate(ma):
                for ib, (y, ey) in enumerate(mb):
                    table = _table(x, y)
                    if not table:
                        continue
                    rest = _mono_mul(_mono_drop(ma, ia), _mono_drop(mb, ib))
                    c0 = scale * ex * ey
                    for coef, z in table:
                        m = _mono_mul(rest, ((z, 1),))
                        s = out.get(m, 0) + c0 * coef
                        if s:
                            out[m] = s
                        else:
                            out.pop(m, None)
    return PoissonPoly(a.n, out)


@st.composite
def poly_triples(draw, n=2, max_terms=2, max_factors=2):
    """Triples of small random polynomials over a common ambient size."""
    def one():
        poly = P.zero(n)
        for _ in range(draw(st.integers(1, max_terms))):
            term = P.constant(n, draw(st.integers(-3, 3)))
            for _ in range(draw(st.integers(0, max_factors))):
                kind = draw(st.sampled_from([U, UTILDE, G]))
                term = term * P.generator(n, kind,
                                          draw(st.integers(1, n)),
                                          draw(st.integers(1, n)))
            poly = poly + term
        return poly
    return one(), one(), one()


# ---------------------------------------------------------------------------
# generator brackets
# ---------------------------------------------------------------------------

def test_gl_bracket_example():
    assert bracket(P.u(2, 1, 2), P.u(2, 2, 1)) == P.u(2, 1, 1) - P.u(2, 2, 2)


def test_bracket_self_is_zero():
    assert bracket(P.u(2, 1, 1), P.u(2, 1, 1)).is_zero()


def test_leibniz_cancellation_example():
    # {u11, u12*u21} expands to u12*u21 - u12*u21 by the product rule
    a = P.u(2, 1, 1)
    prod = P.u(2, 1, 2) * P.u(2, 2, 1)
    by_hand = (bracket(a, P.u(2, 1, 2)) * P.u(2, 2, 1)
               + P.u(2, 1, 2) * bracket(a, P.u(2, 2, 1)))
    assert bracket(a, prod) == by_hand
    assert bracket(a, prod).is_zero()


def test_lambda_mu_are_central():
    for central in (P.lam(2), P.mu(2)):
        for gen in (P.u(2, 1, 2), P.ut(2, 2, 1), P.g(2, 1, 1)):
            assert bracket(central, gen).is_zero()


def test_ambient_size_mismatch_raises():
    with pytest.raises(AmbientSizeError):
        bracket(P.u(2, 1, 1), P.u(3, 1, 1))


@given(poly_triples(n=2))
def test_antisymmetry_exact(polys):
    a, b, _ = polys
    assert (bracket(a, b) + bracket(b, a)).is_zero()


@given(poly_triples(n=2))
def test_leibniz_exact(polys):
    a, b, c = polys
    lhs = bracket(a, b * c)
    rhs = bracket(a, b) * c + b * bracket(a, c)
    assert lhs == rhs


@given(poly_triples(n=2))
def test_jacobi_exact(polys):
    a, b, c = polys
    total = (bracket(a, bracket(b, c))
             + bracket(b, bracket(c, a))
             + bracket(c, bracket(a, b)))
    assert total.is_zero()


@given(poly_triples(n=3, max_factors=1))
def test_jacobi_exact_n3(polys):
    a, b, c = polys
    total = (bracket(a, bracket(b, c))
             + bracket(b, bracket(c, a))
             + bracket(c, bracket(a, b)))
    assert total.is_zero()


# ---------------------------------------------------------------------------
# canonical realization
# ---------------------------------------------------------------------------

def test_momentum_maps_at_identity():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pt = CanonicalPoint(np.eye(2), p)
    assert np.allclose(u_as_canonical(pt), p.T)
    assert np.allclose(utilde_as_canonical(pt), -p.T)


def test_momentum_identity_and_sign_sweep():
    rng = np.random.default_rng(1)
    pt = random_canonical_point(3, rng)
    u = u_as_canonical(pt)
    ut = utilde_as_canonical(pt)
    conj = pt.g @ u @ np.linalg.inv(pt.g)
    residual = {s: np.linalg.norm(ut - s * conj) for s in (+1, -1)}
    # the adopted convention is ut = -g u g^{-1}, exactly
    assert residual[-1] < 1e-12
    assert residual[+1] > 1e-3


def test_diagonal_point_gives_ut_minus_u():
    g = np.diag([1.5, -2.0 + 1j])
    p = np.diag([0.3 - 1j, 2.0])
    pt = CanonicalPoint(g, p)
    u = u_as_canonical(pt)
    ut = utilde_as_canonical(pt)
    assert np.allclose(u, np.diag(np.diag(u)))
    assert np.allclose(ut, -u)


def test_singular_g_rejected():
    with pytest.raises(ValueError):
        CanonicalPoint(np.zeros((2, 2)), np.eye(2))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_canonical_pair():
    rng = np.random.default_rng(3)
    pt = random_canonical_point(2, rng)
    val = canonical_bracket(lambda q: q.g[0, 0], lambda q: q.p[0, 0], pt)
    assert abs(val - 1.0) < 1e-6


def test_an_indexed_stencil_is_told_which_entry_moved():
    # func(y, k) sees each entry k moved forward, then backward
    x = [1.0, 2.0 + 1.0j, -3.0]
    seen = []
    grad = central_gradient(lambda y, k: seen.append(k) or [y[k] ** 2, sum(y)], x, 1e-6)
    assert seen == [0, 0, 1, 1, 2, 2]
    for z, (square, total) in zip(x, grad):
        assert abs(square - 2 * z) < 1e-8 and abs(total - 1) < 1e-8


def test_oracle_matches_gl_relation():
    rng = np.random.default_rng(4)
    pt = random_canonical_point(2, rng)
    u = u_as_canonical(pt)
    val = canonical_bracket(poly_function(P.u(2, 1, 2)),
                            poly_function(P.u(2, 2, 1)), pt)
    assert abs(val - (u[0, 0] - u[1, 1])) < 1e-5


def test_oracle_u_ut_commute():
    rng = np.random.default_rng(5)
    pt = random_canonical_point(3, rng)
    worst = 0.0
    for i, j, k, l in [(1, 2, 3, 1), (2, 2, 1, 3), (3, 1, 2, 2), (1, 1, 1, 1)]:
        val = canonical_bracket(poly_function(P.u(3, i, j)),
                                poly_function(P.ut(3, k, l)), pt)
        worst = max(worst, abs(val))
    assert worst < 1e-5


def test_symbolic_oracle_concordance_generators():
    rng = np.random.default_rng(6)
    pt = random_canonical_point(2, rng)
    for ka in (U, UTILDE, G):
        for kb in (U, UTILDE, G):
            for idx in [(1, 2, 2, 1), (1, 1, 2, 2), (2, 1, 1, 2)]:
                i, j, k, l = idx
                a = P.generator(2, ka, i, j)
                b = P.generator(2, kb, k, l)
                sym = evaluate(bracket(a, b), pt)
                num = canonical_bracket(poly_function(a), poly_function(b), pt)
                assert abs(sym - num) < 1e-5


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_constant():
    rng = np.random.default_rng(7)
    pt = random_canonical_point(2, rng)
    assert evaluate(P.constant(2, 1), pt) == 1.0


def test_evaluate_u11_at_identity_g():
    rng = np.random.default_rng(8)
    p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pt = CanonicalPoint(np.eye(2), p)
    # u = p^T at g = 1, so the (1,1) entry is p11
    assert abs(evaluate(P.u(2, 1, 1), pt) - p[0, 0]) < 1e-14


def test_evaluate_char_poly_against_direct_determinant():
    rng = np.random.default_rng(9)
    pt = random_canonical_point(2, rng)
    lam = P.lam(2)
    det_poly = ((lam - P.u(2, 1, 1)) * (lam - P.u(2, 2, 2))
                - P.u(2, 1, 2) * P.u(2, 2, 1))
    u = u_as_canonical(pt)
    assert abs(evaluate(det_poly, pt, lam=0.0) - np.linalg.det(-u)) < 1e-12


def test_evaluate_at_requires_matrices():
    with pytest.raises(ValueError):
        evaluate_at(P.u(2, 1, 1), u=None)


def test_differentiate():
    poly = P.u(2, 1, 1) * P.u(2, 1, 1) * P.u(2, 2, 2)
    d = poly.differentiate((U, 1, 1))
    assert d == 2 * (P.u(2, 1, 1) * P.u(2, 2, 2))


# ---------------------------------------------------------------------------
# the packed polynomial against the tuple/Fraction reference
# ---------------------------------------------------------------------------

def _generators(n):
    return ([(kind, i, j) for kind in (U, UTILDE, G)
             for i in range(1, n + 1) for j in range(1, n + 1)]
            + [(LAM, 0, 0), (MU, 0, 0)])


@st.composite
def term_dicts(draw, n=None, max_terms=5, max_exp=6):
    """(n, {canonical monomial: nonzero Fraction}) over every generator kind."""
    n = draw(st.integers(1, 3)) if n is None else n
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        powers = {}
        for _ in range(draw(st.integers(0, 3))):
            powers[draw(st.sampled_from(_generators(n)))] = draw(st.integers(1, max_exp))
        coeff = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 6)))
        terms[tuple(sorted(powers.items()))] = coeff
    return n, terms


@st.composite
def poly_pairs(draw):
    """A packed pair and its reference twin over one ambient size."""
    n, ta = draw(term_dicts())
    _, tb = draw(term_dicts(n=n))
    return (P(n, ta), P(n, tb)), (RefPoly(n, ta), RefPoly(n, tb))


def _same(packed, ref):
    return packed.n == ref.n and dict(packed.terms.items()) == ref.terms


@given(term_dicts())
def test_terms_round_trip(drawn):
    n, terms = drawn
    poly = P(n, terms)
    assert poly.terms == terms and dict(poly.terms.items()) == terms
    assert len(poly.terms) == len(terms)
    assert P(n, dict(reversed(terms.items()))) == poly


@given(poly_pairs(), st.integers(0, 3))
def test_arithmetic_matches_reference(pair, k):
    (a, b), (ra, rb) = pair
    assert _same(a + b, ra + rb)
    assert _same(a - b, ra - rb)
    assert _same(-a, -ra)
    assert _same(a * b, ra * rb)
    assert _same(a * Fraction(-3, 4), ra * RefPoly(a.n, {(): Fraction(-3, 4)}))
    assert _same(a + 2, ra + RefPoly(a.n, {(): 2}))
    assert _same(a ** k, ra ** k)


@given(poly_pairs(), st.integers(0, 7))
def test_calculus_matches_reference(pair, k):
    (a, _), (ra, _) = pair
    for gen in _generators(a.n):
        assert _same(a.differentiate(gen), ra.differentiate(gen))
    split = a.lambda_mu_coefficients()
    ref_split = ra.lambda_mu_coefficients()
    assert split.keys() == ref_split.keys()
    assert all(_same(split[lm], ref_split[lm]) for lm in split)
    assert _same(a.coefficient_of_lambda(k), ra.coefficient_of_lambda(k))
    assert a.term_list() == ra.term_list()


@given(poly_pairs())
def test_equality_and_hash_match_reference(pair):
    (a, b), (ra, rb) = pair
    assert (a == b) == (ra == rb)
    again = (a + b) - b
    assert again == a and hash(again) == hash(a)
    assert hash(P(a.n, dict(ra.terms))) == hash(a)


@given(poly_pairs(), st.integers(0, 2**32 - 1))
def test_evaluate_at_matches_reference(pair, seed):
    (a, _), (ra, _) = pair
    rng = np.random.default_rng(seed)
    u, ut, g = (rng.standard_normal((a.n, a.n)) + 1j * rng.standard_normal((a.n, a.n))
                for _ in range(3))
    lam, mu = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    point = (u, ut, g, lam, mu)
    # rounding error is relative to the sum of the terms' absolute values
    size = lambda ref: RefPoly(ref.n, {m: abs(c) for m, c in ref.terms.items()}).evaluate_at(
        *(np.abs(x) for x in point)).real
    got = evaluate_at(a, u=u, ut=ut, g=g, lam=lam, mu=mu)
    assert abs(got - ra.evaluate_at(*point)) <= 1e-13 * max(1.0, size(ra))
    grad = gradient_at(a, u=u, ut=ut, g=g, lam=lam, mu=mu)
    for s, gen in enumerate(_generators(a.n)):
        d = ra.differentiate(gen)
        assert abs(grad[s] - d.evaluate_at(*point)) <= 1e-13 * max(1.0, size(d))


@given(poly_pairs())
def test_derivative_along_a_field_is_the_sum_of_its_parts(pair):
    (a, b), _ = pair
    n = a.n
    field = [(b, (G, 1, 1)), (P.u(n, 1, 1) * Fraction(1, 3), (LAM, 0, 0)), (-a, (U, n, 1))]
    by_parts = sum((c * a.differentiate(gen) for c, gen in field), P.zero(n))
    assert a.derivative_along(field) == by_parts


def test_exponents_past_the_slot_width_raise_a_named_error():
    x = P.u(2, 1, 2)
    assert (x ** 127).terms == {(((U, 1, 2), 127),): 1}
    with pytest.raises(SlotOverflowError):
        x ** 128
    with pytest.raises(SlotOverflowError):
        P.mu(2) ** 128
    with pytest.raises(SlotOverflowError):
        x ** 100 * (x ** 28 + 1)
    with pytest.raises(SlotOverflowError):
        bracket(P.u(2, 1, 1) ** 127 * x, P.u(2, 2, 1))
    with pytest.raises(SlotOverflowError):
        P(2, {(((G, 1, 1), 128),): 1})
    # {u11^127, u21} = -127 u11^126 u21 stays inside the slots
    assert bracket(P.u(2, 1, 1) ** 127, P.u(2, 2, 1)) == -127 * P.u(2, 1, 1) ** 126 * P.u(2, 2, 1)


# ---------------------------------------------------------------------------
# the packed integer kernel against the term-pair reference
# ---------------------------------------------------------------------------

def _family(kind, n, seed=None):
    if kind == "mf":
        shift = random_rational_matrix(n, random.Random(seed))
        return build_family(FamilySpec("mf", n, side="left", shift=shift))
    return build_family(FamilySpec(kind, n, "both"))


@pytest.mark.parametrize("kind, n", [("gz-principal", 2), ("gz-principal", 3),
                                     ("gz-principal", 4), ("gz-corner", 4),
                                     ("mf", 3), ("mf", 4)])
def test_bracket_equals_reference_on_families(kind, n):
    fam = _family(kind, n, seed=17)
    for (_, a), (_, b) in itertools.combinations(fam.generators, 2):
        assert bracket(a, b) == _bracket_reference(a, b)


@st.composite
def rational_polys(draw):
    """Pairs of polynomials with rational coefficients over every generator kind."""
    n = draw(st.integers(1, 3))

    def one():
        poly = P.zero(n)
        for _ in range(draw(st.integers(0, 4))):
            term = P.constant(n, Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 6))))
            for _ in range(draw(st.integers(0, 3))):
                kind = draw(st.sampled_from([U, UTILDE, G, LAM, MU]))
                gen = P.generator(n, kind, draw(st.integers(1, n)), draw(st.integers(1, n)))
                term = term * gen ** draw(st.integers(1, 6))
            poly = poly + term
        return poly
    return one(), one()


@given(rational_polys())
@settings(max_examples=300)
def test_bracket_equals_reference_on_rational_polys(polys):
    a, b = polys
    assert bracket(a, b) == _bracket_reference(a, b)


def test_bracket_equals_reference_with_large_exponents():
    # degrees 40 and 18 give 7-bit slots; exponents of 16 to 20 survive
    a = P.u(3, 1, 2) ** 17 * P.g(3, 2, 1) ** 3 * P.lam(3) ** 20 + Fraction(1, 3) * P.ut(3, 1, 1)
    b = P.u(3, 2, 1) ** 16 * P.ut(3, 1, 2) ** 2 - Fraction(2, 7) * P.g(3, 1, 1) ** 18
    res = bracket(a, b)
    assert not res.is_zero()
    assert res == _bracket_reference(a, b)
    assert max(e for m in res.terms for _, e in m) >= 16


def test_bracket_sums_either_side_to_the_reference():
    # {u12, b} costs fewer term pairs on its own side, {b, u12} on the other,
    # which it sums as -{u12, b}
    n = 2
    a = P.u(n, 1, 2)
    b = (P.u(n, 1, 1) + P.u(n, 2, 2) + P.u(n, 2, 1) + P.g(n, 1, 1) + P.ut(n, 1, 2)) ** 3
    assert _term_pairs(_bracket_terms(a, b)) < _term_pairs(_bracket_terms(b, a))
    assert bracket(a, b) == _bracket_reference(a, b)
    assert bracket(b, a) == _bracket_reference(b, a) == -bracket(a, b)


def test_broken_family_gives_the_reference_witness():
    fam = _family("gz-principal", 3)
    label, poly = fam.generators[1]
    # the built family is shared and immutable: break a copy
    gens = list(fam.generators)
    gens[1] = (label, poly + P.u(3, 1, 2))
    fam = fam._replace(generators=tuple(gens))
    rep = verify_commutes(fam)
    brackets = [(la, lb, _bracket_reference(a, b))
                for (la, a), (lb, b) in itertools.combinations(fam.generators, 2)]
    nonzero = [(la, lb, r) for la, lb, r in brackets if not r.is_zero()]
    assert rep.status == "violation" and nonzero
    la, lb, first = nonzero[0]
    assert rep.witness == {"labels": [la, lb], "terms": first.term_list()}
    assert rep.max_nonzero_terms == max(len(r.terms) for _, _, r in nonzero)


# ---------------------------------------------------------------------------
# the exact core shared with the PBW algebra
# ---------------------------------------------------------------------------

def _poisson_elements(n):
    return P.u(n, 1, 1), P.g(n, 1, n) * P.lam(n), P.ut(n, n, 1) + 2


def _pbw_elements(n):
    return NCPoly.e(n, 1, 1), NCPoly.e(n, 1, n, RIGHT) * NCPoly.lam(n), NCPoly.e(n, n, 1) + 2


@pytest.mark.parametrize("elements", [_poisson_elements, _pbw_elements],
                         ids=["PoissonPoly", "NCPoly"])
def test_shared_exact_core_invariants(elements):
    a, b, c = elements(3)
    lowest = lambda x: x._den > 0 and gcd(x._den, *x._num.values()) == 1 and all(x._num.values())
    s = a * Fraction(1, 6) + b * Fraction(1, 3) + c * Fraction(3, 2)
    assert lowest(s) and s._den == 6
    half = a * Fraction(1, 2) + a * Fraction(1, 2)
    assert lowest(half) and half == a and half._den == 1
    assert lowest(b * Fraction(4, 6)) and (b * Fraction(4, 6))._den == 3
    zero = a * Fraction(2, 7) - a * Fraction(2, 7)
    assert zero.is_zero() and zero._den == 1 and zero == type(a).zero(3)
    for x in (a, b, c, s):
        assert (x - x).is_zero() and (x - x)._den == 1
        # the term dict is a fresh dict that builds the element back
        assert type(x)(3, x.terms) == x and x.terms is not x.terms
    with pytest.raises(ValueError, match="ambient size"):
        type(a)(0)
    left = (a + b * 3) + c * Fraction(1, 5)
    right = c * Fraction(2, 10) + (3 * b + a)
    assert left == right and hash(left) == hash(right)
    assert {left: 1}[right] == 1
    other = elements(2)[0]
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(AmbientSizeError):
            op(a, other)
    # the pair scan: a - b and c - a are nonzero, a - a is not
    members = [("a", a), ("b", b), ("c", c), ("a again", a * 1)]
    pairs, worst, witness = scan_pairs(members, operator.sub)
    diffs = [x - y for (_, x), (_, y) in itertools.combinations(members, 2)]
    assert pairs == 6 and worst == max(len(d.terms) for d in diffs) > 1
    assert witness == {"labels": ["a", "b"], "terms": (a - b).term_list()}
    assert scan_pairs(members[:1] + members[3:], operator.sub) == (1, 0, None)


def test_poisson_and_pbw_elements_never_compare_equal():
    for n in (1, 3):
        pairs = [(P.zero(n), NCPoly.zero(n)), (P.constant(n, 1), NCPoly.constant(n, 1)),
                 (P.constant(n, Fraction(2, 3)), NCPoly.constant(n, Fraction(2, 3)))]
        for p, q in pairs:
            assert p != q and q != p
            assert len({p, q}) == 2
            with pytest.raises(TypeError):
                p + q
