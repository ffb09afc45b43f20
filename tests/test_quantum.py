import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gztower import quantum
from gztower.families import char_minor
from gztower.poisson import PoissonPoly
from gztower.quantum import (
    LEFT,
    RIGHT,
    NCPoly,
    PolyDiffOp,
    SizeGuardError,
    apply_nc_as_diffop,
    classical_limit,
    diffop_realization_check,
    nabla_left,
    nabla_right,
    qdet,
    quantum_family,
    rho_shift,
    verify_quantum_commutes,
)

P = PoissonPoly
Q = NCPoly


def E(i, j, copy=LEFT, n=2):
    return Q.e(n, i, j, copy)


@st.composite
def nc_words(draw, n=2, max_len=3):
    word = Q.constant(n, draw(st.integers(-2, 2)) or 1)
    for _ in range(draw(st.integers(1, max_len))):
        copy = draw(st.sampled_from([LEFT, RIGHT]))
        word = word * Q.e(n, draw(st.integers(1, n)), draw(st.integers(1, n)), copy)
    return word


# ---------------------------------------------------------------------------
# oracles: recursive rewriting and the permutation-sum determinant
# ---------------------------------------------------------------------------
#
# Elements are dicts (lam power, word of (copy, i, j)) -> Fraction.  Words
# are normalised by swapping the first adjacent inversion, one at a time.

_NORMAL_CACHE = {}


def _gen_commutator(x, y):
    if x[0] != y[0]:
        return ()
    copy, i, j = x
    _, k, l = y
    out = []
    if j == k:
        out.append((1, (copy, i, l)))
    if l == i:
        out.append((-1, (copy, k, j)))
    return tuple(out)


def _normalize_word(word):
    hit = _NORMAL_CACHE.get(word)
    if hit is not None:
        return hit
    pos = next((idx for idx in range(len(word) - 1) if word[idx] > word[idx + 1]), -1)
    if pos < 0:
        result = {word: 1}
    else:
        x, y = word[pos], word[pos + 1]
        acc = dict(_normalize_word(word[:pos] + (y, x) + word[pos + 2:]))
        for coef, z in _gen_commutator(x, y):
            for w, c in _normalize_word(word[:pos] + (z,) + word[pos + 2:]).items():
                acc[w] = acc.get(w, 0) + coef * c
        result = {w: c for w, c in acc.items() if c}
    _NORMAL_CACHE[word] = result
    return result


def _oracle_add(a, b, scale=1):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


def _oracle_mul(a, b):
    out = {}
    for (la, wa), ca in a.items():
        for (lb, wb), cb in b.items():
            out = _oracle_add(out, {(la + lb, w): c
                                    for w, c in _normalize_word(wa + wb).items()}, ca * cb)
    return out


def _perm_sign(p):
    return (-1) ** sum(p[a] > p[b] for a, b in itertools.combinations(range(len(p)), 2))


def _oracle_qdet(n, k, side, rule):
    """The permutation sum with the nested shifts of the size-k minor, or
    the ambient ones of size n."""
    copy = LEFT if side == "left" else RIGHT
    size = k if rule == "nested" else n
    total = {}
    for perm in itertools.permutations(range(1, k + 1)):
        prod = {(0, ()): Fraction(_perm_sign(perm))}
        for c, r in enumerate(perm, 1):
            factor = {(0, ((copy, r, c),)): Fraction(-1)}
            if r == c:
                factor = _oracle_add(factor, {(1, ()): Fraction(1),
                                              (0, ()): -rho_shift(size, c)})
            prod = _oracle_mul(prod, factor)
        total = _oracle_add(total, prod)
    return total


@st.composite
def oracle_elements(draw, n):
    """Random sums of mixed-copy words with lam powers and rational constants."""
    gens = st.tuples(st.sampled_from([LEFT, RIGHT]), st.integers(1, n), st.integers(1, n))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3),
                                      Fraction(-1, 2), Fraction(5, 4)]))
        lam_pow = draw(st.integers(0, 2))
        word = tuple(draw(st.lists(gens, max_size=4)))
        terms = _oracle_add(terms, {(lam_pow, w): c
                                    for w, c in _normalize_word(word).items()}, coeff)
    return terms


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_products_match_the_rewriting_oracle(data):
    n = data.draw(st.sampled_from([2, 3]))
    ta, tb = data.draw(oracle_elements(n)), data.draw(oracle_elements(n))
    a, b = Q(n, ta), Q(n, tb)
    assert a.terms == ta and b.terms == tb
    assert (a * b).terms == _oracle_mul(ta, tb)
    # stored in lowest terms, so equal elements compare and hash equal
    assert a * b == Q(n, _oracle_mul(ta, tb))
    assert hash(a * b) == hash(Q(n, _oracle_mul(ta, tb)))
    assert a.commutator(b).terms == _oracle_add(_oracle_mul(ta, tb), _oracle_mul(tb, ta), -1)


@pytest.fixture
def swap_rho(monkeypatch):
    """swap_rho(rule) installs rule as quantum.rho_shift.  The nested family
    is built once per N in a process, so its cache is cleared at each swap
    and again after the test, just before monkeypatch puts rho_shift back."""
    def swap(rule):
        quantum._nested_qdets.cache_clear()
        monkeypatch.setattr(quantum, "rho_shift", rule)
    yield swap
    quantum._nested_qdets.cache_clear()


def _shift_rule(swap_rho, rule, n):
    """Install a row-shift rule for the quantum minors over gl_n: 'nested'
    keeps rho_shift(k, c) = (k - 2c + 1)/2, 'ambient' takes the size-n
    shifts (n - 2c + 1)/2 in the first k columns, 'unshifted' drops them."""
    if rule == "ambient":
        swap_rho(lambda k, c: Fraction(n - 2 * c + 1, 2))
    elif rule == "unshifted":
        swap_rho(lambda k, c: Fraction(0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qdet_matches_the_permutation_sum(swap_rho, n):
    for rule in ("nested", "ambient"):
        _shift_rule(swap_rho, rule, n)
        for k in range(1, n + 1):
            for side in ("left", "right"):
                assert qdet(n, k, side).terms == _oracle_qdet(n, k, side, rule)


# ---------------------------------------------------------------------------
# PBW arithmetic
# ---------------------------------------------------------------------------

def test_commutator_contract():
    assert E(1, 2) * E(2, 1) - E(2, 1) * E(1, 2) == E(1, 1) - E(2, 2)


def test_unit():
    a = E(1, 2) * E(2, 2) + Q.constant(2, Fraction(1, 3))
    assert a * Q.constant(2, 1) == a
    assert (a * Fraction(2, 3)) * Fraction(3, 2) == a
    assert a * Q.constant(2, Fraction(1, 2)) + a * Q.constant(2, Fraction(1, 2)) == a


def test_copies_commute():
    a = E(1, 1, LEFT)
    b = E(2, 2, RIGHT)
    assert (a * b - b * a).is_zero()


@given(nc_words(), nc_words(), nc_words())
@settings(max_examples=20)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(nc_words(), nc_words())
@settings(max_examples=20)
def test_left_right_words_commute(a, b):
    # project both draws onto pure single-copy words, then commute them
    def onto(word, copy):
        out = Q.zero(2)
        for (lp, w), coeff in word.terms.items():
            term = Q.constant(2, coeff)
            for (_, i, j) in w:
                term = term * Q.e(2, i, j, copy)
            out = out + term
        return out

    assert onto(a, LEFT).commutator(onto(b, RIGHT)).is_zero()


def test_pbw_product_matches_operator_composition():
    # the nabla realization is faithful on polynomials: engine products must
    # agree with operator composition applied to random test functions
    rng = random.Random(0)
    from gztower.quantum import _random_g_poly
    a = E(2, 1) * E(1, 2) + E(2, 2)
    b = E(1, 2) * E(2, 1) - Q.constant(2, 2) * E(1, 1)
    for _ in range(8):
        f = _random_g_poly(2, rng)
        lhs = apply_nc_as_diffop(a * b, f)
        rhs = apply_nc_as_diffop(a, apply_nc_as_diffop(b, f))
        assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# quantum determinants
# ---------------------------------------------------------------------------

def test_rho_values_n2():
    assert [rho_shift(2, 1), rho_shift(2, 2)] == [Fraction(1, 2), Fraction(-1, 2)]
    assert rho_shift(1, 1) == 0


def test_qdet_1x1():
    assert qdet(2, 1) == Q.lam(2) - E(1, 1)


def test_qdet_2x2_casimir_pbw_form():
    cas = qdet(2, 2).lambda_coefficients()[0]
    expected = (E(1, 1) * E(2, 2) - E(1, 2) * E(2, 1)
                + Q.constant(2, Fraction(1, 2)) * E(1, 1)
                - Q.constant(2, Fraction(1, 2)) * E(2, 2)
                - Q.constant(2, Fraction(1, 4)))
    assert cas == expected


def test_qdet_casimir_is_central():
    cas = qdet(2, 2).lambda_coefficients()[0]
    for i in (1, 2):
        for j in (1, 2):
            assert cas.commutator(E(i, j)).is_zero()


def test_casimir_centrality_via_diffop_oracle():
    rng = random.Random(1)
    from gztower.quantum import _random_g_poly
    cas = qdet(2, 2).lambda_coefficients()[0]
    com = cas.commutator(E(1, 2))
    assert com.is_zero()
    for _ in range(5):
        f = _random_g_poly(2, rng)
        assert apply_nc_as_diffop(cas.commutator(E(2, 1)), f).is_zero()


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 9)])
def test_quantum_family_counts(n, count):
    assert len(quantum_family(n)) == count


def test_verify_quantum_n2():
    rep = verify_quantum_commutes(2)
    assert rep.status == "ok"
    assert rep.convention == "nested"
    assert rep.pairs_checked == 6


def test_verify_quantum_n3():
    rep = verify_quantum_commutes(3)
    assert rep.status == "ok"
    assert rep.convention == "nested"
    assert rep.pairs_checked == 36


def test_verify_quantum_n4_needs_no_flag():
    rep = verify_quantum_commutes(4)
    assert rep.status == "ok"
    assert (rep.pairs_checked, rep.centrality_checks) == (120, 136)


def test_verify_quantum_n5():
    rep = verify_quantum_commutes(5)
    assert (rep.status, rep.convention) == ("ok", "nested")
    assert (rep.pairs_checked, rep.centrality_checks) == (300, 325)


def test_ambient_rho_convention_also_central(swap_rho):
    # the ambient restriction differs from the nested shifts by a global
    # shift of lam, so centrality holds for it as well
    from gztower.quantum import _centrality, _members, _nested_qdets
    _shift_rule(swap_rho, "ambient", 2)
    checks, witness = _centrality(2, _members(_nested_qdets(2)))
    assert witness is None and checks > 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_column_independent_shift_keeps_the_verdict(swap_rho, n):
    # adding s to every rho_c of a size-k minor shifts its lam by s, which
    # maps the lam-coefficients triangularly onto each other: they stay
    # central or not, so no such rule can pass where the nested one fails.
    # A rule that shifts the first column alone is not central.
    skewed = lambda k, c: rho_shift(k, c) + (c == 1)
    verdict = lambda rep: (rep.status, rep.convention, rep.centrality_checks,
                           rep.pairs_checked)
    verdicts = []
    for base in (rho_shift, skewed):
        swap_rho(base)
        want = verdict(verify_quantum_commutes(n))
        for extra in (lambda k: Fraction(1, 3), lambda k: Fraction(n - k, 2),
                      lambda k: Fraction(-k * k, 7)):
            swap_rho(lambda k, c: base(k, c) + extra(k))
            assert verdict(verify_quantum_commutes(n)) == want
        verdicts.append(want[:2])
    assert verdicts == [("ok", "nested"), ("violation", "none")]


def test_qdet_term_lists_are_golden(swap_rho):
    # pins the witness format: term order and coefficient strings
    assert qdet(2, 2).lambda_coefficients()[0].term_list() == [
        ["-1/4", "1"], ["1/2", "EL[1,1]"], ["-1/2", "EL[2,2]"],
        ["1", "EL[1,1]*EL[2,2]"], ["-1", "EL[1,2]*EL[2,1]"]]
    assert qdet(3, 3).lambda_coefficients()[0].term_list() == [
        ["1", "EL[2,2]"], ["-1", "EL[1,1]*EL[2,2]"], ["1", "EL[1,2]*EL[2,1]"],
        ["1", "EL[2,2]*EL[3,3]"], ["-1", "EL[2,3]*EL[3,2]"],
        ["-1", "EL[1,1]*EL[2,2]*EL[3,3]"], ["1", "EL[1,1]*EL[2,3]*EL[3,2]"],
        ["1", "EL[1,2]*EL[2,1]*EL[3,3]"], ["-1", "EL[1,2]*EL[2,3]*EL[3,1]"],
        ["-1", "EL[1,3]*EL[2,1]*EL[3,2]"], ["1", "EL[1,3]*EL[2,2]*EL[3,1]"]]
    _shift_rule(swap_rho, "ambient", 3)
    assert qdet(3, 2, "right").term_list() == [
        ["-1", "lam^1"], ["1", "lam^2"], ["1", "ER[1,1]"], ["-1", "lam^1*ER[1,1]"],
        ["-1", "lam^1*ER[2,2]"], ["1", "ER[1,1]*ER[2,2]"], ["-1", "ER[1,2]*ER[2,1]"]]


def test_unshifted_determinants_are_not_central(swap_rho):
    # without the row shifts the determinants are not central, so the check
    # must end in a violation that names the failing coefficient
    _shift_rule(swap_rho, "unshifted", 2)
    rep = verify_quantum_commutes(2)
    assert rep.status == "violation"
    assert rep.convention == "none"
    assert rep.pairs_checked == 0
    assert rep.witness == {"labels": ["qdet k=2 lam^0", "E[1,2]"],
                           "terms": [["1", "EL[1,2]"]]}


def test_verify_quantum_rejects_an_empty_ambient_size():
    # N = 0 has no family and N = 1 a single member: no check may pass
    # after checking no pair
    for n in (0, 1):
        with pytest.raises(ValueError, match="ambient size"):
            verify_quantum_commutes(n)


def test_size_guard(monkeypatch):
    def no_qdet(*args):
        raise AssertionError("a quantum determinant was built before the guard")

    monkeypatch.setattr(quantum, "qdet", no_qdet)
    with pytest.raises(SizeGuardError):
        verify_quantum_commutes(7)


# ---------------------------------------------------------------------------
# the nested family, built once per N in a process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_repeated_checks_give_equal_reports(n):
    quantum._nested_qdets.cache_clear()
    first = verify_quantum_commutes(n)
    assert verify_quantum_commutes(n) == first
    assert quantum._nested_qdets(n) is quantum._nested_qdets(n)


def test_the_family_is_built_once_per_n(monkeypatch):
    # N=4 has 4 left and 3 right minors: 7 determinants cold, none warm
    quantum._nested_qdets.cache_clear()
    calls = []
    build = quantum.qdet
    monkeypatch.setattr(quantum, "qdet", lambda *a: calls.append(a) or build(*a))
    counts = []
    for _ in range(2):
        calls.clear()
        assert verify_quantum_commutes(4).status == "ok"
        counts.append(len(calls))
    assert counts == [7, 0]


def test_a_swapped_shift_after_a_cached_call_gives_the_swapped_verdict(swap_rho):
    # the cache is warm with the nested family; the swap must not read it,
    # and this test leaves the unshifted family in the cache for the
    # teardown to clear (the next test checks that it did)
    assert verify_quantum_commutes(2).status == "ok"
    _shift_rule(swap_rho, "unshifted", 2)
    rep = verify_quantum_commutes(2)
    assert (rep.status, rep.convention) == ("violation", "none")


def test_the_next_test_sees_the_nested_family_again():
    rep = verify_quantum_commutes(2)
    assert (rep.status, rep.convention, rep.pairs_checked) == ("ok", "nested", 6)


# ---------------------------------------------------------------------------
# the pairs by the Leibniz rule against the product-form commutator
# ---------------------------------------------------------------------------
#
# By the Leibniz rule a member that commutes with every letter of another
# commutes with it.  Once the centrality pass finds no witness, each member
# commutes with every letter of its own gl_k, so with every member of the
# same or a smaller size, and of the other copy: the check counts every
# pair as zero without computing it.

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("convention", ["nested", "ambient", "unshifted"])
def test_leibniz_pairs_equal_the_product_form(swap_rho, n, convention):
    from gztower.quantum import _centrality, _members, _nested_qdets
    _shift_rule(swap_rho, convention, n)
    members = _members(_nested_qdets(n))
    _, witness = _centrality(n, members)
    nonzero = sum(not a.commutator(b).is_zero()
                  for (_, _, _, a), (_, _, _, b) in itertools.combinations(members, 2))
    # central families commute pairwise; unshifted, the centrality pass
    # fails at every n, and 1 pair fails at N=3 and 9 at N=4
    assert (witness is None) == (convention != "unshifted")
    assert nonzero == ({2: 0, 3: 1, 4: 9}[n] if convention == "unshifted" else 0)


@pytest.mark.parametrize("n", [4, 5])
def test_leibniz_scan_takes_the_other_copy_as_zero(monkeypatch, n):
    # on a passing family the centrality pass decides every pair, so each
    # commutator the check computes is one of its centrality checks, and
    # none is a product-form commutator
    pairs, checks = {4: (120, 136), 5: (300, 325)}[n]
    calls = []
    kernel = quantum._letter_commutator
    monkeypatch.setattr(quantum, "_letter_commutator",
                        lambda c, x: calls.append(x) or kernel(c, x))
    monkeypatch.setattr(NCPoly, "commutator", lambda a, b: pytest.fail("product form"))
    rep = verify_quantum_commutes(n)
    assert (rep.status, rep.pairs_checked, rep.centrality_checks) == ("ok", pairs, checks)
    assert len(calls) == checks


@pytest.mark.parametrize("at_front", [True, False])
def test_leibniz_scan_reports_a_broken_family_like_the_product_form(monkeypatch, at_front):
    # the nested family plus E_L[1,2], which commutes with few members: the
    # product form finds a nonzero pair, and the check, which computes no
    # pair, fails it in the centrality pass, naming the extra member
    from gztower.poisson import scan_pairs
    from gztower.quantum import _family, _members
    n = 3
    extra = (2, LEFT, 0, E(1, 2, n=n))
    with_extra = lambda dets: [extra] + _members(dets) if at_front else _members(dets) + [extra]
    monkeypatch.setattr(quantum, "_members", with_extra)
    members = with_extra(quantum._nested_qdets(n))
    _, worst, witness = scan_pairs(_family(n, members), NCPoly.commutator)
    assert witness is not None and worst > 0
    rep = verify_quantum_commutes(n)
    assert (rep.status, rep.convention, rep.pairs_checked) == ("violation", "none", 0)
    assert rep.witness == {"labels": ["qdet k=2 lam^0", "E[1,1]"],
                           "terms": [["-1", "EL[1,2]"]]}


# ---------------------------------------------------------------------------
# [E, c] by the derivation rule against the product-form commutator
# ---------------------------------------------------------------------------

def _kernel_commutator(c, copy, i, j):
    """[c, E_ij] from the derivation-rule kernel, as an NCPoly."""
    res = quantum._letter_commutator(c, quantum._code(copy, i, j))
    return Q._make(c.n, {key: -v for key, v in res.items()}, c._den)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("convention", ["nested", "ambient", "unshifted"])
def test_letter_commutators_equal_the_product_form(swap_rho, n, convention):
    # every member against every letter of gl_N in both copies, term for term
    from gztower.quantum import _members, _nested_qdets
    _shift_rule(swap_rho, convention, n)
    members = _members(_nested_qdets(n))
    own_nonzero = 0
    for k, own, _, c in members:
        for copy, i, j in itertools.product((LEFT, RIGHT), range(1, n + 1), range(1, n + 1)):
            kernel = _kernel_commutator(c, copy, i, j)
            product_form = c.commutator(Q.e(n, i, j, copy))
            assert kernel == product_form
            assert kernel.term_list() == product_form.term_list()
            if copy == own and max(i, j) <= k:
                own_nonzero += not kernel.is_zero()
    # against the letters of its own gl_k a member is central, unless unshifted
    assert (own_nonzero > 0) == (convention == "unshifted")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_letter_commutators_of_mixed_elements_match_the_oracle(data):
    # mixed copies, powers of lam and rational coefficients
    n = data.draw(st.sampled_from([2, 3]))
    tc = data.draw(oracle_elements(n))
    copy, i, j = data.draw(st.tuples(st.sampled_from([LEFT, RIGHT]),
                                     st.integers(1, n), st.integers(1, n)))
    c, e = Q(n, tc), Q.e(n, i, j, copy)
    kernel = _kernel_commutator(c, copy, i, j)
    assert kernel == c.commutator(e)
    assert kernel.terms == _oracle_add(_oracle_mul(tc, e.terms), _oracle_mul(e.terms, tc), -1)


def test_the_left_multiplication_cache_keeps_no_sorted_product():
    # x * w with x <= w[0] is a concatenation: returned, never stored
    verify_quantum_commutes(4)
    assert quantum._LMUL
    for (x, w), expansion in quantum._LMUL.items():
        assert expansion != (((x,) + w, 1),)
        assert w and x > w[0]


def test_classical_limit_top_degree():
    for n in (2, 3):
        for k in range(1, n + 1):
            cl = classical_limit(qdet(n, k, "left"))
            cm = char_minor(n, k, "left")
            diff = cl - cm
            for (lp, mp), coeff in diff.lambda_mu_coefficients().items():
                top = cm.lambda_mu_coefficients().get((lp, mp))
                if top is not None and not coeff.is_zero():
                    assert coeff.degree() < top.degree()


# ---------------------------------------------------------------------------
# differential-operator realization
# ---------------------------------------------------------------------------

def test_nabla_left_commutator_example():
    g11 = P.g(2, 1, 1)
    lhs = nabla_left(2, 1, 2).commutator_apply(nabla_left(2, 2, 1), g11)
    rhs = nabla_left(2, 1, 1)(g11) - nabla_left(2, 2, 2)(g11)
    assert lhs == rhs


def test_nabla_cross_chirality_commutes():
    f = P.g(2, 1, 2) * P.g(2, 2, 1) + P.g(2, 1, 1)
    assert nabla_left(2, 1, 1).commutator_apply(nabla_right(2, 2, 2), f).is_zero()


def test_nabla_kills_constants():
    one = P.constant(2, 1)
    assert nabla_left(2, 1, 2)(one).is_zero()
    assert nabla_right(2, 2, 1)(one).is_zero()


def test_nabla_operators_are_built_once_per_index(monkeypatch):
    nabla_left.cache_clear()
    nabla_right.cache_clear()
    calls = []
    build = PoissonPoly.generator.__func__
    monkeypatch.setattr(PoissonPoly, "generator",
                        classmethod(lambda cls, *a: calls.append(a) or build(cls, *a)))
    diffop_realization_check(3, trials=12, seed=2)
    cold = len(calls)
    calls.clear()
    diffop_realization_check(3, trials=12, seed=2)
    # warm, only the random test polynomials build generators; cold, each
    # of the at most 2 * 3^2 operators adds its 3 coefficients once
    assert 0 < cold - len(calls) <= 2 * 3 ** 3
    assert nabla_left(3, 1, 2) is nabla_left(3, 1, 2)
    assert nabla_right(3, 2, 1) is nabla_right(3, 2, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_diffop_realization_check(n):
    rep = diffop_realization_check(n, trials=10, seed=0)
    assert rep.status == "ok"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_diffop_realization_check_catches_a_wrong_operator(monkeypatch, n, seed):
    # nabla_R with its sign flipped still commutes with nabla_L, but
    # realizes the gl_N relations with the wrong sign
    wrong = lambda n, i, j: PolyDiffOp(
        n, [(PoissonPoly.g(n, j, k), (i, k)) for k in range(1, n + 1)])
    monkeypatch.setattr(quantum, "nabla_right", wrong)
    assert diffop_realization_check(n, seed=seed).status == "violation"


# ---------------------------------------------------------------------------
# the realization check against its product form
# ---------------------------------------------------------------------------
#
# The check as it was written with PoissonPoly arithmetic: each side of each
# relation a polynomial, the residual their difference.  Operators are read
# from the module, so a patched operator reaches both.

def _oracle_random_g_poly(n, rng):
    poly = P.constant(n, rng.randrange(-2, 3))
    for _ in range(rng.randrange(1, 4)):
        term = P.constant(n, rng.randrange(-3, 4))
        for _ in range(rng.randrange(1, quantum._MAX_G_DEGREE + 1)):
            i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            term = term * P.g(n, i, j)
        poly = poly + term
    return poly


def _oracle_realization(n, trials=12, seed=0, with_jk=True):
    rng = random.Random(seed)
    checks = 0
    for _ in range(trials):
        f = _oracle_random_g_poly(n, rng)
        i, j, k, l = (rng.randrange(1, n + 1) for _ in range(4))
        for maker in (quantum.nabla_left, quantum.nabla_right):
            lhs = maker(n, i, j).commutator_apply(maker(n, k, l), f)
            rhs = P.zero(n)
            if j == k and with_jk:
                rhs = rhs + maker(n, i, l)(f)
            if l == i:
                rhs = rhs - maker(n, k, j)(f)
            checks += 1
            if not (lhs - rhs).is_zero():
                return checks, "violation"
        cross = quantum.nabla_left(n, i, j).commutator_apply(quantum.nabla_right(n, k, l), f)
        checks += 1
        if not cross.is_zero():
            return checks, "violation"
    return checks, "ok"


def test_random_test_polynomials_equal_the_product_form():
    for n in (1, 2, 3, 4):
        for seed in range(50):
            a, b = random.Random(seed), random.Random(seed)
            for _ in range(4):
                f, g = _oracle_random_g_poly(n, a), quantum._random_g_poly(n, b)
                assert f == g and f.term_list() == g.term_list()
            assert a.random() == b.random()     # the same draws, in order


def _sign_flipped_right(n, i, j):
    return PolyDiffOp(n, [(PoissonPoly.g(n, j, k), (i, k)) for k in range(1, n + 1)])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_a_realization_violation_carries_its_witness(monkeypatch, n, seed):
    # nabla_R without its minus sign (mutant M4) still commutes with
    # nabla_L and keeps the L,L relations, so the first failing relation is
    # an R,R one; the witness names its trial, operators, f and residual,
    # which the product form recomputes.  An ok report carries none
    ok = diffop_realization_check(n, seed=seed)
    assert ok.status == "ok" and ok.witness is None and ok.to_json()["witness"] is None
    monkeypatch.setattr(quantum, "nabla_right", _sign_flipped_right)
    rep = diffop_realization_check(n, seed=seed)
    assert rep.status == "violation" and rep.to_json()["witness"] == rep.witness
    witness = rep.witness
    assert set(witness) == {"trial", "relation", "f", "residual"}
    rng = random.Random(seed)
    for _ in range(witness["trial"]):
        f = _oracle_random_g_poly(n, rng)
        i, j, k, l = (rng.randrange(1, n + 1) for _ in range(4))
    assert witness["relation"] == f"R({i},{j}),R({k},{l})"
    assert witness["f"] == f.term_list()
    right = quantum.nabla_right
    residual = right(n, i, j).commutator_apply(right(n, k, l), f)
    if j == k:
        residual = residual - right(n, i, l)(f)
    if l == i:
        residual = residual + right(n, k, j)(f)
    assert witness["residual"] == residual.term_list() != []
    assert rep.checks == 3 * (witness["trial"] - 1) + 2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("operators", ["real", "sign-flipped"])
def test_realization_check_equals_the_product_form(monkeypatch, n, operators):
    if operators == "sign-flipped":
        monkeypatch.setattr(quantum, "nabla_right", _sign_flipped_right)
    for seed in range(20):
        rep = diffop_realization_check(n, seed=seed)
        assert (rep.checks, rep.status) == _oracle_realization(n, seed=seed)
        # 12 trials may miss the flipped sign; 40 do not, at these seeds
        longer = diffop_realization_check(n, trials=40, seed=seed)
        assert longer.status == ("ok" if operators == "real" else "violation")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_realization_check_needs_the_delta_jk_term(monkeypatch, n):
    # the right-hand side with d(j,k) nabla(il) dropped from the structure
    # constants: a violation as soon as a trial draws j = k
    bracket = quantum._letter_bracket
    monkeypatch.setattr(quantum, "_letter_bracket",
                        lambda x, y: tuple(t for t in bracket(x, y) if t[0] != 1))
    for seed in range(20):
        rep = diffop_realization_check(n, seed=seed)
        assert (rep.checks, rep.status) == _oracle_realization(n, seed=seed, with_jk=False)
        assert diffop_realization_check(n, trials=40, seed=seed).status == "violation"
