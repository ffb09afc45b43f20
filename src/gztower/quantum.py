"""PBW computation in two commuting copies of U(gl_N) and quantum determinants.

Elements live in U(gl_N) (x) U(gl_N): the left copy models the quantized u,
the right copy the quantized ut.  Within a copy the generators satisfy

    [E(i,j), E(k,l)] = d(j,k) E(i,l) - d(l,i) E(k,j)

and generators from different copies commute.  Products are rewritten to
Poincare-Birkhoff-Witt normal form under the lexicographic order on
(copy, i, j); coefficients are polynomials in a central lam over exact
rationals.

The quantum determinant of size k is the permutation sum

    sum_p sign(p) prod_{c=1..k} (lam - rho_c - E)[p(c), c]

with factors multiplied left-to-right in column order and row shifts
rho_c = (k - 2c + 1)/2 (the "nested" shifts of the k x k minor itself).
Its lam-coefficients are central; the nested minors for k < N give the
quantum Gelfand-Zetlin family.

The module also carries the first-order differential operators

    nabla_L[i,j] = sum_k g[k,i] d/dg[k,j]
    nabla_R[i,j] = -sum_k g[j,k] d/dg[i,k]

acting on exact polynomials in the g entries.  They realize the two gl_N
copies (and their mutual commutativity) on polynomial test functions and
serve as an independent faithful oracle for the PBW engine.  The test
polynomials come from the standard library's ``random.Random(seed)``: the
module is exact throughout and loads neither numpy nor dataclasses.

Memos, all process-wide and never cleared: ``_LMUL`` holds x * w for a
letter x and a sorted word w, from which every PBW product and bracket is
built; ``_BRACKET`` holds [x, w], which the centrality pass asks for about
twice per entry, so it pays in a cold run as in a warm one; ``_nested_qdets``
holds the nested family of each N, so a repeated
``verify_quantum_commutes(n)`` builds no determinant; ``nabla_left``,
``nabla_right`` and ``_g_units`` hold the realization's operators and
packed g-monomials.  Whole word products are not memoised: each is a few
``_LMUL`` reads, and a memo of them saved no measurable time.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .poisson import (G, U, UTILDE, AmbientSizeError, ExactPoly, PoissonPoly, _slot_layout,
                      column_det)

__all__ = [
    "LEFT", "RIGHT", "NCPoly", "rho_shift", "qdet",
    "verify_quantum_commutes", "QuantumReport", "SizeGuardError",
    "PolyDiffOp", "nabla_left", "nabla_right", "apply_nc_as_diffop",
    "diffop_realization_check", "classical_limit",
]

LEFT, RIGHT = 0, 1

QGen = tuple[int, int, int]          # (copy, i, j)
Word = tuple[QGen, ...]              # PBW-ordered when normalized
Key = tuple[int, Word]               # (lam power, word)


class SizeGuardError(ValueError):
    """Requested size exceeds the default cost guard."""


def rho_shift(k: int, c: int) -> Fraction:
    """Row shift (k - 2c + 1)/2 for column c of a size-k quantum minor."""
    return Fraction(k - 2 * c + 1, 2)


# ---------------------------------------------------------------------------
# PBW rewriting
# ---------------------------------------------------------------------------
#
# Inside the kernel a generator (copy, i, j) is the int code
# (copy << 2*_IJ_BITS) | (i << _IJ_BITS) | j.  With i, j < 2**_IJ_BITS the PBW
# order on (copy, i, j) is the order of the codes, and a word is a sorted
# tuple of codes.  Left letters precede right ones; the two halves multiply
# independently.

_IJ_BITS = 16
_IJ_MASK = (1 << _IJ_BITS) - 1
_RIGHT_LETTER = RIGHT << (2 * _IJ_BITS)     # smallest right-copy code


def _code(copy: int, i: int, j: int) -> int:
    return (copy << (2 * _IJ_BITS)) | (i << _IJ_BITS) | j


def _decode(c: int) -> QGen:
    return (c >> (2 * _IJ_BITS), (c >> _IJ_BITS) & _IJ_MASK, c & _IJ_MASK)


@lru_cache(maxsize=None)
def _letter_bracket(x: int, y: int) -> tuple[tuple[int, int], ...]:
    """[x, y] as (coefficient, code) pairs, for codes x, y of one copy."""
    copy, i, j = _decode(x)
    _, k, l = _decode(y)
    out = []
    if j == k:
        out.append((1, _code(copy, i, l)))
    if l == i:
        out.append((-1, _code(copy, k, j)))
    return tuple(out)


Expansion = tuple[tuple[tuple[int, ...], int], ...]   # ((word, coefficient), ...)
_LMUL: dict[tuple[int, tuple[int, ...]], Expansion] = {}


def _lmul(x: int, w: tuple[int, ...]) -> Expansion:
    """x * w in normal form, for a letter x and a sorted word w of x's copy.

    With y = w[0] < x:  x * (y * rest) = y * (x * rest) + [x, y] * rest.
    """
    if not w or x <= w[0]:
        return (((x,) + w, 1),)         # already sorted: not worth a cache entry
    key = (x, w)
    hit = _LMUL.get(key)
    if hit is not None:
        return hit
    y, rest = w[0], w[1:]
    acc: dict[tuple[int, ...], int] = {}
    for v, c in _lmul(x, rest):
        for u, d in _lmul(y, v):
            acc[u] = acc.get(u, 0) + c * d
    for coef, z in _letter_bracket(x, y):
        for v, c in _lmul(z, rest):
            acc[v] = acc.get(v, 0) + coef * c
    out = _LMUL[key] = tuple((v, c) for v, c in acc.items() if c)
    return out


def _copy_product(a: tuple[int, ...], b: tuple[int, ...]) -> Expansion:
    """a * b in normal form, for sorted words a, b of one copy."""
    if not a or not b or a[-1] <= b[0]:
        return ((a + b, 1),)
    acc = {b: 1}
    for x in reversed(a):
        nxt: dict[tuple[int, ...], int] = {}
        for w, c in acc.items():
            for v, d in _lmul(x, w):
                nxt[v] = nxt.get(v, 0) + c * d
        acc = nxt
    return tuple((v, c) for v, c in acc.items() if c)


def _word_product(a: tuple[int, ...], b: tuple[int, ...]) -> Expansion:
    """a * b in normal form; the copies commute, so each half is ordered alone."""
    if not a or not b or a[-1] <= b[0]:
        return ((a + b, 1),)
    sa = bisect_left(a, _RIGHT_LETTER)
    sb = bisect_left(b, _RIGHT_LETTER)
    left = _copy_product(a[:sa], b[:sb])
    right = _copy_product(a[sa:], b[sb:])
    return tuple((w + v, c * d) for w, c in left for v, d in right)


_BRACKET: dict[tuple[int, tuple[int, ...]], Expansion] = {}


def _letter_word_bracket(x: int, w: tuple[int, ...]) -> Expansion:
    """[x, w] in normal form, for a letter x and a sorted word w of x's copy.

    By the derivation rule [x, y1...ym] = sum_t y1...y(t-1) [x, y_t] y(t+1)...ym,
    where [x, y_t] is a combination of letters z.  Most substituted words
    are still sorted; only the others are normal-ordered, as head * (z * tail).
    """
    key = (x, w)
    hit = _BRACKET.get(key)
    if hit is not None:
        return hit
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for t, y in enumerate(w):
        letters = _letter_bracket(x, y)
        if not letters:
            continue
        head, tail = w[:t], w[t + 1:]
        for coef, z in letters:
            if (not head or head[-1] <= z) and (not tail or z <= tail[0]):
                v = head + (z,) + tail
                acc[v] = get(v, 0) + coef
            else:
                for v, c in _lmul(z, tail):
                    for u, d in _copy_product(head, v):
                        acc[u] = get(u, 0) + coef * c * d
    out = _BRACKET[key] = tuple((v, c) for v, c in acc.items() if c)
    return out


def _letter_commutator(member: "NCPoly", x: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """[x, member] for the letter x, as its nonzero numerators over member's
    denominator: the sum of c [x, w] over the terms c w of member, where only
    the half of w in x's copy fails to commute with x."""
    right = x >= _RIGHT_LETTER
    out: dict[tuple[int, tuple[int, ...]], int] = {}
    get = out.get
    for (lp, w), c in member._num.items():
        s = bisect_left(w, _RIGHT_LETTER)
        head, half, tail = (w[:s], w[s:], ()) if right else ((), w[:s], w[s:])
        for v, d in _letter_word_bracket(x, half):
            key = (lp, head + v + tail)
            out[key] = get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


class NCPoly(ExactPoly):
    """PBW-normal-ordered element of U(gl_N) (x) U(gl_N) with lam coefficients.

    Keys are (lam power, PBW word) pairs, the word a tuple of letter codes;
    every stored word is in normal form, so equality of the stored data is
    equality in the algebra.  The readable keys of ``terms`` and the
    constructor spell the word as (copy, i, j) generators, and are ordered
    by word length, then (lam power, word).
    """

    __slots__ = ()
    _ONE = (0, ())

    @staticmethod
    def _pack(n: int, key: Key) -> tuple[int, tuple[int, ...]]:
        lp, word = key
        return lp, tuple(_code(*g) for g in word)

    @staticmethod
    def _unpack(n: int, key: tuple[int, tuple[int, ...]]) -> Key:
        lp, word = key
        return lp, tuple(map(_decode, word))

    @staticmethod
    def _key_str(key: Key) -> str:
        lp, word = key
        parts = [f"lam^{lp}"] if lp else []
        parts += [f"E{'LR'[copy]}[{i},{j}]" for copy, i, j in word]
        return "*".join(parts) or "1"

    @staticmethod
    def _key_order(key: Key) -> tuple:
        return len(key[1]), key

    # -- constructors -------------------------------------------------

    @classmethod
    def lam(cls, n: int, power: int = 1) -> "NCPoly":
        return cls._make(n, {(power, ()): 1}, 1)

    @classmethod
    def e(cls, n: int, i: int, j: int, copy: int = LEFT) -> "NCPoly":
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"index ({i},{j}) outside 1..{n}")
        return cls._make(n, {(0, (_code(copy, i, j),)): 1}, 1)

    # -- structure ----------------------------------------------------

    def is_constant(self) -> bool:
        return all(not w for (_, w) in self._num)

    # -- arithmetic ---------------------------------------------------

    def _product(self, other: "NCPoly") -> "NCPoly":
        out: dict[tuple[int, tuple[int, ...]], int] = {}
        get = out.get
        right = list(other._num.items())
        for (la, wa), ca in self._num.items():
            for (lb, wb), cb in right:
                scale = ca * cb
                lam_pow = la + lb
                for w, c in _word_product(wa, wb):
                    key = (lam_pow, w)
                    out[key] = get(key, 0) + scale * c
        return NCPoly._make(self.n, out, self._den * other._den)

    # -- coefficient handling ------------------------------------------

    def lambda_coefficients(self) -> dict[int, "NCPoly"]:
        """lam power -> coefficient, in increasing powers."""
        buckets: dict[int, dict] = {}
        for (lp, w), c in self._num.items():
            buckets.setdefault(lp, {})[(0, w)] = c
        return {lp: NCPoly._make(self.n, buckets[lp], self._den)
                for lp in sorted(buckets)}


# ---------------------------------------------------------------------------
# quantum determinants and the commuting family
# ---------------------------------------------------------------------------

def qdet(n: int, k: int, side: str = "left") -> NCPoly:
    """Size-k quantum determinant of (lam - rho - E), column-ordered, with
    the row shifts rho_c = rho_shift(k, c) of the k x k minor itself."""
    if not 1 <= k <= n:
        raise ValueError(f"minor size {k} outside 1..{n}")
    copy = LEFT if side == "left" else RIGHT
    columns = []
    for c in range(1, k + 1):
        column = [-NCPoly.e(n, r, c, copy) for r in range(1, k + 1)]
        column[c - 1] = column[c - 1] + NCPoly.lam(n) - rho_shift(k, c)
        columns.append(column)
    return column_det(columns, NCPoly.constant(n, 1))


@lru_cache(maxsize=None)
def _nested_qdets(n: int) -> tuple[tuple[int, int, NCPoly], ...]:
    """(k, copy, qdet) for the left minors k = 1..n and the right ones k < n,
    built once per n: NCPoly values are immutable, so callers share them."""
    dets = []
    for k in range(1, n + 1):
        dets.append((k, LEFT, qdet(n, k, "left")))
        if k < n:
            dets.append((k, RIGHT, qdet(n, k, "right")))
    return tuple(dets)


_Member = tuple[int, int, int, NCPoly]    # (k, copy, lam power, coefficient)


def _members(dets: tuple[tuple[int, int, NCPoly], ...]) -> list[_Member]:
    """Every nonconstant lam-coefficient of the determinants, in order."""
    return [(k, copy, lp, coeff) for k, copy, det in dets
            for lp, coeff in det.lambda_coefficients().items() if not coeff.is_constant()]


class QuantumReport(NamedTuple):
    n: int
    convention: str
    members: int
    centrality_checks: int
    pairs_checked: int
    max_nonzero_terms: int
    status: str
    witness: dict | None = None

    def to_json(self) -> dict:
        data = self._asdict()
        data.update(family={"kind": "quantum-gz", "n": data.pop("n")},
                    pairs=data.pop("pairs_checked"))
        return data


def _centrality(n: int, members: list[_Member]) -> tuple[int, dict | None]:
    """[c, E_ij] for each member c and each letter of its own gl_k.

    Returns the number of checks and the first nonzero commutator as a
    witness, or None.  Each check is one _letter_commutator; only a witness
    becomes an NCPoly.
    """
    checks = 0
    witness = None
    for k, copy, lp, coeff in members:
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                res = _letter_commutator(coeff, _code(copy, i, j))
                checks += 1
                if witness is None and res:
                    # [c, E] = -[E, c]
                    res = NCPoly._make(n, {key: -c for key, c in res.items()}, coeff._den)
                    witness = {
                        "labels": [f"qdet k={k} lam^{lp}", f"E[{i},{j}]"],
                        "terms": res.term_list(),
                    }
    return checks, witness


def verify_quantum_commutes(n: int, allow_large: bool = False) -> QuantumReport:
    """Centrality of the nested quantum determinants plus pairwise commutativity.

    The quantum determinants are built once per n in a process
    (``_nested_qdets``).  The report's convention is 'nested' when the
    family is central and 'none' otherwise: adding one
    amount to every rho_c only shifts lam, which maps the lam-coefficients
    triangularly onto each other, so no such shift could change the
    verdict.  The pairs then follow exactly by the Leibniz rule: of two
    members of sizes k <= l, the one of size l commutes with every letter of
    its own gl_l, so with every letter of the other member (the copies
    commute), so with the other member.  Every pair is counted, and none can
    be nonzero.  A pass that saw other than k^2 checks per member of size k
    is a violation (witness {expected, seen}).  Raises ValueError at n < 2,
    where the family has one member and no pair.
    """
    if n < 2:
        raise ValueError(f"ambient size must be >= 2, got {n}: "
                         "below N=2 the family has no pair to check")
    if n > 6 and not allow_large:
        raise SizeGuardError(
            f"N={n} PBW verification is expensive; pass --allow-large to proceed")
    members = _members(_nested_qdets(n))
    checks, witness = _centrality(n, members)
    expected = sum(k * k for k, *_ in members)
    if witness is None and checks != expected:
        witness = {"expected": expected, "seen": checks}
    m, ok = len(members), witness is None
    return QuantumReport(n=n, convention="nested" if ok else "none", members=m,
                         centrality_checks=checks, pairs_checked=m * (m - 1) // 2 if ok else 0,
                         max_nonzero_terms=0, status="ok" if ok else "violation", witness=witness)


# ---------------------------------------------------------------------------
# differential-operator realization
# ---------------------------------------------------------------------------

class PolyDiffOp:
    """First-order operator sum_t coeff_t(g) * d/dg[i_t, j_t] on g-polynomials."""

    __slots__ = ("n", "parts", "den", "_field")

    def __init__(self, n: int, parts: list[tuple[PoissonPoly, tuple[int, int]]]):
        self.n = n
        self.parts = tuple(parts)       # immutable: the nabla operators are shared
        self.den = lcm(*(coeff._den for coeff, _ in self.parts))
        self._field = tuple((coeff, (G, i, j)) for coeff, (i, j) in self.parts)

    def __call__(self, f: PoissonPoly) -> PoissonPoly:
        if f.n != self.n:
            raise AmbientSizeError(f"ambient sizes differ: {f.n} != {self.n}")
        return f.derivative_along(self._field)

    def add_to(self, out: dict[int, int], f: PoissonPoly, den: int, sign: int = 1) -> None:
        """Add sign * self(f) to out as numerators over den, a multiple of
        f._den * self.den."""
        f._add_derivative(self._field, out, den, sign)


@lru_cache(maxsize=None)
def nabla_left(n: int, i: int, j: int) -> PolyDiffOp:
    """sum_k g[k,i] d/dg[k,j]"""
    return PolyDiffOp(n, [(PoissonPoly.g(n, k, i), (k, j)) for k in range(1, n + 1)])


@lru_cache(maxsize=None)
def nabla_right(n: int, i: int, j: int) -> PolyDiffOp:
    """-sum_k g[j,k] d/dg[i,k]"""
    return PolyDiffOp(n, [(-PoissonPoly.g(n, j, k), (i, k)) for k in range(1, n + 1)])


def apply_nc_as_diffop(op: NCPoly, f: PoissonPoly) -> PoissonPoly:
    """Apply a lam-free NCPoly as a composition of nabla operators to f.

    Realizes the left copy by nabla_L and the right copy by nabla_R; this is
    a faithful action on polynomials and is used as an oracle for the PBW
    arithmetic.
    """
    n = op.n
    out = PoissonPoly.zero(n)
    for (lp, word), coeff in op.terms.items():
        if lp:
            raise ValueError("lam-dependent elements have no polynomial action")
        val = f
        for copy, i, j in reversed(word):
            nab = nabla_left(n, i, j) if copy == LEFT else nabla_right(n, i, j)
            val = nab(val)
        out = out + val * coeff
    return out


class DiffOpReport(NamedTuple):
    n: int
    trials: int
    checks: int
    status: str
    witness: dict | None = None

    def to_json(self) -> dict:
        return self._asdict()


_MAX_G_DEGREE = 3           # the largest degree of a term of _random_g_poly


@lru_cache(maxsize=None)
def _g_units(n: int) -> dict[tuple[int, int], int]:
    """The packed monomial of each g[i, j] over gl_n: a product of them is their sum."""
    pack = _slot_layout(n).pack
    return {(i, j): pack((((G, i, j), 1),)) for i in range(1, n + 1) for j in range(1, n + 1)}


def _random_g_poly(n: int, rng: random.Random) -> PoissonPoly:
    """A constant plus one to three integer multiples of g-monomials of
    degree 1.._MAX_G_DEGREE, collected into one dict."""
    units = _g_units(n)
    num = {0: rng.randrange(-2, 3)}
    for _ in range(rng.randrange(1, 4)):
        coeff = rng.randrange(-3, 4)
        key = 0
        for _ in range(rng.randrange(1, _MAX_G_DEGREE + 1)):
            key += units[rng.randrange(1, n + 1), rng.randrange(1, n + 1)]
        num[key] = num.get(key, 0) + coeff
    return PoissonPoly._make(n, num, 1)


_Applied = tuple[PolyDiffOp, PoissonPoly]    # (op, op(f))


def _residual(f: PoissonPoly, a_f: _Applied, b_f: _Applied,
              rhs: list[tuple[int, PolyDiffOp]]) -> PoissonPoly | None:
    """a(b f) - b(a f) - sum coef * op(f) over rhs, from a(f) and b(f),
    summed into one dict over a common denominator; None when it is zero."""
    (a, af), (b, bf) = a_f, b_f
    den = lcm(bf._den * a.den, af._den * b.den, *(f._den * op.den for _, op in rhs))
    out: dict[int, int] = {}
    a.add_to(out, bf, den)
    b.add_to(out, af, den, -1)
    for coef, op in rhs:
        op.add_to(out, f, den, -coef)
    return PoissonPoly._make(f.n, out, den) if any(out.values()) else None


def diffop_realization_check(n: int, trials: int = 12, seed: int = 0) -> DiffOpReport:
    """Assert the gl_N commutation relations of nabla_L, nabla_R exactly.

    For exact polynomials f drawn from random.Random(seed) the residuals
    [nabla(ij), nabla(kl)] f - (d(j,k) nabla(il) - d(l,i) nabla(kj)) f within
    one chirality, with the structure constants of the PBW engine, and
    [nabla_L, nabla_R] f across chiralities must be the zero polynomial.
    The first nonzero residual stops the check, and the report's witness
    names it: {"trial" (from 1), "relation" (its two operators, as in
    "L(1,2),R(2,1)"), "f", "residual"}, with f and the residual term_list()s.
    """
    rng = random.Random(seed)
    checks = 0
    for trial in range(1, trials + 1):
        f = _random_g_poly(n, rng)
        i, j, k, l = (rng.randrange(1, n + 1) for _ in range(4))
        structure = [(coef, _decode(z)[1:])
                     for coef, z in _letter_bracket(_code(LEFT, i, j), _code(LEFT, k, l))]
        lij, lkl, rij, rkl = ((op, op(f)) for op in (
            nabla_left(n, i, j), nabla_left(n, k, l), nabla_right(n, i, j), nabla_right(n, k, l)))
        relations = (
            ("L,L", lij, lkl, [(c, nabla_left(n, *z)) for c, z in structure]),
            ("R,R", rij, rkl, [(c, nabla_right(n, *z)) for c, z in structure]),
            ("L,R", lij, rkl, []),
        )
        for sides, a_f, b_f, rhs in relations:
            checks += 1
            residual = _residual(f, a_f, b_f, rhs)
            if residual is not None:
                x, y = sides.split(",")
                witness = {"trial": trial, "relation": f"{x}({i},{j}),{y}({k},{l})",
                           "f": f.term_list(), "residual": residual.term_list()}
                return DiffOpReport(n=n, trials=trials, checks=checks, status="violation",
                                    witness=witness)
    return DiffOpReport(n=n, trials=trials, checks=checks, status="ok")


def classical_limit(op: NCPoly) -> PoissonPoly:
    """Replace PBW words by commutative monomials: E_L -> u, E_R -> ut."""
    out = PoissonPoly.zero(op.n)
    for (lp, word), coeff in op.terms.items():
        term = PoissonPoly.constant(op.n, coeff)
        if lp:
            term = term * PoissonPoly.lam(op.n) ** lp
        for copy, i, j in word:
            kind = U if copy == LEFT else UTILDE
            term = term * PoissonPoly.generator(op.n, kind, i, j)
        out = out + term
    return out
