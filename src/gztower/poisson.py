"""Exact Poisson algebra on the coordinate ring of T*GL(N).

The phase space is coordinatized by a group element g together with the
left/right momentum matrices u and ut ("u-tilde").  This module provides

* ``ExactPoly`` -- the exact core shared with the quantum algebra: integer
  numerators over one common denominator in lowest terms, with the linear
  operations; ``column_det`` expands a determinant over it and
  ``scan_pairs`` brackets every pair of a family;
* ``PoissonPoly`` -- polynomials in the entries u[i,j], ut[i,j], g[i,j]
  and two central scalars lam, mu, with exact rational coefficients: each
  monomial packed into one int;
* ``bracket`` -- the Poisson bracket, extending the generator table below
  by bilinearity and the Leibniz rule;
* ``CanonicalPoint`` plus a central finite-difference bracket in canonical
  coordinates (g, p), used everywhere as an independent numerical oracle;
  ``central_gradient`` is the one difference stencil of every oracle, in
  plain Python on a flat list of entries.  The rest of this part needs
  numpy, and imports it on first use.

Generator table (all other combinations vanish; lam and mu are central)::

    {u[i,j],  u[k,l]}  =  d(j,k) u[i,l]  - d(l,i) u[k,j]
    {ut[i,j], ut[k,l]} =  d(j,k) ut[i,l] - d(l,i) ut[k,j]
    {u[i,j],  ut[k,l]} =  0
    {u[i,j],  g[k,l]}  = -d(i,l) g[k,j]
    {ut[i,j], g[k,l]}  =  d(j,k) g[i,l]
    {g[i,j],  g[k,l]}  =  0

The sign of the u-g row is the unique choice for which the whole table
satisfies the Jacobi identity while keeping the two gl_N rows, the u-ut
row and the ut-g row in the form above.  It is realized in canonical
coordinates ({g[i,j], p[k,l]} = d(i,k) d(j,l)) by the momentum maps

    u = p^T g,      ut = -g p^T = -g u g^{-1},

which is the convention adopted throughout the package.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isfinite, lcm
from operator import mul, or_
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "U", "UTILDE", "G", "LAM", "MU",
    "AmbientSizeError", "SlotOverflowError", "ExactPoly", "PoissonPoly", "bracket",
    "column_det", "scan_pairs",
    "CanonicalPoint", "random_canonical_point",
    "u_as_canonical", "utilde_as_canonical",
    "evaluate", "evaluate_at", "gradient_at", "central_gradient", "canonical_bracket",
    "poly_function",
]

# Generator kinds.  A generator is a tuple (kind, row, col); the central
# scalars lam and mu carry row = col = 0.
U, UTILDE, G, LAM, MU = range(5)

_KIND_NAMES = {U: "u", UTILDE: "ut", G: "g", LAM: "lam", MU: "mu"}
_MATRIX_KINDS = (U, UTILDE, G)

Gen = tuple[int, int, int]
Monomial = tuple[tuple[Gen, int], ...]


class AmbientSizeError(ValueError):
    """Operands live over different ambient sizes N."""


# ---------------------------------------------------------------------------
# generator bracket table
# ---------------------------------------------------------------------------

def _gen_bracket(x: Gen, y: Gen) -> tuple[tuple[int, Gen], ...]:
    """{x, y} as a tuple of (integer coefficient, generator) pairs."""
    kx, i, j = x
    ky, k, l = y
    if kx > ky:
        result = tuple((-c, g) for c, g in _gen_bracket(y, x))
    elif kx == ky and kx in (U, UTILDE):
        out = []
        if j == k:
            out.append((1, (kx, i, l)))
        if l == i:
            out.append((-1, (kx, k, j)))
        result = tuple(out)
    elif kx == U and ky == G:
        result = ((-1, (G, k, j)),) if i == l else ()
    elif kx == UTILDE and ky == G:
        result = ((1, (G, i, l)),) if j == k else ()
    else:
        result = ()
    return result


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

# A monomial over gl_n is one int holding its exponent vector, one byte per
# generator slot.  The top bit of each byte is a guard: exponents stay at or
# below 127, so adding two exponent vectors never carries into the next slot,
# and a set guard bit in a sum marks an exponent that outgrew its slot.
_WIDTH = 8
_MASK = (1 << _WIDTH) - 1
_MAX_EXP = _MASK >> 1


class SlotOverflowError(ArithmeticError):
    """An exponent outgrew the 127 that a packed monomial slot holds."""


def _overflow_error() -> SlotOverflowError:
    return SlotOverflowError(f"an exponent exceeds {_MAX_EXP}, the largest a monomial slot holds")


def _mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for (kind, r, c), e in m:
        if kind in _MATRIX_KINDS:
            s = f"{_KIND_NAMES[kind]}[{r},{c}]"
        else:
            s = _KIND_NAMES[kind]
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


class _Layout(NamedTuple):
    """The slots of the generators over gl_n."""

    slot: dict[Gen, int]
    gens: tuple[Gen, ...]
    guard: int          # the top bit of every slot
    lam_shift: int      # the bit offset of the lam slot; mu's slot follows it

    def pack(self, mono: Monomial) -> int:
        key = 0
        for g, e in mono:
            s = self.slot.get(g)
            if e > _MAX_EXP:
                raise _overflow_error()
            if s is None or e < 0:
                raise ValueError(f"{g}^{e} is not a monomial factor at this ambient size")
            key += e << (_WIDTH * s)
        return key

    def unpack(self, key: int) -> Monomial:
        return tuple((self.gens[s], e)
                     for s, e in enumerate(key.to_bytes(len(self.gens), "little")) if e)


@lru_cache(maxsize=None)
def _slot_layout(n: int) -> _Layout:
    """Fixed slots of the generators over gl_n, in the sort order of
    generator tuples (u, ut, g by row and column, then lam, mu), so reading
    a packed monomial from the lowest slot up gives a canonical sorted one."""
    gens = tuple((kind, i, j) for kind in _MATRIX_KINDS
                 for i in range(1, n + 1) for j in range(1, n + 1))
    gens += ((LAM, 0, 0), (MU, 0, 0))
    slot = {g: s for s, g in enumerate(gens)}
    guard = sum(1 << (_WIDTH * s + _WIDTH - 1) for s in range(len(gens)))
    return _Layout(slot, gens, guard, _WIDTH * slot[LAM, 0, 0])


@lru_cache(maxsize=None)
def _bracket_table(n: int) -> tuple:
    """The generator bracket table in slots: entry sx lists, for the
    generator x in slot sx, every (sy, ((coef, unit of z), ...)) with
    {x, y} nonzero, the unit of z being 1 in z's slot."""
    layout = _slot_layout(n)
    return tuple(
        tuple((sy, tuple((c, 1 << (_WIDTH * layout.slot[z])) for c, z in table))
              for sy, table in enumerate(_gen_bracket(x, y) for y in layout.gens) if table)
        for x in layout.gens)


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"ambient size must be >= 1, got {n}")


class ExactPoly:
    """An element of an exact algebra over gl_n, in lowest terms.

    Stored as a dict from an int-coded basis key to integer numerator over
    one positive common denominator, in lowest terms and without zero
    numerators, so equality of the stored data is equality of elements.
    The constructor takes, and ``terms`` gives, the same element as a dict
    from readable key to Fraction.  Subclasses supply the product
    ``_product`` and four pieces of the key protocol: ``_pack`` writes a
    readable key as a stored one, ``_unpack`` reads it back, ``_key_str``
    renders a readable key and ``_key_order`` sorts readable keys
    canonically.  Instances are immutable.
    """

    __slots__ = ("n", "_num", "_den")
    _ONE: object                     # the readable key of the unit

    def __init__(self, n: int, terms: dict | None = None):
        _check_size(n)
        terms = {} if terms is None else terms
        den = lcm(*(Fraction(c).denominator for c in terms.values()))
        num: dict = {}
        for readable, c in terms.items():
            key = self._pack(n, readable)
            num[key] = num.get(key, 0) + int(Fraction(c) * den)
        self._set(n, num, den)

    @property
    def terms(self) -> dict:
        """A fresh dict from readable key to Fraction."""
        n, den = self.n, self._den
        return {self._unpack(n, key): Fraction(c, den) for key, c in self._num.items()}

    def term_list(self) -> list[list[str]]:
        """Terms as [coefficient, key] string pairs, canonically ordered."""
        ordered = sorted(self.terms.items(), key=lambda kv: self._key_order(kv[0]))
        return [[str(c), self._key_str(key)] for key, c in ordered]

    def _set(self, n: int, num: dict, den: int) -> None:
        if not all(num.values()):
            num = {k: c for k, c in num.items() if c}
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: c // g for k, c in num.items()}
                den //= g
        self.n, self._num, self._den = n, num, den

    @classmethod
    def _make(cls, n: int, num: dict, den: int):
        out = cls.__new__(cls)
        out._set(n, num, den)
        return out

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def constant(cls, n: int, value):
        return cls(n, {cls._ONE: value})

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.n == other.n
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.n, self._den, frozenset(self._num.items())))

    def _check(self, other: "ExactPoly") -> None:
        if self.n != other.n:
            raise AmbientSizeError(f"ambient sizes differ: {self.n} != {other.n}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            other = self.constant(self.n, other)
        self._check(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        out = {k: c * sa for k, c in self._num.items()} if sa != 1 else dict(self._num)
        get = out.get
        for k, c in other._num.items():
            out[k] = get(k, 0) + c * sb
        return self._make(self.n, out, den)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.n, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            other = self.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, value):
        c = Fraction(value)
        return self._make(self.n, {k: cc * c.numerator for k, cc in self._num.items()},
                          self._den * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self._scaled(other)
        self._check(other)
        return self._product(other)

    def __rmul__(self, other):
        # scalars only: an algebra product takes its left factor's __mul__
        return self._scaled(other)

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        return " + ".join(c if m == "1" else f"{c}*{m}" for c, m in self.term_list())


class PoissonPoly(ExactPoly):
    """Polynomial over the generator alphabet with exact rational coefficients.

    Keys are packed monomials; the readable keys of ``terms`` and the
    constructor are canonical monomials, sorted tuples of ((kind, row, col),
    power) pairs, ordered by total degree, then monomial.  The table of
    partial derivatives that ``bracket`` reads is built on first use and
    kept.
    """

    __slots__ = ("_table", "_fields")
    _ONE = ()                        # the empty monomial

    def _set(self, n: int, num: dict[int, int], den: int) -> None:
        super()._set(n, num, den)
        self._table = self._fields = None

    @staticmethod
    def _pack(n: int, mono: Monomial) -> int:
        return _slot_layout(n).pack(mono)

    @staticmethod
    def _unpack(n: int, key: int) -> Monomial:
        return _slot_layout(n).unpack(key)

    _key_str = staticmethod(_mono_str)

    @staticmethod
    def _key_order(mono: Monomial) -> tuple:
        return sum(e for _, e in mono), mono

    # -- constructors -------------------------------------------------

    @classmethod
    def generator(cls, n: int, kind: int, row: int = 0, col: int = 0) -> "PoissonPoly":
        _check_size(n)
        if kind in _MATRIX_KINDS and not (1 <= row <= n and 1 <= col <= n):
            raise ValueError(f"index ({row},{col}) outside 1..{n}")
        if kind in (LAM, MU):
            row = col = 0
        return cls._make(n, {1 << (_WIDTH * _slot_layout(n).slot[kind, row, col]): 1}, 1)

    @classmethod
    def u(cls, n: int, i: int, j: int) -> "PoissonPoly":
        return cls.generator(n, U, i, j)

    @classmethod
    def ut(cls, n: int, i: int, j: int) -> "PoissonPoly":
        return cls.generator(n, UTILDE, i, j)

    @classmethod
    def g(cls, n: int, i: int, j: int) -> "PoissonPoly":
        return cls.generator(n, G, i, j)

    @classmethod
    def lam(cls, n: int) -> "PoissonPoly":
        return cls.generator(n, LAM)

    @classmethod
    def mu(cls, n: int) -> "PoissonPoly":
        return cls.generator(n, MU)

    # -- structure ----------------------------------------------------

    def is_constant(self) -> bool:
        return not any(self._num)

    def degree(self) -> int:
        size = len(_slot_layout(self.n).gens)
        return max((sum(k.to_bytes(size, "little")) for k in self._num), default=0)

    # -- arithmetic ---------------------------------------------------

    def _product(self, other: "PoissonPoly") -> "PoissonPoly":
        out: dict[int, int] = {}
        get = out.get
        right = list(other._num.items())
        for ka, ca in self._num.items():
            for kb, cb in right:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        if reduce(or_, out, 0) & _slot_layout(self.n).guard:
            raise _overflow_error()
        return PoissonPoly._make(self.n, out, self._den * other._den)

    def __pow__(self, k: int) -> "PoissonPoly":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = PoissonPoly.constant(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus and coefficient extraction --------------------------

    def differentiate(self, gen: Gen) -> "PoissonPoly":
        """Formal partial derivative with respect to one generator."""
        s = _slot_layout(self.n).slot.get(gen)
        if s is None:
            return PoissonPoly.zero(self.n)
        shift = _WIDTH * s
        unit = 1 << shift
        out = {}
        for k, c in self._num.items():
            e = k >> shift & _MASK
            if e:
                out[k - unit] = c * e
        return PoissonPoly._make(self.n, out, self._den)

    def _partials(self) -> dict[int, list[tuple[int, int]]]:
        """{slot s: [(packed monomial, numerator) of d(self)/d(x_s)]}, over
        self's denominator; built on first use and kept."""
        table = self._table
        if table is None:
            table = self._table = {}
            for key, c in self._num.items():
                rest = key
                while rest:
                    s = ((rest & -rest).bit_length() - 1) // _WIDTH
                    shift = _WIDTH * s
                    e = rest >> shift & _MASK
                    rest ^= e << shift
                    table.setdefault(s, []).append((key - (1 << shift), c * e))
        return table

    def _field(self, sx: int) -> list[tuple[int, int]]:
        """{x, self} for the generator x in slot sx, as nonzero (packed
        monomial, numerator) pairs over self's denominator: sum_y
        d(self)/dy {x, y}, from the table of partials.  Built on first use
        and kept."""
        fields = self._fields
        if fields is None:
            fields = self._fields = {}
        field = fields.get(sx)
        if field is None:
            table = self._partials()
            acc: dict[int, int] = {}
            get = acc.get
            for sy, entry in _bracket_table(self.n)[sx]:
                dy = table.get(sy)
                if dy is None:
                    continue
                for coef, unit in entry:
                    for m, c in dy:
                        m += unit
                        acc[m] = get(m, 0) + coef * c
            field = fields[sx] = [(m, c) for m, c in acc.items() if c]
        return field

    def derivative_along(self, field: list[tuple["PoissonPoly", Gen]]) -> "PoissonPoly":
        """The derivative sum_t coeff_t * d(self)/d(gen_t) along the vector
        field [(coeff_t, gen_t), ...], built in one pass into one dict."""
        den = self._den * lcm(*(coeff._den for coeff, _ in field))
        out: dict[int, int] = {}
        self._add_derivative(field, out, den)
        if reduce(or_, out, 0) & _slot_layout(self.n).guard:
            raise _overflow_error()
        return PoissonPoly._make(self.n, out, den)

    def _add_derivative(self, field: list[tuple["PoissonPoly", Gen]], out: dict[int, int],
                        den: int, sign: int = 1) -> None:
        """Add sign times the derivative along field to out, as numerators
        over den, a multiple of self._den * coeff._den for every coeff."""
        slot = _slot_layout(self.n).slot
        table = self._partials()
        get = out.get
        for coeff, gen in field:
            self._check(coeff)
            part = table.get(slot.get(gen))
            if part is None:
                continue
            scale = sign * (den // (self._den * coeff._den))
            for kc, cc in coeff._num.items():
                cc *= scale
                for k, c in part:
                    k += kc
                    out[k] = get(k, 0) + c * cc

    def lambda_mu_coefficients(self) -> dict[tuple[int, int], "PoissonPoly"]:
        """Split into {(lam power, mu power): polynomial without lam, mu}."""
        shift = _slot_layout(self.n).lam_shift
        low = (1 << shift) - 1
        buckets: dict[tuple[int, int], dict[int, int]] = {}
        for k, c in self._num.items():
            top = k >> shift
            buckets.setdefault((top & _MASK, top >> _WIDTH), {})[k & low] = c
        return {lm: PoissonPoly._make(self.n, t, self._den) for lm, t in buckets.items()}

    def coefficient_of_lambda(self, k: int) -> "PoissonPoly":
        shift = _slot_layout(self.n).lam_shift
        out = {m - (k << shift): c for m, c in self._num.items() if m >> shift & _MASK == k}
        return PoissonPoly._make(self.n, out, self._den)


# ---------------------------------------------------------------------------
# the bracket
# ---------------------------------------------------------------------------

def bracket(a: PoissonPoly, b: PoissonPoly) -> PoissonPoly:
    """Poisson bracket {a, b}, exact and in canonical form.

    Derivative form: {a, b} = sum_x da/dx {x, b}, where
    {x, b} = sum_y db/dy {x, y} runs over the generators y with {x, y} != 0.
    The da/dx come from a's table of partials and the {x, b} from b's, each
    held on its polynomial, so a product of monomials is one integer
    addition and {x, y} adds the unit of its generator z.  A slot of a
    product sums two exponents of at most 127 and that unit, so it never
    carries into its neighbour, and an exponent past 127 sets the slot's
    guard bit.

    Since {a, b} = -{b, a} exactly, the sum runs on the side with fewer
    term pairs; the other side is counted only when this one has any.
    """
    if a.n != b.n:
        raise AmbientSizeError(f"ambient sizes differ: {a.n} != {b.n}")
    work, sign = _bracket_terms(a, b), 1
    if work:
        other = _bracket_terms(b, a)
        if _term_pairs(other) < _term_pairs(work):
            work, sign = other, -1
    out: dict[int, int] = {}
    get = out.get
    for dax, xb in work:
        for ma, ca in dax:
            ca *= sign
            for mb, cb in xb:
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
    if reduce(or_, out, 0) & _slot_layout(a.n).guard:
        raise _overflow_error()
    return PoissonPoly._make(a.n, out, a._den * b._den)


def _bracket_terms(a: PoissonPoly, b: PoissonPoly) -> list[tuple[list, list]]:
    """The nonzero (da/dx, {x, b}) pairs of the sum for {a, b}."""
    field = b._field
    return [(dax, xb) for sx, dax in a._partials().items() if (xb := field(sx))]


def _term_pairs(work: list[tuple[list, list]]) -> int:
    return sum(len(dax) * len(xb) for dax, xb in work)


def column_det(columns: list[list[ExactPoly]], one: ExactPoly) -> ExactPoly:
    """sum_p sign(p) prod_c columns[c][p(c)] with the factors multiplied
    left to right in column order, starting from ``one``.

    This is the column-ordered determinant over U(gl_N) and the ordinary
    one over a commutative ring.  It is expanded column by column: after
    column c, minors[rows] holds the signed sum over the bijections of
    columns 1..c onto that row set, so the k! products share their prefixes
    (k * 2^(k-1) factor products).
    """
    minors = {0: one}                            # row bitmask -> signed sum
    for column in columns:
        grown: dict[int, ExactPoly] = {}
        for rows, minor in minors.items():
            for r, entry in enumerate(column):
                if rows >> r & 1:
                    continue
                # rows already used above r are inversions of the permutation
                term = minor * entry
                if (rows >> (r + 1)).bit_count() % 2:
                    term = -term
                key = rows | 1 << r
                grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors[(1 << len(columns)) - 1]


def scan_pairs(members: list[tuple[str, ExactPoly]],
               op: Callable[[ExactPoly, ExactPoly], ExactPoly]) -> tuple[int, int, dict | None]:
    """op(a, b) for every unordered pair of labelled members, in order.

    Returns the number of pairs, the largest term count of a nonzero result
    and the first nonzero result as a witness {"labels", "terms"}, or None.
    """
    pairs = worst = 0
    witness = None
    for (la, a), (lb, b) in itertools.combinations(members, 2):
        res = op(a, b)
        pairs += 1
        if not res.is_zero():
            worst = max(worst, len(res._num))
            if witness is None:
                witness = {"labels": [la, lb], "terms": res.term_list()}
    return pairs, worst, witness


# ---------------------------------------------------------------------------
# canonical coordinates: numerical realization and oracle
#
# The only numeric part of the module.  Each function here that calls numpy
# imports it itself, so a process that runs only the exact algebra never
# loads it.
# ---------------------------------------------------------------------------

_DET_THRESHOLD = 1e-8       # the smallest |det g| of a safely invertible g


class CanonicalPoint:
    """A point of T*GL(N) in canonical coordinates (g, p).

    g must be safely invertible: |det g| >= _DET_THRESHOLD.  Instances are
    treated as immutable.
    """

    __slots__ = ("g", "p")

    def __init__(self, g, p, validate: bool = True):
        import numpy as np
        g = np.array(g, dtype=complex)
        p = np.array(p, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape != p.shape:
            raise ValueError("g and p must be square matrices of equal size")
        if validate and abs(np.linalg.det(g)) < _DET_THRESHOLD:
            raise ValueError("g is numerically singular")
        self.g = g
        self.p = p

    @property
    def n(self) -> int:
        return self.g.shape[0]


def random_canonical_point(n: int, rng: np.random.Generator) -> CanonicalPoint:
    """Sample (g, p) with standard complex Gaussian entries, g invertible."""
    import numpy as np
    for _ in range(100):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) >= _DET_THRESHOLD:
            return CanonicalPoint(g, p)
    raise RuntimeError("could not sample an invertible g")


def u_as_canonical(pt: CanonicalPoint) -> np.ndarray:
    """Momentum matrix u(g, p) = p^T g, satisfying the u rows of the table."""
    return pt.p.T @ pt.g


def utilde_as_canonical(pt: CanonicalPoint) -> np.ndarray:
    """Momentum matrix ut(g, p) = -g p^T; identically ut = -g u g^{-1}."""
    return -pt.g @ pt.p.T


def _monomial_values(n: int, keys: list[int], u, ut, g, lam: complex, mu: complex) -> np.ndarray:
    """The value of each packed monomial of keys at (u, ut, g, lam, mu)."""
    import numpy as np
    size = 3 * n * n + 2
    exps = np.frombuffer(b"".join(k.to_bytes(size, "little") for k in keys),
                         dtype=np.uint8).reshape(len(keys), size)
    vals = np.zeros(size, dtype=complex)
    vals[-2:] = lam, mu
    for kind, mat in zip(_MATRIX_KINDS, (u, ut, g)):
        block = slice(kind * n * n, (kind + 1) * n * n)
        if mat is not None:
            vals[block] = np.asarray(mat)[:n, :n].ravel()
        elif exps[:, block].any():
            raise ValueError(f"no matrix supplied for kind '{_KIND_NAMES[kind]}'")
    used = np.flatnonzero(exps.any(axis=0))
    return np.prod(vals[used] ** exps[:, used], axis=1)


def evaluate_at(poly: PoissonPoly, u=None, ut=None, g=None,
                lam: complex = 0j, mu: complex = 0j) -> complex:
    """Evaluate on explicit matrices (1-based symbolic indices, 0-based arrays)."""
    import numpy as np
    coeffs = np.array([c / poly._den for c in poly._num.values()], dtype=complex)
    return complex(coeffs @ _monomial_values(poly.n, list(poly._num), u, ut, g, lam, mu))


def gradient_at(poly: PoissonPoly, u=None, ut=None, g=None,
                lam: complex = 0j, mu: complex = 0j) -> np.ndarray:
    """Every partial derivative of poly at a point, from its table of
    partials, in slot order: u, ut and g row by row, then lam and mu."""
    import numpy as np
    table = poly._partials()
    parts = [term for part in table.values() for term in part]
    slots = np.repeat(np.fromiter(table, dtype=int, count=len(table)),
                      [len(part) for part in table.values()])
    vals = np.array([c / poly._den for _, c in parts], dtype=complex)
    vals *= _monomial_values(poly.n, [k for k, _ in parts], u, ut, g, lam, mu)
    grad = np.zeros(3 * poly.n ** 2 + 2, dtype=complex)
    np.add.at(grad, slots, vals)
    return grad


def evaluate(poly: PoissonPoly, pt: CanonicalPoint,
             lam: complex = 0j, mu: complex = 0j) -> complex:
    """Evaluate at a canonical point, substituting u(pt), ut(pt) and g."""
    if poly.n != pt.n:
        raise AmbientSizeError(f"ambient sizes differ: {poly.n} != {pt.n}")
    return evaluate_at(poly, u=u_as_canonical(pt), ut=utilde_as_canonical(pt),
                       g=pt.g, lam=lam, mu=mu)


def poly_function(poly: PoissonPoly, lam: complex = 0j, mu: complex = 0j) -> Callable[[CanonicalPoint], complex]:
    """Wrap a polynomial as a plain function of CanonicalPoint."""
    return lambda pt: evaluate(poly, pt, lam=lam, mu=mu)


def central_gradient(func: Callable[[list[complex], int], Sequence[complex]],
                     x: Sequence[complex], step: float) -> list[list[complex]]:
    """Entry-wise central differences of func at the flat complex vector x.

    func(y, k) maps a list y of complex entries to a sequence of complex
    values; k is the index of the one entry of y that moved, so func may
    recompute only the values that entry changes, or ignore it.
    Entry k of the result lists the derivative of each value along x[k],
    with step `step` scaled by max(1, |x[k]|): the forward value less the
    backward one, over 2h.  Plain Python; raises ArithmeticError on a
    non-finite derivative.
    """
    x = [complex(z) for z in x]
    grad = []
    for k, z in enumerate(x):
        h = step * max(1.0, abs(z))
        fwd, bwd = (func(x[:k] + [z + s] + x[k + 1:], k) for s in (h, -h))
        row = [(complex(a) - complex(b)) / (2.0 * h) for a, b in zip(fwd, bwd)]
        if not all(isfinite(c.real) and isfinite(c.imag) for c in row):
            raise ArithmeticError("non-finite derivative encountered")
        grad.append(row)
    return grad


def _gradients(func: Callable[[CanonicalPoint], complex | np.ndarray], pt: CanonicalPoint,
               step: float) -> tuple[np.ndarray, np.ndarray]:
    """central_gradient of func in g, then in p: arrays [i, j, v], the
    derivative of func's v-th value (in ravel order) along g[i, j] or p[i, j]."""
    import numpy as np
    n = pt.n

    def along(at, x):
        grad = central_gradient(lambda y, k: np.ravel(func(at(np.reshape(y, (n, n))))),
                                x.ravel().tolist(), step)
        return np.array(grad).reshape(n, n, -1)

    return (along(lambda g: CanonicalPoint(g, pt.p, validate=False), pt.g),
            along(lambda p: CanonicalPoint(pt.g, p, validate=False), pt.p))


def canonical_bracket(f: Callable[[CanonicalPoint], complex],
                      h: Callable[[CanonicalPoint], complex],
                      pt: CanonicalPoint, step: float = 1e-6) -> complex:
    """Finite-difference canonical bracket at pt.

    {f, h} = sum_ij df/dg_ij dh/dp_ij - sum_ij df/dp_ij dh/dg_ij, with the
    central_gradient of f and h in g and in p, each sum in row-major order.
    All functions in this package are holomorphic in the entries, so
    differencing along the real direction recovers the complex derivative.
    """
    fg, fp = _gradients(f, pt, step)
    hg, hp = _gradients(h, pt, step)
    fg, fp, hg, hp = (grad.ravel().tolist() for grad in (fg, fp, hg, hp))
    return complex(sum(map(mul, fg, hp)) - sum(map(mul, fp, hg)))
