"""Exact Poisson algebra on the coordinate ring of T*GL(N).

The phase space is coordinatized by a group element g together with the
left/right momentum matrices u and ut ("u-tilde").  This module provides

* ``PoissonPoly`` -- polynomials in the entries u[i,j], ut[i,j], g[i,j]
  and two central scalars lam, mu, with exact big-rational coefficients;
* ``bracket`` -- the Poisson bracket, extending the generator table below
  by bilinearity and the Leibniz rule;
* ``CanonicalPoint`` plus a central finite-difference bracket in canonical
  coordinates (g, p), used everywhere as an independent numerical oracle.

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

import functools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "U", "UTILDE", "G", "LAM", "MU",
    "AmbientSizeError", "PoissonPoly", "bracket",
    "CanonicalPoint", "random_canonical_point",
    "u_as_canonical", "utilde_as_canonical",
    "evaluate", "evaluate_at", "canonical_bracket", "poly_function",
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
# monomial helpers
# ---------------------------------------------------------------------------

def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for g, e in m2:
        acc[g] = acc.get(g, 0) + e
    return tuple(sorted(acc.items()))


def _mono_drop(m: Monomial, idx: int) -> Monomial:
    g, e = m[idx]
    if e == 1:
        return m[:idx] + m[idx + 1:]
    return m[:idx] + ((g, e - 1),) + m[idx + 1:]


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


class PoissonPoly:
    """Polynomial over the generator alphabet with Fraction coefficients.

    Terms are stored canonically -- monomials are sorted tuples of
    ((kind, row, col), power) pairs, zero coefficients are never kept --
    so structural equality is exact mathematical equality.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, Fraction] | None = None):
        if n < 1:
            raise ValueError(f"ambient size must be >= 1, got {n}")
        self.n = n
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "PoissonPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value) -> "PoissonPoly":
        c = Fraction(value)
        return cls(n, {(): c} if c else {})

    @classmethod
    def generator(cls, n: int, kind: int, row: int = 0, col: int = 0) -> "PoissonPoly":
        if kind in _MATRIX_KINDS and not (1 <= row <= n and 1 <= col <= n):
            raise ValueError(f"index ({row},{col}) outside 1..{n}")
        if kind in (LAM, MU):
            row = col = 0
        return cls(n, {(((kind, row, col), 1),): Fraction(1)})

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

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in m) for m in self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PoissonPoly)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "PoissonPoly") -> None:
        if self.n != other.n:
            raise AmbientSizeError(f"ambient sizes differ: {self.n} != {other.n}")

    def __add__(self, other) -> "PoissonPoly":
        if not isinstance(other, PoissonPoly):
            other = PoissonPoly.constant(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return PoissonPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "PoissonPoly":
        return PoissonPoly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "PoissonPoly":
        if not isinstance(other, PoissonPoly):
            other = PoissonPoly.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other) -> "PoissonPoly":
        return (-self) + other

    def __mul__(self, other) -> "PoissonPoly":
        if not isinstance(other, PoissonPoly):
            c = Fraction(other)
            if not c:
                return PoissonPoly.zero(self.n)
            return PoissonPoly(self.n, {m: cc * c for m, cc in self.terms.items()})
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return PoissonPoly(self.n, out)

    __rmul__ = __mul__

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
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            for idx, (g, e) in enumerate(m):
                if g == gen:
                    m2 = _mono_drop(m, idx)
                    s = out.get(m2, 0) + c * e
                    if s:
                        out[m2] = s
                    else:
                        out.pop(m2, None)
                    break
        return PoissonPoly(self.n, out)

    def lambda_mu_coefficients(self) -> dict[tuple[int, int], "PoissonPoly"]:
        """Split into {(lam power, mu power): polynomial without lam, mu}."""
        buckets: dict[tuple[int, int], dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            lp = mp = 0
            rest = []
            for g, e in m:
                if g[0] == LAM:
                    lp = e
                elif g[0] == MU:
                    mp = e
                else:
                    rest.append((g, e))
            buckets.setdefault((lp, mp), {})[tuple(rest)] = c
        return {k: PoissonPoly(self.n, t) for k, t in buckets.items()}

    def coefficient_of_lambda(self, k: int) -> "PoissonPoly":
        out: dict[Monomial, Fraction] = {}
        for (lp, mp), poly in self.lambda_mu_coefficients().items():
            if lp == k and mp == 0:
                out.update(poly.terms)
            elif lp == k:
                mu_gen = ((MU, 0, 0), mp)
                for m, c in poly.terms.items():
                    out[_mono_mul(m, (mu_gen,))] = c
        return PoissonPoly(self.n, out)

    def generators_used(self) -> set[Gen]:
        return {g for m in self.terms for g, _ in m}

    # -- rendering ----------------------------------------------------

    def term_list(self) -> list[list[str]]:
        """Terms as [coefficient, monomial] string pairs, canonically ordered."""
        items = sorted(self.terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))
        return [[str(c), _mono_str(m)] for m, c in items]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(),
                         key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))
        return " + ".join(f"{c}*{_mono_str(m)}" if m else str(c)
                          for m, c in ordered)


# ---------------------------------------------------------------------------
# the bracket
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _slot_layout(n: int) -> tuple[dict[Gen, int], tuple[Gen, ...], tuple]:
    """Fixed slots of the generators over gl_n, and their bracket table in slots.

    Slots follow the sort order of generator tuples (u, ut, g by row and
    column, then lam, mu), so reading a packed monomial from the lowest slot
    up gives a canonical sorted monomial.  ``adjacent[sx]`` lists, for the
    generator in slot sx, every (sy, ((coef, sz), ...)) with {x, y} nonzero.
    """
    gens = tuple((kind, i, j) for kind in _MATRIX_KINDS
                 for i in range(1, n + 1) for j in range(1, n + 1))
    gens += ((LAM, 0, 0), (MU, 0, 0))
    slot = {g: s for s, g in enumerate(gens)}
    adjacent = tuple(
        tuple((sy, tuple((c, slot[z]) for c, z in table))
              for sy, table in enumerate(_gen_bracket(x, y) for y in gens) if table)
        for x in gens)
    return slot, gens, adjacent


def _partials(poly: PoissonPoly, slot: dict[Gen, int], width: int) -> tuple[dict[int, list], int]:
    """Integer partial derivatives of den * poly, on packed monomials.

    Returns ({slot of x: [(packed monomial, int coefficient) of d(den*poly)/dx]},
    den), with den the lcm of the coefficient denominators.  Exponent e of
    the generator in slot s sits at bits [width*s, width*(s+1)).
    """
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    out: dict[int, list] = {}
    for mono, c in poly.terms.items():
        if not mono:
            continue
        ci = c.numerator * (den // c.denominator)
        packed = 0
        for g, e in mono:
            packed += e << (width * slot[g])
        for g, e in mono:
            s = slot[g]
            out.setdefault(s, []).append((packed - (1 << (width * s)), ci * e))
    return out, den


def bracket(a: PoissonPoly, b: PoissonPoly) -> PoissonPoly:
    """Poisson bracket {a, b}, exact and in canonical form.

    Derivative form: {a, b} = sum_x da/dx {x, b}, where
    {x, b} = sum_y db/dy {x, y} runs over the generators y with {x, y} != 0.
    Both operands are scaled to integer coefficients by the lcm of their
    denominators, and each monomial is packed into one int, one slot of
    width W = bit_length(deg a + deg b) + 1 bits per generator, so that a
    monomial product is integer addition and d/dx subtracts one unit from
    slot x.  No exponent in the computation exceeds deg a + deg b - 1
    < 2^(W-1), so no slot ever carries into its neighbour.
    """
    if a.n != b.n:
        raise AmbientSizeError(f"ambient sizes differ: {a.n} != {b.n}")
    slot, gens, adjacent = _slot_layout(a.n)
    width = (a.degree() + b.degree()).bit_length() + 1
    da, den_a = _partials(a, slot, width)
    db, den_b = _partials(b, slot, width)
    out: dict[int, int] = {}
    for sx, dax in da.items():
        xb: dict[int, int] = {}
        for sy, table in adjacent[sx]:
            dby = db.get(sy)
            if dby is None:
                continue
            for coef, sz in table:
                unit = 1 << (width * sz)
                for mb, cb in dby:
                    m = mb + unit
                    xb[m] = xb.get(m, 0) + coef * cb
        xb_terms = [(m, c) for m, c in xb.items() if c]
        for ma, ca in dax:
            for mb, cb in xb_terms:
                m = ma + mb
                out[m] = out.get(m, 0) + ca * cb
    den = den_a * den_b
    mask = (1 << width) - 1
    terms: dict[Monomial, Fraction] = {}
    for packed, c in out.items():
        if not c:
            continue
        mono = []
        s = 0
        while packed:
            e = packed & mask
            if e:
                mono.append((gens[s], e))
            packed >>= width
            s += 1
        terms[tuple(mono)] = Fraction(c, den)
    return PoissonPoly(a.n, terms)


# ---------------------------------------------------------------------------
# canonical coordinates: numerical realization and oracle
# ---------------------------------------------------------------------------

class CanonicalPoint:
    """A point of T*GL(N) in canonical coordinates (g, p).

    g must be safely invertible: |det g| >= det_threshold (default 1e-8).
    Instances are treated as immutable.
    """

    __slots__ = ("g", "p")

    def __init__(self, g, p, det_threshold: float = 1e-8, validate: bool = True):
        g = np.array(g, dtype=complex)
        p = np.array(p, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape != p.shape:
            raise ValueError("g and p must be square matrices of equal size")
        if validate and abs(np.linalg.det(g)) < det_threshold:
            raise ValueError("g is numerically singular")
        self.g = g
        self.p = p

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def to_json(self) -> dict:
        enc = lambda m: [[float(z.real), float(z.imag)] for z in m.ravel()]
        return {"n": self.n, "g": enc(self.g), "p": enc(self.p)}

    @classmethod
    def from_json(cls, data: dict) -> "CanonicalPoint":
        n = data["n"]
        dec = lambda flat: np.array([complex(re, im) for re, im in flat]).reshape(n, n)
        return cls(dec(data["g"]), dec(data["p"]))


def random_canonical_point(n: int, rng: np.random.Generator,
                           det_threshold: float = 1e-8) -> CanonicalPoint:
    """Sample (g, p) with standard complex Gaussian entries, g invertible."""
    for _ in range(100):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) >= det_threshold:
            return CanonicalPoint(g, p, det_threshold=det_threshold)
    raise RuntimeError("could not sample an invertible g")


def u_as_canonical(pt: CanonicalPoint) -> np.ndarray:
    """Momentum matrix u(g, p) = p^T g, satisfying the u rows of the table."""
    return pt.p.T @ pt.g


def utilde_as_canonical(pt: CanonicalPoint) -> np.ndarray:
    """Momentum matrix ut(g, p) = -g p^T; identically ut = -g u g^{-1}."""
    return -pt.g @ pt.p.T


def evaluate_at(poly: PoissonPoly, u=None, ut=None, g=None,
                lam: complex = 0j, mu: complex = 0j) -> complex:
    """Evaluate on explicit matrices (1-based symbolic indices, 0-based arrays)."""
    mats = {U: u, UTILDE: ut, G: g}
    total = 0j
    for mono, coeff in poly.terms.items():
        val = complex(coeff)
        for (kind, r, c), e in mono:
            if kind == LAM:
                base = lam
            elif kind == MU:
                base = mu
            else:
                mat = mats[kind]
                if mat is None:
                    raise ValueError(f"no matrix supplied for kind '{_KIND_NAMES[kind]}'")
                base = mat[r - 1, c - 1]
            val *= base ** e
        total += val
    return total


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


def _gradients(func: Callable[[CanonicalPoint], complex | np.ndarray], pt: CanonicalPoint,
               step: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients of func in g and in p.

    func may be scalar- or array-valued; each gradient has shape
    (n, n) + the value's shape, entry [i, j] the derivative along g[i,j]
    (or p[i,j]), with step `step` scaled by that coordinate's magnitude.
    """
    n = pt.n
    grads = []
    for which, base in (("g", pt.g), ("p", pt.p)):
        grad = None
        for i in range(n):
            for j in range(n):
                h = step * max(1.0, abs(base[i, j]))
                for sign in (1.0, -1.0):
                    gm, pm = pt.g.copy(), pt.p.copy()
                    (gm if which == "g" else pm)[i, j] += sign * h
                    val = func(CanonicalPoint(gm, pm, validate=False))
                    if grad is None:
                        grad = np.zeros((n, n) + np.shape(val), dtype=complex)
                    grad[i, j] += sign * val / (2.0 * h)
        grads.append(grad)
    dg, dp = grads
    if not (np.all(np.isfinite(dg)) and np.all(np.isfinite(dp))):
        raise ArithmeticError("non-finite derivative encountered")
    return dg, dp


def canonical_bracket(f: Callable[[CanonicalPoint], complex],
                      h: Callable[[CanonicalPoint], complex],
                      pt: CanonicalPoint, step: float = 1e-6) -> complex:
    """Finite-difference canonical bracket at pt.

    {f, h} = sum_ij (df/dg_ij dh/dp_ij - df/dp_ij dh/dg_ij), with central
    differences of step 1e-6 scaled by coordinate magnitude.  All functions
    in this package are holomorphic in the entries, so differencing along
    the real direction recovers the complex derivative.
    """
    fg, fp = _gradients(f, pt, step)
    hg, hp = _gradients(h, pt, step)
    return complex(np.sum(fg * hp - fp * hg))
