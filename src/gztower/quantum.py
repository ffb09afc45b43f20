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
rho_c = (k - 2c + 1)/2 ("nested" convention; the "ambient" alternative
rho_c = (N - 2c + 1)/2 differs by a global shift of lam and validates as
well).  Its lam-coefficients are central; the nested minors for k < N
give the quantum Gelfand-Zetlin family.

The module also carries the first-order differential operators

    nabla_L[i,j] = sum_k g[k,i] d/dg[k,j]
    nabla_R[i,j] = -sum_k g[j,k] d/dg[i,k]

acting on exact polynomials in the g entries.  They realize the two gl_N
copies (and their mutual commutativity) on polynomial test functions and
serve as an independent faithful oracle for the PBW engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poisson import G, U, UTILDE, AmbientSizeError, PoissonPoly

__all__ = [
    "LEFT", "RIGHT", "NCPoly", "rho_shift", "qdet", "quantum_family",
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

def _gen_commutator(x: QGen, y: QGen) -> tuple[tuple[int, QGen], ...]:
    """[x, y] as (coefficient, generator) pairs; zero across copies."""
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


_NORMAL_CACHE: dict[Word, dict[Word, int]] = {}


def _normalize_word(word: Word) -> dict[Word, int]:
    """Expand a free word into PBW normal form (sorted words).

    The commutator table is integral, so every coefficient is an int.
    """
    hit = _NORMAL_CACHE.get(word)
    if hit is not None:
        return hit
    # find the first adjacent inversion
    pos = -1
    for idx in range(len(word) - 1):
        if word[idx] > word[idx + 1]:
            pos = idx
            break
    if pos < 0:
        result = {word: 1}
        _NORMAL_CACHE[word] = result
        return result
    x, y = word[pos], word[pos + 1]
    swapped = word[:pos] + (y, x) + word[pos + 2:]
    acc: dict[Word, int] = {}
    for w, c in _normalize_word(swapped).items():
        acc[w] = acc.get(w, 0) + c
    for coef, z in _gen_commutator(x, y):
        lower = word[:pos] + (z,) + word[pos + 2:]
        for w, c in _normalize_word(lower).items():
            acc[w] = acc.get(w, 0) + coef * c
    result = {w: c for w, c in acc.items() if c}
    _NORMAL_CACHE[word] = result
    return result


class NCPoly:
    """PBW-normal-ordered element of U(gl_N) (x) U(gl_N) with lam coefficients.

    terms maps (lam power, PBW word) to a Fraction; every stored word is in
    normal form, so equality of dicts is equality in the algebra.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Key, Fraction] | None = None):
        self.n = n
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "NCPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value) -> "NCPoly":
        c = Fraction(value)
        return cls(n, {(0, ()): c} if c else {})

    @classmethod
    def lam(cls, n: int, power: int = 1) -> "NCPoly":
        return cls(n, {(power, ()): Fraction(1)})

    @classmethod
    def e(cls, n: int, i: int, j: int, copy: int = LEFT) -> "NCPoly":
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"index ({i},{j}) outside 1..{n}")
        return cls(n, {(0, ((copy, i, j),)): Fraction(1)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not w for (_, w) in self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, NCPoly)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def degree(self) -> int:
        return max((len(w) for (_, w) in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "NCPoly") -> None:
        if self.n != other.n:
            raise AmbientSizeError(f"ambient sizes differ: {self.n} != {other.n}")

    def __add__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            other = NCPoly.constant(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return NCPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            other = NCPoly.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other) -> "NCPoly":
        return (-self) + other

    def __mul__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            c = Fraction(other)
            if not c:
                return NCPoly.zero(self.n)
            return NCPoly(self.n, {k: cc * c for k, cc in self.terms.items()})
        self._check(other)
        out: dict[Key, Fraction] = {}
        for (la, wa), ca in self.terms.items():
            for (lb, wb), cb in other.terms.items():
                scale = ca * cb
                lam_pow = la + lb
                for w, c in _normalize_word(wa + wb).items():
                    key = (lam_pow, w)
                    s = out.get(key, 0) + scale * c
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return NCPoly(self.n, out)

    def __rmul__(self, other) -> "NCPoly":
        # scalars only; noncommutative products must use the left operand
        if isinstance(other, NCPoly):
            raise TypeError("use a * b for algebra products")
        return self * other

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self * other - other * self

    # -- coefficient handling ------------------------------------------

    def lambda_coefficients(self) -> dict[int, "NCPoly"]:
        buckets: dict[int, dict[Key, Fraction]] = {}
        for (lp, w), c in self.terms.items():
            buckets.setdefault(lp, {})[(0, w)] = c
        return {lp: NCPoly(self.n, t) for lp, t in buckets.items()}

    def term_list(self) -> list[list[str]]:
        def word_str(lp, w):
            parts = [f"lam^{lp}"] if lp else []
            parts += [f"E{'LR'[copy]}[{i},{j}]" for copy, i, j in w]
            return "*".join(parts) if parts else "1"
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0][1]), kv[0]))
        return [[str(c), word_str(lp, w)] for (lp, w), c in items]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" if m != "1" else str(c)
                          for c, m in self.term_list())


# ---------------------------------------------------------------------------
# quantum determinants and the commuting family
# ---------------------------------------------------------------------------

def _perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    for a, b in itertools.combinations(range(len(p)), 2):
        if p[a] > p[b]:
            sign = -sign
    return sign


def qdet(n: int, k: int, side: str = "left", convention: str = "nested") -> NCPoly:
    """Size-k quantum determinant of (lam - rho - E), column-ordered.

    convention 'nested' uses rho from the k x k minor itself; 'ambient'
    restricts the size-n shifts to the first k columns.
    """
    if not 1 <= k <= n:
        raise ValueError(f"minor size {k} outside 1..{n}")
    copy = LEFT if side == "left" else RIGHT
    if convention == "nested":
        shifts = [rho_shift(k, c) for c in range(1, k + 1)]
    elif convention == "ambient":
        shifts = [rho_shift(n, c) for c in range(1, k + 1)]
    else:
        raise ValueError(f"unknown rho convention {convention!r}")
    total = NCPoly.zero(n)
    for perm in itertools.permutations(range(1, k + 1)):
        sign = _perm_sign(perm)
        prod = NCPoly.constant(n, sign)
        for c in range(1, k + 1):
            r = perm[c - 1]
            factor = -NCPoly.e(n, r, c, copy)
            if r == c:
                factor = factor + NCPoly.lam(n) - NCPoly.constant(n, shifts[c - 1])
            prod = prod * factor
        total = total + prod
    return total


def quantum_family(n: int, convention: str = "nested") -> list[tuple[str, NCPoly]]:
    """Nonconstant lam-coefficients of the nested quantum determinants."""
    gens: list[tuple[str, NCPoly]] = []

    def push(label: str, poly: NCPoly) -> None:
        for lp, coeff in sorted(poly.lambda_coefficients().items()):
            if coeff.is_zero() or coeff.is_constant():
                continue
            gens.append((f"{label} lam^{lp}", coeff))

    for k in range(1, n):
        push(f"L[k={k}]", qdet(n, k, "left", convention))
        push(f"R[k={k}]", qdet(n, k, "right", convention))
    push(f"I[k={n}]", qdet(n, n, "left", convention))
    return gens


@dataclass
class QuantumReport:
    n: int
    convention: str
    centrality_checks: int
    pairs_checked: int
    max_nonzero_terms: int
    status: str
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "family": {"kind": "quantum-gz", "n": self.n},
            "convention": self.convention,
            "centrality_checks": self.centrality_checks,
            "pairs": self.pairs_checked,
            "max_nonzero_terms": self.max_nonzero_terms,
            "status": self.status,
            "witness": self.witness,
        }


def _centrality_violations(n: int, convention: str) -> tuple[int, dict | None]:
    """[coeff, E] checks for every nested minor inside its own gl_k."""
    checks = 0
    witness = None
    for k in range(1, n + 1):
        dets = [qdet(n, k, "left", convention)]
        if k < n:
            dets.append(qdet(n, k, "right", convention))
        for side_idx, det in enumerate(dets):
            copy = (LEFT, RIGHT)[side_idx]
            for lp, coeff in det.lambda_coefficients().items():
                if coeff.is_constant():
                    continue
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        res = coeff.commutator(NCPoly.e(n, i, j, copy))
                        checks += 1
                        if not res.is_zero() and witness is None:
                            witness = {
                                "labels": [f"qdet k={k} lam^{lp}", f"E[{i},{j}]"],
                                "terms": res.term_list(),
                            }
    return checks, witness


def verify_quantum_commutes(n: int, allow_large: bool = False) -> QuantumReport:
    """Centrality of the quantum determinants plus pairwise commutativity.

    The rho convention is decided by an automated sweep: 'nested' is tried
    first and 'ambient' is the fallback; the convention that passes the
    centrality checks is recorded and used for the family.
    """
    if n > 3 and not allow_large:
        raise SizeGuardError(
            f"N={n} PBW verification is expensive; pass allow_large to proceed")
    convention = None
    checks = 0
    witness = None
    for candidate in ("nested", "ambient"):
        checks, witness = _centrality_violations(n, candidate)
        if witness is None:
            convention = candidate
            break
    if convention is None:
        return QuantumReport(n=n, convention="none", centrality_checks=checks,
                             pairs_checked=0, max_nonzero_terms=0,
                             status="violation", witness=witness)
    gens = quantum_family(n, convention)
    pairs = 0
    worst = 0
    pair_witness = None
    for (la, a), (lb, b) in itertools.combinations(gens, 2):
        res = a.commutator(b)
        pairs += 1
        if not res.is_zero():
            worst = max(worst, len(res.terms))
            if pair_witness is None:
                pair_witness = {"labels": [la, lb], "terms": res.term_list()}
    return QuantumReport(
        n=n, convention=convention, centrality_checks=checks,
        pairs_checked=pairs, max_nonzero_terms=worst,
        status="ok" if pair_witness is None else "violation",
        witness=pair_witness,
    )


# ---------------------------------------------------------------------------
# differential-operator realization
# ---------------------------------------------------------------------------

class PolyDiffOp:
    """First-order operator sum_t coeff_t(g) * d/dg[i_t, j_t] on g-polynomials."""

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts: list[tuple[PoissonPoly, tuple[int, int]]]):
        self.n = n
        self.parts = parts

    def __call__(self, f: PoissonPoly) -> PoissonPoly:
        if f.n != self.n:
            raise AmbientSizeError(f"ambient sizes differ: {f.n} != {self.n}")
        out = PoissonPoly.zero(self.n)
        for coeff, (i, j) in self.parts:
            out = out + coeff * f.differentiate((G, i, j))
        return out

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return PolyDiffOp(self.n, self.parts + other.parts)

    def __sub__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self + other * (-1)

    def __mul__(self, scalar) -> "PolyDiffOp":
        c = Fraction(scalar)
        return PolyDiffOp(self.n, [(p * c, t) for p, t in self.parts])

    def commutator_apply(self, other: "PolyDiffOp", f: PoissonPoly) -> PoissonPoly:
        return self(other(f)) - other(self(f))


def nabla_left(n: int, i: int, j: int) -> PolyDiffOp:
    """sum_k g[k,i] d/dg[k,j]"""
    return PolyDiffOp(n, [(PoissonPoly.g(n, k, i), (k, j)) for k in range(1, n + 1)])


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


@dataclass
class DiffOpReport:
    n: int
    trials: int
    checks: int
    status: str

    def to_json(self) -> dict:
        return {"n": self.n, "trials": self.trials, "checks": self.checks,
                "status": self.status}


def _random_g_poly(n: int, rng: np.random.Generator, max_degree: int = 3) -> PoissonPoly:
    poly = PoissonPoly.constant(n, int(rng.integers(-2, 3)))
    for _ in range(int(rng.integers(1, 4))):
        term = PoissonPoly.constant(n, int(rng.integers(-3, 4)))
        for _ in range(int(rng.integers(1, max_degree + 1))):
            i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
            term = term * PoissonPoly.g(n, i, j)
        poly = poly + term
    return poly


def diffop_realization_check(n: int, trials: int = 12, seed: int = 0) -> DiffOpReport:
    """Assert the gl_N commutation relations of nabla_L, nabla_R exactly.

    For randomized exact polynomials f the residuals
    [nabla(ij), nabla(kl)] f - (d(j,k) nabla(il) - d(l,i) nabla(kj)) f within
    one chirality and [nabla_L, nabla_R] f across chiralities must be the
    zero polynomial.
    """
    rng = np.random.default_rng(seed)
    checks = 0
    for _ in range(trials):
        f = _random_g_poly(n, rng)
        i, j, k, l = (int(rng.integers(1, n + 1)) for _ in range(4))
        for maker in (nabla_left, nabla_right):
            lhs = maker(n, i, j).commutator_apply(maker(n, k, l), f)
            rhs = PoissonPoly.zero(n)
            if j == k:
                rhs = rhs + maker(n, i, l)(f)
            if l == i:
                rhs = rhs - maker(n, k, j)(f)
            checks += 1
            if not (lhs - rhs).is_zero():
                return DiffOpReport(n=n, trials=trials, checks=checks, status="violation")
        cross = nabla_left(n, i, j).commutator_apply(nabla_right(n, k, l), f)
        checks += 1
        if not cross.is_zero():
            return DiffOpReport(n=n, trials=trials, checks=checks, status="violation")
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
