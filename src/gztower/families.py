"""Classical commuting families on T*GL(N) built from characteristic minors.

Four families are supported:

* ``gz-principal`` -- coefficients of the characteristic polynomials of the
  nested top-left principal submatrices of u (and of ut), together with the
  full characteristic polynomial; the Gelfand-Zetlin family.
* ``gz-corner``    -- the same construction from lower-left corner minors.
* ``mf``           -- the shift-of-argument family: coefficients of
  det(u - mu*A - lam) in both formal variables, for a fixed rational A;
  built from u alone, so its spec's side must be left.
* ``trivial``      -- the coordinate-adapted family u g^{-1}, which is
  rational in g, so it has no FamilySpec and is only checked through the
  numerical oracle verify_trivial_numeric.

Commutativity of the polynomial families is verified exactly with the
symbolic bracket.  Functional independence is the rank of the Jacobian with
respect to the 2 N^2 canonical coordinates, taken exactly over GF(PRIME) at
a point.  That rank never exceeds the family's generic rank, so a full rank
proves independence; at a uniformly random point it falls short only where
a nonzero maximal minor of degree D vanishes, with probability at most
D / PRIME (Schwartz-Zippel).  The trivial family's check is a plain-Python
finite-difference oracle; the module loads neither numpy nor dataclasses.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import isnan, nan
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .poisson import (
    _DET_THRESHOLD,
    _WIDTH,
    U,
    UTILDE,
    AmbientSizeError,
    PoissonPoly,
    bracket,
    central_gradient,
    column_det,
    scan_pairs,
)

if TYPE_CHECKING:
    from .poisson import CanonicalPoint

__all__ = [
    "FamilySpec", "CommutingFamily", "CommutationReport", "TrivialReport",
    "char_minor", "build_family", "verify_commutes", "verify_trivial_numeric",
    "independence_rank", "random_rational_matrix", "ResiduePoint", "random_residue_point",
    "PRIME",
]

KINDS = ("gz-principal", "gz-corner", "mf")
SIDES = ("left", "right", "both")
_TRIVIAL_STEP = 1e-6        # the relative step of the trivial family's differences
PRIME = 2 ** 61 - 31        # the rank's field; PRIME = 1 (mod 4), so -1 is a square
_SQRT_M1 = pow(7, (PRIME - 1) // 4, PRIME)  # 7 is a non-residue, so this squares to -1
_NUM_RANGE = 3              # random_rational_matrix: numerators in [-3, 3],
_DEN_RANGE = 3              # denominators in [1, 3]
# build_family keeps the families of its last few specs.  A family's
# polynomials keep their partial tables and {x, b} fields, hundreds of MB at
# N = 8, and every random mf shift is a new spec, so the bound stays small:
# room for the two GZ families and an mf family checked in turn.
_FAMILIES_KEPT = 4


class _SpecFields(NamedTuple):
    kind: str
    n: int
    side: str = "both"
    shift: tuple[tuple[Fraction, ...], ...] | None = None


class FamilySpec(_SpecFields):
    """Which commuting family to build over gl_N, validated when constructed."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.side not in SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        if self.n < 1:
            raise ValueError("ambient size must be >= 1")
        if (self.shift is not None) != (self.kind == "mf"):
            raise ValueError("shift matrix is required exactly for the mf family")
        if self.kind == "mf" and self.side != "left":
            raise ValueError(f"side {self.side!r}: the mf family is one-sided (left)")
        if self.shift is not None:
            if len(self.shift) != self.n or any(len(r) != self.n for r in self.shift):
                raise ValueError("shift matrix has wrong shape")
            if not all(isinstance(x, Fraction) for r in self.shift for x in r):
                raise ValueError("shift matrix entries must be exact rationals")
            # rows as tuples, so the spec can key build_family's cache
            self = super().__new__(cls, *self[:3], tuple(map(tuple, self.shift)))
        return self

    @classmethod
    def _make(cls, iterable):       # _replace builds through _make: validate there too
        return cls(*iterable)

    def to_json(self) -> dict:
        data = self._asdict()
        if self.shift is not None:
            data["shift"] = [[str(x) for x in row] for row in self.shift]
        return data


class CommutingFamily(NamedTuple):
    spec: FamilySpec
    generators: tuple[tuple[str, PoissonPoly], ...]


def _minor_indices(n: int, k: int, corner: bool) -> tuple[list[int], list[int]]:
    if corner:
        return list(range(n - k + 1, n + 1)), list(range(1, k + 1))
    return list(range(1, k + 1)), list(range(1, k + 1))


def char_minor(n: int, k: int, side: str = "left", corner: bool = False) -> PoissonPoly:
    """Determinant of the k x k minor of (lam - u) or (lam - ut).

    Principal minors use rows and columns 1..k; corner minors use rows
    N-k+1..N against columns 1..k, and lam enters only at positions whose
    global row and column indices coincide.
    """
    if not 1 <= k <= n:
        raise ValueError(f"minor size {k} outside 1..{n}")
    kind = U if side == "left" else UTILDE
    rows, cols = _minor_indices(n, k, corner)
    lam = PoissonPoly.lam(n)
    columns = [[lam - PoissonPoly.generator(n, kind, r, c) if r == c
                else -PoissonPoly.generator(n, kind, r, c) for r in rows] for c in cols]
    return column_det(columns, PoissonPoly.constant(n, 1))


def _coefficient_generators(poly: PoissonPoly, label: str) -> tuple[tuple[str, PoissonPoly], ...]:
    """Nonconstant (lam, mu)-coefficients of poly, canonically ordered."""
    out = []
    for (lp, mp), coeff in sorted(poly.lambda_mu_coefficients().items()):
        if coeff.is_zero() or coeff.is_constant():
            continue
        tag = f"{label} lam^{lp}" + (f" mu^{mp}" if mp else "")
        out.append((tag, coeff))
    return tuple(out)


@lru_cache(maxsize=_FAMILIES_KEPT)
def build_family(spec: FamilySpec) -> CommutingFamily:
    """Assemble the labeled generators of the requested family.

    The family is shared: an equal spec gets the same family back, with the
    partial tables and {x, b} fields its polynomials kept from earlier
    checks, for as long as it stays among the last _FAMILIES_KEPT specs.
    Its generators are a tuple, and its polynomials must not be changed.
    """
    n = spec.n
    gens: list[tuple[str, PoissonPoly]] = []
    if spec.kind in ("gz-principal", "gz-corner"):
        corner = spec.kind == "gz-corner"
        sides = {"left": ["left"], "right": ["right"], "both": ["left", "right"]}[spec.side]
        for side in sides:
            tag = "L" if side == "left" else "R"
            for k in range(1, n):
                gens.extend(_coefficient_generators(
                    char_minor(n, k, side=side, corner=corner), f"{tag}[k={k}]"))
        # the full characteristic polynomial, common to both sides
        gens.extend(_coefficient_generators(
            char_minor(n, n, side="left", corner=corner), f"I[k={n}]"))
    elif spec.kind == "mf":
        mu, lam = PoissonPoly.mu(n), PoissonPoly.lam(n)
        columns = [[PoissonPoly.u(n, r, c) - mu * spec.shift[r - 1][c - 1] - (lam if r == c else 0)
                    for r in range(1, n + 1)] for c in range(1, n + 1)]
        gens.extend(_coefficient_generators(column_det(columns, PoissonPoly.constant(n, 1)), "MF"))
    return CommutingFamily(spec=spec, generators=tuple(gens))


class CommutationReport(NamedTuple):
    family: dict
    pairs_checked: int
    max_nonzero_terms: int
    status: str
    witness: dict | None = None

    def to_json(self) -> dict:
        data = self._asdict()
        data["pairs"] = data.pop("pairs_checked")
        return data


def verify_commutes(fam: CommutingFamily) -> CommutationReport:
    """Bracket all unordered generator pairs; exact zero means 'ok'.

    A nonzero bracket is reported as a finding (with a rendered witness),
    not raised as an error.  Fewer than two generators (N = 1) raise
    ValueError: the check would see no pair.
    """
    if len(fam.generators) < 2:
        raise ValueError(f"{len(fam.generators)} generator(s) give no pair to check")
    pairs, worst, witness = scan_pairs(fam.generators, bracket)
    return CommutationReport(
        family=fam.spec.to_json(),
        pairs_checked=pairs,
        max_nonzero_terms=worst,
        status="ok" if witness is None else "violation",
        witness=witness,
    )


class TrivialReport(NamedTuple):
    n: int
    points: int
    pairs_checked: int
    max_abs_bracket: float
    tolerance: float
    status: str

    def to_json(self) -> dict:
        data = self._asdict()
        data.update(family={"kind": "trivial", "n": data.pop("n"), "side": "left", "shift": None},
                    pairs=data.pop("pairs_checked"))
        return data


def verify_trivial_numeric(n: int, pt_count: int = 10, seed: int = 0,
                           tol: float = 1e-5) -> TrivialReport:
    """Check the N^2 functions (u g^{-1})[i,j] pairwise in the oracle.

    With the package's momentum conventions the commuting combination is
    u g^{-1}; all pairwise canonical brackets must vanish to tolerance at
    points (g, p) of standard complex Gaussians from random.Random(seed)
    (g redrawn while |det g| < 1e-8).  Each point takes one central_gradient
    of all the members in g and one in p (_trivial_gradients); each pair is
    then bracketed as in ``canonical_bracket``.  A NaN bracket makes the
    largest one NaN and the status a violation.  Raises ValueError when
    n < 2 or pt_count < 1: the check would see no pair.
    """
    if n < 2 or pt_count < 1:
        raise ValueError(f"n = {n} and {pt_count} point(s) give no pair to check")
    rng = random.Random(seed)
    worst = 0.0
    pairs = 0
    for _ in range(pt_count):
        dg, dp = _trivial_gradients(*_gaussian_point(n, rng), n)
        dg, dp = list(zip(*dg)), list(zip(*dp))
        devs = [abs(sum(map(mul, dg[f], dp[h])) - sum(map(mul, dp[f], dg[h])))
                for f, h in itertools.combinations(range(n * n), 2)]
        pairs += len(devs)
        # max() drops a NaN that is not its first argument; their sum keeps it
        worst = nan if isnan(worst + sum(devs)) else max(worst, max(devs))
    status = "ok" if worst <= tol else "violation"
    return TrivialReport(n=n, points=pt_count, pairs_checked=pairs,
                         max_abs_bracket=worst, tolerance=tol, status=status)


def _trivial_gradients(g: list[complex], g_inv: list[complex], p: list[complex],
                       n: int) -> tuple[list[list[complex]], list[list[complex]]]:
    """central_gradient of _trivial_members in g, then in p, at (g, p).

    A move of g[r, c] changes only column c of u = p^T g, and a move of
    p[k, a] only row a of u and so of u g^{-1}.  Each move recomputes that
    column or row by the same sums as _matmul and takes the rest from the
    point's own u and members, so the gradients are those of the full
    members bit for bit, and an unchanged member differs by exactly 0.
    """
    p_t = _transpose(p, n)
    u = _matmul(p_t, g, n)
    members = _matmul(u, g_inv, n)
    g_cols = [g[j::n] for j in range(n)]
    g_inv_cols = [g_inv[j::n] for j in range(n)]

    def g_move(x, k):
        c = k % n
        moved = u[:]
        moved[c::n] = [sum(map(mul, p_t[i:i + n], x[c::n])) for i in range(0, n * n, n)]
        return _matmul(moved, _det_and_inverse(x, n)[1], n)

    def p_move(x, k):
        a = k % n
        row = [sum(map(mul, x[a::n], col)) for col in g_cols]       # row a of x^T g
        out = members[:]
        out[a * n:(a + 1) * n] = [sum(map(mul, row, col)) for col in g_inv_cols]
        return out

    return (central_gradient(g_move, g, _TRIVIAL_STEP),
            central_gradient(p_move, p, _TRIVIAL_STEP))


def _gaussian_point(n: int, rng: random.Random) -> tuple[list[complex], ...]:
    """(g, g^{-1}, p), with g and p flat row-major lists of standard complex
    Gaussians and |det g| >= _DET_THRESHOLD."""
    def draw():
        return [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n * n)]

    for _ in range(100):
        g, p = draw(), draw()
        det, g_inv = _det_and_inverse(g, n)
        if abs(det) >= _DET_THRESHOLD:
            return g, g_inv, p
    raise RuntimeError("could not sample an invertible g")


def _det_and_inverse(m: list[complex], n: int) -> tuple[complex, list[complex]]:
    """Determinant and inverse of the flat n x n matrix m, by Gauss-Jordan
    elimination with partial pivoting."""
    rows = [m[i * n:(i + 1) * n] + [0.0] * n for i in range(n)]
    for i in range(n):
        rows[i][n + i] = 1.0
    det = 1.0
    for c in range(n):
        r = max(range(c, n), key=lambda i: abs(rows[i][c]))
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        top = rows[c] = [x / pivot for x in rows[c]]
        for i in range(n):
            row = rows[i]
            f = row[c]
            if i != c and f:
                rows[i] = [x - f * y for x, y in zip(row, top)]
    return det, [x for row in rows for x in row[n:]]


def _matmul(a: list[complex], b: list[complex], n: int) -> list[complex]:
    cols = [b[j::n] for j in range(n)]
    return [sum(map(mul, a[i:i + n], col)) for i in range(0, n * n, n) for col in cols]


def _transpose(m: list[complex], n: int) -> list[complex]:
    return [m[k * n + a] for a in range(n) for k in range(n)]


def _trivial_members(p_t: list[complex], g: list[complex], g_inv: list[complex],
                     n: int) -> list[complex]:
    """The trivial family u g^{-1}, with u = p^T g, from p^T; flat and row-major."""
    return _matmul(_matmul(p_t, g, n), g_inv, n)


class ResiduePoint(NamedTuple):
    """A point (g, p) of T*GL(N) over GF(PRIME): n x n tuples of residues."""

    g: tuple[tuple[int, ...], ...]
    p: tuple[tuple[int, ...], ...]


def random_residue_point(n: int, rng: random.Random) -> ResiduePoint:
    """(g, p) with entries drawn uniformly from GF(PRIME), g first."""
    def draw():
        return tuple(tuple(rng.randrange(PRIME) for _ in range(n)) for _ in range(n))

    g = draw()
    return ResiduePoint(g, draw())


def _residue(z) -> int:
    """z mod PRIME: an int as it is; a float or complex exactly, since every
    float is a dyadic rational, with i read as the square root _SQRT_M1."""
    if isinstance(z, int):
        return z % PRIME
    z = complex(z)
    (a, b), (c, d) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    return (a * _inverse(b) + _SQRT_M1 * c * _inverse(d)) % PRIME


@lru_cache(maxsize=None)
def _inverse(b: int) -> int:
    """1/b mod PRIME, for the powers of two that denominate floats (at most
    1075 of them, so the cache stays small)."""
    return pow(b, -1, PRIME)


def _gf_rows(polys: list[PoissonPoly], pt: ResiduePoint | CanonicalPoint) -> list[list[int]]:
    """Each poly's Jacobian row over (g, p) at pt, times its denominator, mod PRIME.

    The row comes from the integer numerators of the poly's table of
    partials, so no denominator is ever inverted: scaling a row by a nonzero
    number keeps the rank.  The chain rule runs through u = p^T g and
    ut = -g p^T; lam and mu are 0.  Each monomial's value is its value less
    one lowest factor times that factor, kept for the whole point.
    """
    g, p = ([[_residue(z) for z in row] for row in m] for m in (pt.g, pt.p))
    n = len(g)
    rn = range(n)
    u = [[sum(p[k][a] * g[k][b] for k in rn) % PRIME for b in rn] for a in rn]
    ut = [[-sum(g[a][k] * p[b][k] for k in rn) % PRIME for b in rn] for a in rn]
    values = [x for m in (u, ut, g) for row in m for x in row] + [0, 0]
    memo = {0: 1}

    def value(key: int) -> int:
        v = memo.get(key)
        if v is None:
            s = ((key & -key).bit_length() - 1) // _WIDTH
            v = memo[key] = value(key - (1 << _WIDTH * s)) * values[s] % PRIME
        return v

    # d/dg = p du - dut p + dg and d/dp = g du^T - dut^T g, from u = p^T g and
    # ut = -g p^T; each entry one sum over the two products' joined terms
    minus_p_cols = [[-x for x in col] for col in zip(*p)]
    minus_g_cols = [[-x for x in col] for col in zip(*g)]
    rows = []
    for poly in polys:
        grad = [0] * len(values)
        for s, part in poly._partials().items():
            grad[s] = sum(c * value(m) for m, c in part) % PRIME
        du = [grad[a * n:(a + 1) * n] for a in rn]
        dut = [grad[(n + a) * n:(n + a + 1) * n] for a in rn]
        dg = grad[2 * n * n:3 * n * n]
        left = [p[i] + dut[i] for i in rn]
        right = [list(col) + minus for col, minus in zip(zip(*du), minus_p_cols)]
        row = [(sum(map(mul, a, b)) + dg[k]) % PRIME
               for k, (a, b) in enumerate(itertools.product(left, right))]
        left = [g[i] + list(col) for i, col in zip(rn, zip(*dut))]
        right = [du[j] + minus for j, minus in zip(rn, minus_g_cols)]
        row += [sum(map(mul, a, b)) % PRIME for a, b in itertools.product(left, right)]
        rows.append(row)
    return rows


def _rank_mod_prime(rows: list[list[int]]) -> int:
    """Rank over GF(PRIME) by Gaussian elimination: each nonzero row in turn
    clears its first nonzero column from the rest."""
    rank = 0
    rows = [r for r in rows if any(r)]
    while rows:
        top = rows.pop()
        col = next(j for j, x in enumerate(top) if x)
        inv = pow(top[col], -1, PRIME)
        top = top[col:]                 # zero before col
        rank += 1
        rest = []
        for r in rows:
            f = r[col] * inv % PRIME
            if f:
                r = r[:col] + [(x - f * y) % PRIME for x, y in zip(r[col:], top)]
            if any(r):
                rest.append(r)
        rows = rest
    return rank


def independence_rank(fam: CommutingFamily, pt: ResiduePoint | CanonicalPoint) -> int:
    """Exact rank over GF(PRIME) of the family's Jacobian over the 2 N^2
    canonical coordinates at pt: a ResiduePoint, or a CanonicalPoint read
    exactly.  It never exceeds the family's generic rank, so a full rank
    proves independence."""
    if not fam.generators:
        raise ValueError("family has no polynomial generators")
    if len(pt.g) != fam.spec.n:
        raise AmbientSizeError(f"ambient sizes differ: {fam.spec.n} != {len(pt.g)}")
    return _rank_mod_prime(_gf_rows([poly for _, poly in fam.generators], pt))


def random_rational_matrix(n: int, rng: random.Random) -> tuple[tuple[Fraction, ...], ...]:
    """Dense random matrix of small exact rationals (may be singular)."""
    return tuple(
        tuple(Fraction(rng.randint(-_NUM_RANGE, _NUM_RANGE), rng.randint(1, _DEN_RANGE))
              for _ in range(n))
        for _ in range(n))
