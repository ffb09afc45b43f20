"""Classical commuting families on T*GL(N) built from characteristic minors.

Four families are supported:

* ``gz-principal`` -- coefficients of the characteristic polynomials of the
  nested top-left principal submatrices of u (and of ut), together with the
  full characteristic polynomial; the Gelfand-Zetlin family.
* ``gz-corner``    -- the same construction from lower-left corner minors.
* ``mf``           -- the shift-of-argument family: coefficients of
  det(u - mu*A - lam) in both formal variables, for a fixed rational A.
* ``trivial``      -- the coordinate-adapted family u g^{-1}, which is
  rational in g and therefore only checked through the numerical oracle.

Commutativity of the polynomial families is verified exactly with the
symbolic bracket; functional independence is measured numerically as the
rank of the Jacobian with respect to the 2 N^2 canonical coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .poisson import (
    U,
    UTILDE,
    CanonicalPoint,
    PoissonPoly,
    _gradients,
    bracket,
    column_det,
    gradient_at,
    random_canonical_point,
    scan_pairs,
    u_as_canonical,
    utilde_as_canonical,
)

__all__ = [
    "FamilySpec", "CommutingFamily", "CommutationReport", "TrivialReport",
    "char_minor", "build_family", "verify_commutes", "verify_trivial_numeric",
    "independence_rank", "random_rational_matrix",
]

KINDS = ("gz-principal", "gz-corner", "mf", "trivial")
SIDES = ("left", "right", "both")
_TRIVIAL_STEP = 1e-6        # the relative step of the trivial family's differences
_RANK_TOL = 1e-8            # singular values above this share of the largest count
_NUM_RANGE = 3              # random_rational_matrix: numerators in [-3, 3],
_DEN_RANGE = 3              # denominators in [1, 3]


@dataclass(frozen=True)
class FamilySpec:
    """Which commuting family to build over gl_N."""

    kind: str
    n: int
    side: str = "both"
    shift: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.side not in SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        if self.n < 1:
            raise ValueError("ambient size must be >= 1")
        if (self.shift is not None) != (self.kind == "mf"):
            raise ValueError("shift matrix is required exactly for the mf family")
        if self.shift is not None:
            if len(self.shift) != self.n or any(len(r) != self.n for r in self.shift):
                raise ValueError("shift matrix has wrong shape")
            if not all(isinstance(x, Fraction) for r in self.shift for x in r):
                raise ValueError("shift matrix entries must be exact rationals")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "side": self.side,
            "shift": None if self.shift is None
            else [[str(x) for x in row] for row in self.shift],
        }


@dataclass
class CommutingFamily:
    spec: FamilySpec
    generators: list[tuple[str, PoissonPoly]] = field(default_factory=list)

    def labels(self) -> list[str]:
        return [lbl for lbl, _ in self.generators]


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


def _coefficient_generators(poly: PoissonPoly, label: str) -> list[tuple[str, PoissonPoly]]:
    """Nonconstant (lam, mu)-coefficients of poly, canonically ordered."""
    out = []
    for (lp, mp), coeff in sorted(poly.lambda_mu_coefficients().items()):
        if coeff.is_zero() or coeff.is_constant():
            continue
        tag = f"{label} lam^{lp}" + (f" mu^{mp}" if mp else "")
        out.append((tag, coeff))
    return out


def build_family(spec: FamilySpec) -> CommutingFamily:
    """Assemble the labeled generators of the requested family."""
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
    # trivial: rational in g, handled by verify_trivial_numeric only
    return CommutingFamily(spec=spec, generators=gens)


@dataclass
class CommutationReport:
    family: dict
    pairs_checked: int
    max_nonzero_terms: int
    status: str
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "pairs": self.pairs_checked,
            "max_nonzero_terms": self.max_nonzero_terms,
            "status": self.status,
            "witness": self.witness,
        }


def verify_commutes(fam: CommutingFamily) -> CommutationReport:
    """Bracket all unordered generator pairs; exact zero means 'ok'.

    A nonzero bracket is reported as a finding (with a rendered witness),
    not raised as an error.
    """
    if fam.spec.kind == "trivial":
        raise ValueError("the trivial family is rational in g; "
                         "use verify_trivial_numeric")
    pairs, worst, witness = scan_pairs(fam.generators, bracket)
    return CommutationReport(
        family=fam.spec.to_json(),
        pairs_checked=pairs,
        max_nonzero_terms=worst,
        status="ok" if witness is None else "violation",
        witness=witness,
    )


@dataclass
class TrivialReport:
    n: int
    points: int
    pairs_checked: int
    max_abs_bracket: float
    tolerance: float
    status: str

    def to_json(self) -> dict:
        return {
            "family": {"kind": "trivial", "n": self.n, "side": "left", "shift": None},
            "points": self.points,
            "pairs": self.pairs_checked,
            "max_abs_bracket": self.max_abs_bracket,
            "tolerance": self.tolerance,
            "status": self.status,
        }


def verify_trivial_numeric(n: int, pt_count: int = 10, seed: int = 0,
                           tol: float = 1e-5) -> TrivialReport:
    """Check the N^2 functions (u g^{-1})[i,j] pairwise in the oracle.

    With the package's momentum conventions the commuting combination is
    u g^{-1}; all pairwise canonical brackets must vanish to tolerance at
    randomized points (degenerate g is resampled by construction).  Each
    point takes one matrix-valued central-difference gradient of u g^{-1};
    each pair is then bracketed as in ``canonical_bracket``.
    """
    rng = np.random.default_rng(seed)

    def members(pt):
        return u_as_canonical(pt) @ np.linalg.inv(pt.g)

    def per_member(grad):
        # (n, n, n, n) -> one contiguous (n, n) gradient per member (i, j);
        # contiguous, so np.sum adds in the order canonical_bracket does
        return np.ascontiguousarray(grad.transpose(2, 3, 0, 1)).reshape(n * n, n, n)

    worst = 0.0
    pairs = 0
    for _ in range(pt_count):
        pt = random_canonical_point(n, rng)
        dg, dp = (per_member(grad) for grad in _gradients(members, pt, _TRIVIAL_STEP))
        for f, h in itertools.combinations(range(n * n), 2):
            val = complex(np.sum(dg[f] * dp[h] - dp[f] * dg[h]))
            worst = max(worst, abs(val))
            pairs += 1
    status = "ok" if worst < tol else "violation"
    return TrivialReport(n=n, points=pt_count, pairs_checked=pairs,
                         max_abs_bracket=worst, tolerance=tol, status=status)


def _symbol_jacobian(poly: PoissonPoly, pt: CanonicalPoint) -> np.ndarray:
    """d(poly)/d(g, p) at pt via exact symbol gradients and the chain rule."""
    n = pt.n
    grad = gradient_at(poly, u=u_as_canonical(pt), ut=utilde_as_canonical(pt), g=pt.g)
    du, dut, dg = grad[:3 * n * n].reshape(3, n, n)
    # u = p^T g and ut = -g p^T
    jac_g = pt.p @ du - dut @ pt.p + dg
    jac_p = pt.g @ du.T - dut.T @ pt.g
    return np.concatenate([jac_g.ravel(), jac_p.ravel()])


def independence_rank(fam: CommutingFamily, pt: CanonicalPoint) -> int:
    """Rank of the family's Jacobian over the 2 N^2 canonical coordinates."""
    if not fam.generators:
        raise ValueError("family has no polynomial generators")
    rows = [_symbol_jacobian(p, pt) for _, p in fam.generators]
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > _RANK_TOL * sv[0]))


def random_rational_matrix(n: int, rng: np.random.Generator) -> tuple[tuple[Fraction, ...], ...]:
    """Dense random matrix of small exact rationals (may be singular)."""
    return tuple(
        tuple(Fraction(int(rng.integers(-_NUM_RANGE, _NUM_RANGE + 1)),
                       int(rng.integers(1, _DEN_RANGE + 1)))
              for _ in range(n))
        for _ in range(n))
