"""Numerical geometry of generic coadjoint orbits of gl_N.

An orbit point is a complex matrix u with fixed simple spectrum.  The chart
functions are built from the nested principal characteristic polynomials

    A_n(lam) = det(lam - u)[1..n, 1..n],     gamma[n,j] = roots of A_n,

together with the lowering minors

    C_n(lam) = det of (lam - u) on rows {1..n-1, n+1} x columns {1..n}

(or the transposed row/column choice; the orientation and a sign form a
``MinorConvention`` that is fixed by an automated sweep against the
canonicity oracle).  The angles are

    theta[n,j] = log( -C_n(gamma[n,j]) / A_{n-1}(gamma[n,j]) ),

principal branch.  The checks differentiate them in closed form (root
perturbation from null vectors, Jacobi's formula for log-minors) and pair
the gradients in the Lie-Poisson / Kirillov-Kostant bracket

    {f, h}(u) = tr( u [grad h, grad f] ),   (grad F)[i,j] = dF/du[j,i],

whose restriction of the matrix-entry relations is
{u[i,j], u[k,l]} = d(j,k) u[i,l] - d(l,i) u[k,j], matching the exact
symbolic algebra in :mod:`gztower.poisson`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polytools import (
    TrackingError,
    lambda_minor_det,
    match_points,
    min_pairwise_gap,
    minor_dets,
    polished_roots,
    sort_points,
)

__all__ = [
    "OrbitError", "SingularChartError", "RetryExhaustedError", "TrackingError",
    "MinorConvention", "DEFAULT_MINOR_CONVENTION", "OrbitPoint", "GZChart",
    "OrbitTangent", "LevelData", "level_data", "ChartDerivatives", "chart_derivatives",
    "sample_orbit", "random_spectrum", "regularity_margin", "lowering_minor_coeffs",
    "gz_forward", "chart_residuals", "kk_bracket",
    "verify_canonical_chart", "ChartCanonicityReport",
    "residue_form_check", "ResidueFormReport",
]


class OrbitError(RuntimeError):
    pass


class SingularChartError(OrbitError):
    """A chart denominator fell below the working precision."""


class RetryExhaustedError(OrbitError):
    """Could not sample a regular orbit point within the retry budget."""


@dataclass(frozen=True)
class MinorConvention:
    """Orientation and sign of the lowering minor C_n.

    rows_variant True selects rows {1..n-1, n+1} x cols {1..n}; False the
    transposed choice.  The sign multiplies the minor (it shifts theta by
    i*pi and is invisible to all brackets).
    """

    rows_variant: bool = True
    sign: int = 1

    def label(self) -> str:
        return ("rows" if self.rows_variant else "cols") + ("+" if self.sign > 0 else "-")


DEFAULT_MINOR_CONVENTION = MinorConvention()


@dataclass
class OrbitPoint:
    """Matrix on a fixed-spectrum coadjoint orbit (validation in create())."""

    u: np.ndarray
    spectrum: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @classmethod
    def create(cls, u, spectrum=None, gap: float = 1e-6,
               spectrum_tol: float = 1e-10) -> "OrbitPoint":
        u = np.array(u, dtype=complex)
        eig = sort_points(np.linalg.eigvals(u))
        if spectrum is None:
            spectrum = eig
        else:
            spectrum = sort_points(np.array(spectrum, dtype=complex))
            matched = match_points(spectrum, eig)
            if np.max(np.abs(matched - spectrum)) > spectrum_tol:
                raise OrbitError("matrix spectrum does not match the declared one")
        if regularity_margin(u) < gap:
            raise OrbitError("matrix is not regular for the nested-minor chart")
        return cls(u=u, spectrum=np.array(spectrum, dtype=complex))

    def to_json(self) -> dict:
        enc = lambda m: [[float(z.real), float(z.imag)] for z in np.ravel(m)]
        return {"n": self.n, "spectrum": enc(self.spectrum), "u": enc(self.u)}

    @classmethod
    def from_json(cls, data: dict) -> "OrbitPoint":
        n = data["n"]
        dec = lambda flat: np.array([complex(re, im) for re, im in flat])
        return cls(u=dec(data["u"]).reshape(n, n), spectrum=dec(data["spectrum"]))


@functools.lru_cache(maxsize=None)
def _margin_pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of the roots of A_1..A_N, in level order, one level apart at most."""
    level = np.repeat(np.arange(N), np.arange(1, N + 1))
    i, j = np.triu_indices(len(level), 1)
    near = level[j] - level[i] <= 1
    return i[near], j[near]


def regularity_margin(u: np.ndarray) -> float | np.ndarray:
    """Smallest root separation within and between consecutive A_n.

    u is one matrix, or a stack (B, N, N) that gets an array of B margins
    from one level-data kernel call; there a point whose minors leave
    floating-point range gets NaN, where one matrix raises OrbitError.
    """
    u = np.asarray(u, dtype=complex)
    N = u.shape[-1]
    _, roots, finite = _level_stack(u.reshape(-1, N, N), DEFAULT_MINOR_CONVENTION,
                                    lowering=False)
    roots = np.concatenate(roots, axis=1)
    i, j = _margin_pairs(N)
    diff = roots[:, i] - roots[:, j]
    margin = np.min(np.hypot(diff.real, diff.imag), axis=1, initial=np.inf)
    margin[~finite] = np.nan
    if u.ndim == 3:
        return margin
    if not finite[0]:
        raise _overflow_error()
    return float(margin[0])


def random_spectrum(n: int, rng: np.random.Generator, gap: float = 0.35,
                    box: float = 1.5) -> np.ndarray:
    """Random complex spectrum with a guaranteed minimal gap."""
    for _ in range(200):
        s = rng.uniform(-box, box, n) + 1j * rng.uniform(-box, box, n)
        if min_pairwise_gap(s) >= gap:
            return s
    raise RetryExhaustedError("could not sample a separated spectrum")


def sample_orbit(spectrum, seed: int | np.random.Generator = 0,
                 gap: float = 1e-6, cond_cap: float = 1e6,
                 retries: int = 100) -> OrbitPoint:
    """Sample u = h diag(spectrum) h^{-1} with h a random well-conditioned matrix.

    Resamples h until the regularity margin of u clears `gap`; raises
    RetryExhaustedError if the budget runs out, and OrbitError if u or (in
    level_data) its characteristic minors leave floating-point range (a
    finite but huge spectrum).
    """
    spectrum = np.array(spectrum, dtype=complex)
    n = len(spectrum)
    if min_pairwise_gap(spectrum) < gap:
        raise OrbitError("spectrum entries are not separated")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(retries):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if n > 1 and np.linalg.cond(h) > cond_cap:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            u = h @ np.diag(spectrum) @ np.linalg.inv(h)
        if not np.isfinite(u).all():
            raise OrbitError("spectrum too large: u leaves floating-point range")
        if regularity_margin(u) >= gap:
            return OrbitPoint(u=u, spectrum=sort_points(spectrum))
    raise RetryExhaustedError(f"no regular point after {retries} draws")


# ---------------------------------------------------------------------------
# the Gelfand-Zetlin chart
# ---------------------------------------------------------------------------

def lowering_minor_coeffs(u: np.ndarray, n: int,
                          convention: MinorConvention = DEFAULT_MINOR_CONVENTION) -> np.ndarray:
    """Coefficients of C_n(lam) for one level, degree n-1 in lam (0-based u)."""
    if not 1 <= n < u.shape[0]:
        raise ValueError("the lowering minor needs row/column n+1")
    rows, cols = _level_minors(n + 1, convention.rows_variant, True)[-1]
    return convention.sign * lambda_minor_det(u, rows, cols)


@dataclass
class LevelData:
    """a[n] = A_n (a[0] = [1]) with roots gamma[n-1], n = 1..N; c[n-1] = C_n
    with roots e[n-1], n = 1..N-1 (both empty without the lowering minors)."""

    a: list[np.ndarray]
    gamma: list[np.ndarray]
    c: list[np.ndarray]
    e: list[np.ndarray]


@functools.lru_cache(maxsize=None)
def _level_minors(N: int, rows_variant: bool, lowering: bool) -> tuple:
    """(rows, cols) of A_1..A_N, then of C_1..C_{N-1} when lowering."""
    out = [(tuple(range(n)),) * 2 for n in range(1, N + 1)]
    for n in range(1, N if lowering else 1):
        shifted, plain = tuple(range(n - 1)) + (n,), tuple(range(n))
        out.append((shifted, plain) if rows_variant else (plain, shifted))
    return tuple(out)


def _overflow_error() -> OrbitError:
    return OrbitError("spectrum too large: the characteristic minors of u "
                      "leave floating-point range")


def _level_stack(us: np.ndarray, convention: MinorConvention, lowering: bool) -> tuple:
    """The level-data kernel: every minor and its roots at every point of a
    stack us (B, N, N), from one minor_dets and one polished_roots call.

    Returns (coeffs, roots, finite): for each minor of _level_minors its
    coefficients (B, d+1), C_n times the convention's sign, and its roots
    (B, d), unsorted, NaN where an exact leading zero drops one; finite[b]
    is False when a minor of point b leaves floating-point range, and then
    all its coefficients and roots are NaN.
    """
    N = us.shape[-1]
    coeffs = minor_dets(us, _level_minors(N, convention.rows_variant, lowering))
    roots = polished_roots([c.T for c in coeffs])
    coeffs[N:] = [convention.sign * c for c in coeffs[N:]]
    return coeffs, roots, ~np.isnan(coeffs[0][:, 0])


def level_data(u: np.ndarray, convention: MinorConvention = DEFAULT_MINOR_CONVENTION,
               base=None, lowering: bool = True) -> LevelData:
    """A_1..A_N and, with lowering, C_1..C_{N-1}, with their polished roots.

    One call of the level-data kernel on a stack of one.  Roots come
    sorted, or matched to a base (LevelData or GZChart): gamma to
    base.gamma, and e to base.e if the base has one.  Raises OrbitError
    when a minor leaves floating-point range.
    """
    N = u.shape[0]
    coeffs, roots, finite = _level_stack(np.asarray(u)[None], convention, lowering)
    if not finite[0]:
        raise _overflow_error()
    roots = [r[0][~np.isnan(r[0])] for r in roots]
    refs = [] if base is None else base.gamma + getattr(base, "e", [])
    roots = ([match_points(ref, x) for ref, x in zip(refs, roots)]
             + [sort_points(x) for x in roots[len(refs):]])
    coeffs = [c[0] for c in coeffs]
    return LevelData(a=[np.ones(1, dtype=complex)] + coeffs[:N], gamma=roots[:N],
                     c=coeffs[N:], e=roots[N:])


@dataclass
class GZChart:
    """Triangular arrays gamma[n][j] (n = 1..N) and theta[n][j] (n = 1..N-1)."""

    gamma: list[np.ndarray]
    theta: list[np.ndarray]
    convention: MinorConvention = DEFAULT_MINOR_CONVENTION

    @property
    def n(self) -> int:
        return len(self.gamma)

    def to_json(self) -> dict:
        enc = lambda level: [[float(z.real), float(z.imag)] for z in level]
        return {
            "n": self.n,
            "gamma": [enc(g) for g in self.gamma],
            "theta": [enc(t) for t in self.theta],
            "minor_convention": self.convention.label(),
        }


def gz_forward(pt: OrbitPoint, convention: MinorConvention = DEFAULT_MINOR_CONVENTION,
               compute_theta: bool = True, floor: float = 1e-12) -> GZChart:
    """Forward chart map: roots of the nested minors plus the log angles.

    Assumes a regular point (sampled points are; hand-built ones may fail
    with SingularChartError when a denominator degenerates).
    """
    lv = level_data(pt.u, convention, lowering=compute_theta)
    thetas: list[np.ndarray] = []
    for n, (g, c) in enumerate(zip(lv.gamma, lv.c), start=1):
        cval, aval = np.polyval(c, g), np.polyval(lv.a[n - 1], g)
        if min(np.min(np.abs(cval)), np.min(np.abs(aval))) < floor:
            raise SingularChartError(f"level {n} angle denominators below {floor}")
        thetas.append(np.log(-cval / aval))
    return GZChart(gamma=lv.gamma, theta=thetas, convention=convention)


def chart_residuals(chart: GZChart, pt: OrbitPoint) -> tuple[float, float]:
    """Self-consistency residuals of the chart against the minors of u.

    Returns (max |poly(gamma) - A_n| coefficientwise,
             max |C_n(gamma) + A_{n-1}(gamma) e^theta|), each level divided
    by max(1, max|a_n|) and max(1, max|C_n(gamma)|): the A_n coefficients
    grow like n!, and neither scale depends on theta.
    """
    lv = level_data(pt.u, chart.convention)
    scale = lambda x: max(1.0, float(np.max(np.abs(x))))
    res_a = max(float(np.max(np.abs(np.poly(g) - a))) / scale(a)
                for g, a in zip(chart.gamma, lv.a[1:]))
    res_c = 0.0
    for n, (g, c, theta) in enumerate(zip(chart.gamma, lv.c, chart.theta), start=1):
        lhs, rhs = np.polyval(c, g), -np.polyval(lv.a[n - 1], g) * np.exp(theta)
        res_c = max(res_c, float(np.max(np.abs(lhs - rhs))) / scale(lhs))
    return res_a, res_c


def kk_bracket(f: Callable[[np.ndarray], complex],
               h: Callable[[np.ndarray], complex],
               u: np.ndarray, step: float = 1e-5) -> complex:
    """Kirillov-Kostant bracket {f, h}(u) = tr(u [grad h, grad f]).

    The generic oracle: central differences, step * max(1, |u[a, b]|).
    """
    n = u.shape[0]
    grads = np.zeros((2, n, n), dtype=complex)
    for a, b in np.ndindex(n, n):
        shift = np.zeros((n, n))
        shift[a, b] = step * max(1.0, abs(u[a, b]))
        grads[:, b, a] = [(g(u + shift) - g(u - shift)) / (2.0 * shift[a, b]) for g in (f, h)]
    if not np.all(np.isfinite(grads)):
        raise ArithmeticError("non-finite derivative encountered")
    return _kk(u, *grads)


def _kk(u: np.ndarray, gf: np.ndarray, gh: np.ndarray) -> complex:
    """{f, h}(u) = tr(u [gh, gf]) from gf, gh with [i,j] = dF/du[j,i]."""
    return complex(np.trace(u @ (gh @ gf - gf @ gh)))


# ---------------------------------------------------------------------------
# closed-form derivatives of the chart functions
# ---------------------------------------------------------------------------

def _minor_gradients(u: np.ndarray, minor: tuple, lams: np.ndarray,
                     roots: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gradients [a, b] = d/du[a, b] tied to the minor det(lam P - S) at each lam.

    P and S as in minor_dets.  roots=False: d log det at fixed lam, by
    Jacobi's formula d log det M = tr(M^-1 dM) with dM = -du[rows, cols],
    and d/dlam log det = tr(M^-1 P).  roots=True: the lams are simple roots
    r; M = r P - S has right and left null vectors z, y (its smallest
    singular pair), adj M is proportional to z y^T, and det M = 0 gives
    dr = y^T dS z / (y^T P z) (for a puncture, P = 1 and S = u_n, z and y
    are the right and left eigenvectors), with condition
    |y| |z| / |y^T P z| = 1 / |y^T P z|.
    """
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


@dataclass
class ChartDerivatives:
    """Closed-form gradients at u, [a, b] = dF/du[a, b].

    gamma[n-1] (n, N, N) for the roots of A_n and e[n-1] (n-1, N, N) for
    those of C_n, in the order of lv; minors as in _level_minors.
    conditioning: the smallest |e - gamma| within a level, the smallest
    |gamma_n - gamma_(n+1)| (None without terms), and the largest root
    condition |y| |z| / |y^T P z|.
    """

    u: np.ndarray
    lv: LevelData
    minors: tuple
    gamma: list[np.ndarray]
    e: list[np.ndarray]
    conditioning: dict[str, float | None]

    def log_minor(self, index: int, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d log det and d/dlam log det of minor `index` (A_1..A_N, C_1..C_(N-1))."""
        return _minor_gradients(self.u, self.minors[index], lams, roots=False)

    def theta(self) -> list[np.ndarray]:
        """d theta[n, j], n = 1..N-1, theta = log(-C_n(gamma) / A_(n-1)(gamma)):
        each log-minor at fixed lam plus its lam-derivative times d gamma."""
        N = self.u.shape[0]
        out = []
        for n in range(1, N):
            g, dg = self.lv.gamma[n - 1], self.gamma[n - 1]
            dlog, dlam = self.log_minor(N + n - 1, g)
            grad = dlog + dlam[:, None, None] * dg
            if n >= 2:
                dlog, dlam = self.log_minor(n - 2, g)
                grad -= dlog + dlam[:, None, None] * dg
            out.append(grad)
        return out


def chart_derivatives(u: np.ndarray,
                      convention: MinorConvention = DEFAULT_MINOR_CONVENTION) -> ChartDerivatives:
    """Gradients of every puncture and divisor point, one SVD stack per minor."""
    N = u.shape[0]
    lv = level_data(u, convention)
    minors = _level_minors(N, convention.rows_variant, True)
    grads, conds = zip(*(_minor_gradients(u, m, r, roots=True)
                         for m, r in zip(minors, lv.gamma + lv.e)))

    def least_gap(pairs):
        gaps = np.concatenate([np.zeros(0), *(np.abs(np.subtract.outer(a, b)).ravel()
                                               for a, b in pairs)])
        return float(np.min(gaps)) if len(gaps) else None

    conditioning = {
        "min_divisor_gap": least_gap(zip(lv.e, lv.gamma)),
        "min_level_gap": least_gap(zip(lv.gamma, lv.gamma[1:])),
        "max_root_condition": float(np.max(np.concatenate(conds))),
    }
    return ChartDerivatives(u=u, lv=lv, minors=minors, gamma=list(grads[:N]),
                            e=list(grads[N:]), conditioning=conditioning)


# ---------------------------------------------------------------------------
# chart canonicity
# ---------------------------------------------------------------------------

@dataclass
class ChartCanonicityReport:
    n: int
    tolerance: float
    variants: list[dict]
    winner: str | None
    max_deviation: float
    casimir_deviation: float
    status: str
    table: dict[str, complex]
    conditioning: dict[str, float | None]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tolerance": self.tolerance,
            "derivatives": "analytic",
            "conditioning": self.conditioning,
            "variants": self.variants,
            "winner": self.winner,
            "max_deviation": self.max_deviation,
            "casimir_deviation": self.casimir_deviation,
            "status": self.status,
            "table": {key: [v.real, v.imag] for key, v in sorted(self.table.items())},
        }


def _canonicity_deviation(u: np.ndarray, convention: MinorConvention):
    """Worst table deviation, worst Casimir bracket, the table, conditioning."""
    N = u.shape[0]
    d = chart_derivatives(u, convention)
    names = [f"gamma[{n},{j}]" for n in range(1, N + 1) for j in range(1, n + 1)]
    names += [f"theta[{n},{j}]" for n in range(1, N) for j in range(1, n + 1)]
    grads = np.concatenate(d.gamma + d.theta()).transpose(0, 2, 1)
    # {F_a, F_b} = tr(u [G_b, G_a]) = T[b, a] - T[a, b], T[a, b] = tr(u G_a G_b)
    T = np.einsum("aij,bji->ab", u @ grads, grads)
    kk = T.T - T
    G = N * (N + 1) // 2            # names: G gammas, then G - N thetas
    low, top = np.arange(G - N), range(G - N, G)    # gamma[n<N, j]; the Casimirs
    chart = [i for i in range(len(names)) if i not in top]
    expected = np.zeros(kk.shape)
    expected[G + low, low], expected[low, G + low] = 1.0, -1.0
    dev = np.abs(kk - expected)
    table = {f"{names[a]}|{names[b]}": complex(kk[a, b])
             for ia, a in enumerate(chart) for b in chart[ia:]}
    table.update({f"{names[c]}|{names[b]}": complex(kk[c, b])
                  for c in top for b in range(len(names))})
    worst = float(np.max(dev[np.ix_(chart, chart)], initial=0.0))
    casimir = float(np.max(dev[G - N:G], initial=0.0))
    return worst, casimir, table, d.conditioning


def verify_canonical_chart(pt: OrbitPoint, tolerance: float = 1e-5,
                           convention: MinorConvention | None = None) -> ChartCanonicityReport:
    """Check {theta, gamma} = delta etc. in the oracle; sweep the minor convention.

    When no convention is supplied all four orientation/sign variants are
    tried; the first one whose full bracket table is canonical within
    tolerance wins.  The minor's sign shifts theta by i*pi and cannot move
    any bracket, so sign twins always score identically.
    """
    sweep = [convention] if convention else [MinorConvention(rv, sg) for rv in (True, False)
                                             for sg in (1, -1)]
    cache: dict[bool, tuple] = {}
    variants, winner = [], None
    for conv in sweep:
        if conv.rows_variant not in cache:
            cache[conv.rows_variant] = _canonicity_deviation(pt.u, conv)
        dev, cas, _, _ = cache[conv.rows_variant]
        variants.append({"convention": conv.label(),
                         "max_deviation": dev, "casimir_deviation": cas})
        if winner is None and dev < tolerance and cas < tolerance:
            winner = conv
    if winner is None:
        dev, cas, table, cond = min(cache.values(), key=lambda v: v[0])
    else:
        dev, cas, table, cond = cache[winner.rows_variant]
    return ChartCanonicityReport(
        n=pt.n, tolerance=tolerance, variants=variants,
        winner=None if winner is None else winner.label(), max_deviation=dev,
        casimir_deviation=cas, status="violation" if winner is None else "ok",
        table=table, conditioning=cond)


# ---------------------------------------------------------------------------
# the contour/residue representation of the symplectic form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitTangent:
    """Tangent direction [x, u] at an orbit point, stored through x."""

    x: np.ndarray

    def vector(self, u: np.ndarray) -> np.ndarray:
        return self.x @ u - u @ self.x


@dataclass
class ResidueFormReport:
    n: int
    pairs: int
    tolerance: float
    variants: list[dict]
    winner: str | None
    status: str
    conditioning: dict[str, float | None]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pairs": self.pairs,
            "tolerance": self.tolerance,
            "derivatives": "analytic",
            "conditioning": self.conditioning,
            "variants": self.variants,
            "winner": self.winner,
            "status": self.status,
        }


def residue_form_check(pt: OrbitPoint, pairs: list[tuple[OrbitTangent, OrbitTangent]],
                       tolerance: float = 1e-4,
                       convention: MinorConvention = DEFAULT_MINOR_CONVENTION) -> ResidueFormReport:
    """Evaluate the contour form of the symplectic structure on tangent pairs.

    The two-form is assembled from residues of dlog C_n ^ dlog A_n (first
    term) and dlog A_{n-1} ^ dlog A_n (second term).  The contour of the
    first term is swept over {zeros of C_n, zeros of A_n} together with
    both signs of the term and of the whole form, and each variant is
    compared against the Kirillov-Kostant value tr(u [x, y]).  Casimir-level
    contributions vanish on orbit tangents and are omitted.  Every
    directional derivative is a closed-form gradient contracted with the
    tangent [x, u].
    """
    u = pt.u
    N = pt.n
    d = chart_derivatives(u, convention)
    lv = d.lv
    flat = lambda grads: np.concatenate([np.zeros((0, N, N)), *grads])
    # aligned pairs of stacks over all levels: the gradients of some roots,
    # then those of a log-minor at the same roots (fixed lam)
    pieces = [
        flat(d.e),                                                          # e[n]
        flat(d.log_minor(n - 1, lv.e[n - 1])[0] for n in range(1, N)),     # A_n
        flat(d.gamma[:N - 1]),                                              # gamma[n]
        flat(d.log_minor(N + n - 1, lv.gamma[n - 1])[0] for n in range(1, N)),  # C_n
        flat(d.gamma[:N - 2]),                                              # gamma[n-1]
        flat(d.log_minor(n - 1, lv.gamma[n - 2])[0] for n in range(2, N)),  # A_n
    ]
    tangents = np.array([t.vector(u) for pair in pairs for t in pair]).reshape(-1, N * N)
    dx, dy = [], []
    for grads in pieces:
        vals = grads.reshape(-1, N * N) @ tangents.T
        dx.append(vals[:, 0::2])
        dy.append(vals[:, 1::2])
    wedge = lambda i, j: np.sum(-dx[i] * dy[j] + dy[i] * dx[j], axis=0)
    t1 = {"C": wedge(0, 1), "A": wedge(3, 2)}
    t2 = wedge(4, 5)
    kk_value = np.array([_kk(u, ty.x, tx.x) for tx, ty in pairs])

    # sign pairs ordered so that ties (term2 vanishing at N=2) resolve to the
    # same variant that wins uniquely for N >= 3
    variants = []
    for contour in ("A", "C"):
        for s1, s_all in ((-1, -1), (1, 1), (-1, 1), (1, -1)):
            omega = s_all * (s1 * t1[contour] - t2)
            variants.append({
                "variant": f"contour={contour} term1_sign={s1:+d} overall_sign={s_all:+d}",
                "max_deviation": float(np.max(np.abs(omega - kk_value), initial=0.0))})
    winner = next((v["variant"] for v in variants if v["max_deviation"] < tolerance), None)
    return ResidueFormReport(
        n=N, pairs=len(pairs), tolerance=tolerance, variants=variants,
        winner=winner, status="ok" if winner else "violation",
        conditioning=d.conditioning)
