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

principal branch at the base point, branch-continuous inside difference
stencils.  The bracket oracle is the Lie-Poisson / Kirillov-Kostant bracket

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
    "OrbitTangent", "LevelData", "level_data", "sample_orbit", "random_spectrum",
    "regularity_margin", "lowering_minor_coeffs", "gz_forward", "chart_residuals", "kk_bracket",
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


def regularity_margin(u: np.ndarray) -> float:
    """Smallest root separation within and between consecutive A_n."""
    roots = np.concatenate(level_data(u, lowering=False).gamma)
    i, j = _margin_pairs(u.shape[0])
    diff = roots[i] - roots[j]
    return float(np.min(np.hypot(diff.real, diff.imag), initial=np.inf))


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


def level_data(u: np.ndarray, convention: MinorConvention = DEFAULT_MINOR_CONVENTION,
               base=None, lowering: bool = True,
               collision_dist: float | None = None) -> LevelData:
    """A_1..A_N and, with lowering, C_1..C_{N-1}, with their polished roots.

    One minor_dets and one polished_roots call.  Roots come sorted, or
    matched to a base (LevelData or GZChart): gamma to base.gamma, with
    collision_dist, and e to base.e if the base has one.  Raises OrbitError
    when a minor leaves floating-point range.
    """
    N = u.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = minor_dets(u, _level_minors(N, convention.rows_variant, lowering))
    if not np.isfinite(np.concatenate(coeffs)).all():
        raise OrbitError("spectrum too large: the characteristic minors of u "
                         "leave floating-point range")

    def follow(refs, levels, dist=None):
        return [sort_points(x) if ref is None else match_points(ref, x, dist)
                for ref, x in zip(refs or [None] * len(levels), levels)]

    roots = polished_roots(coeffs)
    return LevelData(a=[np.ones(1, dtype=complex)] + coeffs[:N],
                     gamma=follow(getattr(base, "gamma", None), roots[:N], collision_dist),
                     c=[convention.sign * c for c in coeffs[N:]],
                     e=follow(getattr(base, "e", None), roots[N:]))


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


def _matched_chart_values(u: np.ndarray, base: GZChart,
                          convention: MinorConvention,
                          collision_dist: float) -> dict[tuple, complex]:
    """Chart functions at a nearby u, tracked against the base chart."""
    lv = level_data(u, convention, base=base, collision_dist=collision_dist)
    out: dict[tuple, complex] = {}
    for n, roots in enumerate(lv.gamma, start=1):
        for j, g in enumerate(roots):
            out[("gamma", n, j + 1)] = g
    for n, (g, c, ref) in enumerate(zip(lv.gamma, lv.c, base.theta), start=1):
        val = np.log(-np.polyval(c, g) / np.polyval(lv.a[n - 1], g))
        # branch continuity: shift by the multiple of 2*pi*i nearest the base
        val = val + 2j * np.pi * np.round((ref - val).imag / (2.0 * np.pi))
        for j, v in enumerate(val):
            out[("theta", n, j + 1)] = v
    return out


def _central_gradients(f: Callable[[np.ndarray], dict], u: np.ndarray,
                       step: float) -> dict:
    """Central differences d/du[a, b] of each value of f(u), a dict; step * max(1, |u[a, b]|)."""
    n = u.shape[0]
    grads: dict = {}
    for a in range(n):
        for b in range(n):
            h = step * max(1.0, abs(u[a, b]))
            up, um = u.copy(), u.copy()
            up[a, b] += h
            um[a, b] -= h
            plus, minus = f(up), f(um)
            for key, val in plus.items():
                grads.setdefault(key, np.zeros((n, n), dtype=complex))[a, b] = \
                    (val - minus[key]) / (2.0 * h)
    return grads


def kk_bracket(f: Callable[[np.ndarray], complex],
               h: Callable[[np.ndarray], complex],
               u: np.ndarray, step: float = 1e-5) -> complex:
    """Kirillov-Kostant bracket {f, h}(u) = tr(u [grad h, grad f])."""
    grads = _central_gradients(lambda v: {"f": f(v), "h": h(v)}, u, step)
    if not all(np.all(np.isfinite(g)) for g in grads.values()):
        raise ArithmeticError("non-finite derivative encountered")
    return _kk(u, grads["f"].T, grads["h"].T)


def _kk(u: np.ndarray, gf: np.ndarray, gh: np.ndarray) -> complex:
    """{f, h}(u) = tr(u [gh, gf]) from gf, gh with [i,j] = dF/du[j,i]."""
    return complex(np.trace(u @ (gh @ gf - gf @ gh)))


def _chart_gradients(pt: OrbitPoint, convention: MinorConvention,
                     step: float) -> tuple[list[tuple], dict[tuple, np.ndarray]]:
    """Gradients of every chart function with respect to the entries of u."""
    base = gz_forward(pt, convention=convention)
    grads = _central_gradients(
        lambda u: _matched_chart_values(u, base, convention, 10.0 * step), pt.u, step)
    return list(grads), grads


@dataclass
class ChartCanonicityReport:
    n: int
    tolerance: float
    step: float
    variants: list[dict]
    winner: str | None
    max_deviation: float
    casimir_deviation: float
    status: str
    table: dict[str, complex]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tolerance": self.tolerance,
            "step": self.step,
            "variants": self.variants,
            "winner": self.winner,
            "max_deviation": self.max_deviation,
            "casimir_deviation": self.casimir_deviation,
            "status": self.status,
            "table": {key: [v.real, v.imag] for key, v in sorted(self.table.items())},
        }


def _name_str(name: tuple) -> str:
    return f"{name[0]}[{name[1]},{name[2]}]"


def _canonicity_deviation(pt: OrbitPoint, convention: MinorConvention,
                          step: float) -> tuple[float, float, dict[str, complex]]:
    """Worst table deviation, worst Casimir bracket, and the full table."""
    names, grads = _chart_gradients(pt, convention, step)
    u = pt.u
    N = pt.n
    worst = 0.0
    casimir = 0.0
    table: dict[str, complex] = {}
    chart_names = [nm for nm in names if not (nm[0] == "gamma" and nm[1] == N)]
    casimir_names = [nm for nm in names if nm[0] == "gamma" and nm[1] == N]
    for ia, na in enumerate(chart_names):
        for nb in chart_names[ia:]:
            val = _kk(u, grads[na].T, grads[nb].T)
            table[f"{_name_str(na)}|{_name_str(nb)}"] = val
            expected = 0.0
            if (na[0], nb[0]) == ("theta", "gamma") and na[1:] == nb[1:]:
                expected = 1.0
            if (na[0], nb[0]) == ("gamma", "theta") and na[1:] == nb[1:]:
                expected = -1.0
            worst = max(worst, abs(val - expected))
    for nc in casimir_names:
        for nb in names:
            val = _kk(u, grads[nc].T, grads[nb].T)
            table[f"{_name_str(nc)}|{_name_str(nb)}"] = val
            casimir = max(casimir, abs(val))
    return worst, casimir, table


def verify_canonical_chart(pt: OrbitPoint, tolerance: float = 1e-5,
                           step: float = 1e-5,
                           convention: MinorConvention | None = None) -> ChartCanonicityReport:
    """Check {theta, gamma} = delta etc. in the oracle; sweep the minor convention.

    When no convention is supplied all four orientation/sign variants are
    tried; the first one whose full bracket table is canonical within
    tolerance wins.  The minor's sign shifts theta by i*pi and cannot move
    any bracket, so sign twins always score identically.
    """
    if convention is not None:
        sweep = [convention]
    else:
        sweep = [MinorConvention(rv, sg) for rv in (True, False) for sg in (1, -1)]
    cache: dict[bool, tuple[float, float, dict]] = {}
    variants = []
    winner = None
    win = None
    for conv in sweep:
        if conv.rows_variant not in cache:
            cache[conv.rows_variant] = _canonicity_deviation(pt, conv, step)
        dev, cas, table = cache[conv.rows_variant]
        variants.append({"convention": conv.label(),
                         "max_deviation": dev, "casimir_deviation": cas})
        if winner is None and dev < tolerance and cas < tolerance:
            winner = conv
            win = (dev, cas, table)
    if winner is None:
        dev, cas, table = min(cache.values(), key=lambda v: v[0])
        return ChartCanonicityReport(
            n=pt.n, tolerance=tolerance, step=step, variants=variants,
            winner=None, max_deviation=dev, casimir_deviation=cas,
            status="violation", table=table)
    dev, cas, table = win
    return ChartCanonicityReport(
        n=pt.n, tolerance=tolerance, step=step, variants=variants,
        winner=winner.label(), max_deviation=dev,
        casimir_deviation=cas, status="ok", table=table)


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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pairs": self.pairs,
            "tolerance": self.tolerance,
            "variants": self.variants,
            "winner": self.winner,
            "status": self.status,
        }


def _tangent_chart_data(pt: OrbitPoint, xi: np.ndarray, step: float,
                        convention: MinorConvention, base: LevelData) -> dict:
    """Directional derivatives of roots and log-minors along one tangent."""
    u = pt.u
    N = pt.n
    h = step * max(1.0, float(np.linalg.norm(u))) / max(1.0, float(np.linalg.norm(xi)))
    p, m = (level_data(u + sgn * h * xi, convention, base=base) for sgn in (1.0, -1.0))

    def dlog(plus, minus, at, z):
        return (np.polyval(plus, z) - np.polyval(minus, z)) / (2 * h * np.polyval(at, z))

    return {
        "dgamma": [(gp - gm) / (2 * h) for gp, gm in zip(p.gamma, m.gamma)],
        "de": [(ep - em) / (2 * h) for ep, em in zip(p.e, m.e)],
        "la_at_e": [dlog(p.a[n], m.a[n], base.a[n], base.e[n - 1]) for n in range(1, N)],
        "lc_at_gamma": [dlog(p.c[n - 1], m.c[n - 1], base.c[n - 1], base.gamma[n - 1])
                        for n in range(1, N)],
        "la_at_gamma_prev": [dlog(p.a[n], m.a[n], base.a[n], base.gamma[n - 2])
                             for n in range(2, N)],
    }


def residue_form_check(pt: OrbitPoint, pairs: list[tuple[OrbitTangent, OrbitTangent]],
                       tolerance: float = 1e-4, step: float = 1e-6,
                       convention: MinorConvention = DEFAULT_MINOR_CONVENTION) -> ResidueFormReport:
    """Evaluate the contour form of the symplectic structure on tangent pairs.

    The two-form is assembled from residues of dlog C_n ^ dlog A_n (first
    term) and dlog A_{n-1} ^ dlog A_n (second term).  The contour of the
    first term is swept over {zeros of C_n, zeros of A_n} together with
    both signs of the term and of the whole form, and each variant is
    compared against the Kirillov-Kostant value tr(u [x, y]).  Casimir-level
    contributions vanish on orbit tangents and are omitted.
    """
    u = pt.u
    N = pt.n
    base = level_data(u, convention)

    # sign pairs ordered so that ties (term2 vanishing at N=2) resolve to the
    # same variant that wins uniquely for N >= 3
    variant_keys = [(contour, s1, s_all)
                    for contour in ("A", "C")
                    for s1, s_all in ((-1, -1), (1, 1), (-1, 1), (1, -1))]
    deviations = {k: 0.0 for k in variant_keys}

    for tx, ty in pairs:
        xix, xiy = tx.vector(u), ty.vector(u)
        dx = _tangent_chart_data(pt, xix, step, convention, base)
        dy = _tangent_chart_data(pt, xiy, step, convention, base)
        kk_value = _kk(u, ty.x, tx.x)

        t1_c = 0j
        t1_a = 0j
        t2 = 0j
        for n in range(1, N):
            idx = n - 1
            t1_c += np.sum(-dx["de"][idx] * dy["la_at_e"][idx]
                           + dy["de"][idx] * dx["la_at_e"][idx])
            t1_a += np.sum(-dx["lc_at_gamma"][idx] * dy["dgamma"][idx]
                           + dy["lc_at_gamma"][idx] * dx["dgamma"][idx])
        for n in range(2, N):
            idx = n - 2
            t2 += np.sum(-dx["dgamma"][idx] * dy["la_at_gamma_prev"][idx]
                         + dy["dgamma"][idx] * dx["la_at_gamma_prev"][idx])

        for contour, s1, s_all in variant_keys:
            t1 = t1_c if contour == "C" else t1_a
            omega = s_all * (s1 * t1 - t2)
            deviations[(contour, s1, s_all)] = max(
                deviations[(contour, s1, s_all)], abs(omega - kk_value))

    def key_label(k):
        contour, s1, s_all = k
        return f"contour={contour} term1_sign={s1:+d} overall_sign={s_all:+d}"

    variants = [{"variant": key_label(k), "max_deviation": deviations[k]}
                for k in variant_keys]
    matching = [k for k in variant_keys if deviations[k] < tolerance]
    winner = key_label(matching[0]) if matching else None
    return ResidueFormReport(
        n=N, pairs=len(pairs), tolerance=tolerance, variants=variants,
        winner=winner, status="ok" if winner else "violation")
