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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polytools import (
    TrackingError,
    lambda_minor_det,
    match_points,
    min_pairwise_gap,
    principal_charpoly,
    roots_polished,
    sort_points,
)

__all__ = [
    "OrbitError", "SingularChartError", "RetryExhaustedError", "TrackingError",
    "MinorConvention", "DEFAULT_MINOR_CONVENTION", "OrbitPoint", "GZChart",
    "OrbitTangent", "sample_orbit", "random_spectrum", "regularity_margin",
    "lowering_minor_coeffs", "gz_forward", "chart_residuals", "kk_bracket",
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


def regularity_margin(u: np.ndarray) -> float:
    """Smallest root separation within and between consecutive A_n."""
    n = u.shape[0]
    margin = np.inf
    prev_roots = None
    for k in range(1, n + 1):
        roots = roots_polished(principal_charpoly(u, k))
        margin = min(margin, min_pairwise_gap(roots))
        if prev_roots is not None and len(prev_roots):
            margin = min(margin, min(abs(a - b) for a in roots for b in prev_roots))
        prev_roots = roots
    return float(margin)


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
    RetryExhaustedError if the budget runs out, and OrbitError if u or its
    characteristic minors leave floating-point range (a finite but huge
    spectrum).
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
            finite = np.isfinite(u).all() and all(
                np.isfinite(principal_charpoly(u, k)).all() for k in range(1, n + 1))
        if not finite:
            raise OrbitError("spectrum too large: u or its characteristic minors "
                             "leave floating-point range")
        if regularity_margin(u) >= gap:
            return OrbitPoint(u=u, spectrum=sort_points(spectrum))
    raise RetryExhaustedError(f"no regular point after {retries} draws")


# ---------------------------------------------------------------------------
# the Gelfand-Zetlin chart
# ---------------------------------------------------------------------------

def lowering_minor_coeffs(u: np.ndarray, n: int,
                          convention: MinorConvention = DEFAULT_MINOR_CONVENTION) -> np.ndarray:
    """Coefficients of C_n(lam) for one level, degree n-1 in lam (0-based u)."""
    N = u.shape[0]
    if n >= N:
        raise ValueError("the lowering minor needs row/column n+1")
    if convention.rows_variant:
        rows = list(range(n - 1)) + [n]
        cols = list(range(n))
    else:
        rows = list(range(n))
        cols = list(range(n - 1)) + [n]
    return convention.sign * lambda_minor_det(u, rows, cols)


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
    u = pt.u
    N = pt.n
    gammas: list[np.ndarray] = []
    acoeffs: list[np.ndarray] = [np.array([1.0 + 0j])]  # A_0 = 1
    for n in range(1, N + 1):
        coeffs = principal_charpoly(u, n)
        acoeffs.append(coeffs)
        gammas.append(sort_points(roots_polished(coeffs)))
    thetas: list[np.ndarray] = []
    if compute_theta:
        for n in range(1, N):
            c_coeffs = lowering_minor_coeffs(u, n, convention)
            level = np.zeros(n, dtype=complex)
            for j, g in enumerate(gammas[n - 1]):
                cval = np.polyval(c_coeffs, g)
                aval = np.polyval(acoeffs[n - 1], g)
                if abs(cval) < floor or abs(aval) < floor:
                    raise SingularChartError(
                        f"level {n} angle denominators below {floor}")
                level[j] = np.log(-cval / aval)
            thetas.append(level)
    return GZChart(gamma=gammas, theta=thetas, convention=convention)


def chart_residuals(chart: GZChart, pt: OrbitPoint) -> tuple[float, float]:
    """Self-consistency residuals of the chart against the minors of u.

    Returns (max |poly(gamma) - A_n| coefficientwise,
             max |C_n(gamma) + A_{n-1}(gamma) e^theta|).
    """
    u = pt.u
    res_a = 0.0
    for n in range(1, pt.n + 1):
        rebuilt = np.poly(chart.gamma[n - 1]) if n > 0 else np.array([1.0])
        res_a = max(res_a, float(np.max(np.abs(rebuilt - principal_charpoly(u, n)))))
    res_c = 0.0
    for n in range(1, pt.n):
        c_coeffs = lowering_minor_coeffs(u, n, chart.convention)
        a_prev = principal_charpoly(u, n - 1) if n > 1 else np.array([1.0 + 0j])
        for j, g in enumerate(chart.gamma[n - 1]):
            lhs = np.polyval(c_coeffs, g)
            rhs = -np.polyval(a_prev, g) * np.exp(chart.theta[n - 1][j])
            res_c = max(res_c, abs(lhs - rhs))
    return res_a, res_c


def _matched_chart_values(u: np.ndarray, base: GZChart,
                          convention: MinorConvention,
                          collision_dist: float) -> dict[tuple, complex]:
    """Chart functions at a nearby u, tracked against the base chart."""
    N = base.n
    out: dict[tuple, complex] = {}
    acoeffs = [np.array([1.0 + 0j])]
    matched_gammas = []
    for n in range(1, N + 1):
        coeffs = principal_charpoly(u, n)
        acoeffs.append(coeffs)
        roots = match_points(base.gamma[n - 1], roots_polished(coeffs),
                             collision_dist=collision_dist)
        matched_gammas.append(roots)
        for j, g in enumerate(roots):
            out[("gamma", n, j + 1)] = g
    for n in range(1, N):
        c_coeffs = lowering_minor_coeffs(u, n, convention)
        for j, g in enumerate(matched_gammas[n - 1]):
            val = np.log(-np.polyval(c_coeffs, g) / np.polyval(acoeffs[n - 1], g))
            ref = base.theta[n - 1][j]
            # branch continuity: shift by the multiple of 2*pi*i nearest the base
            k = np.round((ref - val).imag / (2.0 * np.pi))
            out[("theta", n, j + 1)] = val + 2j * np.pi * k
    return out


def _numeric_gradient(f: Callable[[np.ndarray], complex], u: np.ndarray,
                      step: float) -> np.ndarray:
    n = u.shape[0]
    grad = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            h = step * max(1.0, abs(u[a, b]))
            up, um = u.copy(), u.copy()
            up[a, b] += h
            um[a, b] -= h
            grad[a, b] = (f(up) - f(um)) / (2.0 * h)
    if not np.all(np.isfinite(grad)):
        raise ArithmeticError("non-finite derivative encountered")
    return grad


def kk_bracket(f: Callable[[np.ndarray], complex],
               h: Callable[[np.ndarray], complex],
               u: np.ndarray, step: float = 1e-5) -> complex:
    """Kirillov-Kostant bracket {f, h}(u) = tr(u [grad h, grad f])."""
    gf = _numeric_gradient(f, u, step).T
    gh = _numeric_gradient(h, u, step).T
    return complex(np.trace(u @ (gh @ gf - gf @ gh)))


def _chart_gradients(pt: OrbitPoint, convention: MinorConvention,
                     step: float) -> tuple[list[tuple], dict[tuple, np.ndarray]]:
    """Gradients of every chart function with respect to the entries of u."""
    base = gz_forward(pt, convention=convention)
    u = pt.u
    N = pt.n
    collision = 10.0 * step
    names = [("gamma", n, j + 1) for n in range(1, N + 1) for j in range(n)]
    names += [("theta", n, j + 1) for n in range(1, N) for j in range(n)]
    grads = {name: np.zeros((N, N), dtype=complex) for name in names}
    for a in range(N):
        for b in range(N):
            h = step * max(1.0, abs(u[a, b]))
            vals = []
            for sgn in (1.0, -1.0):
                u2 = u.copy()
                u2[a, b] += sgn * h
                vals.append(_matched_chart_values(u2, base, convention, collision))
            for name in names:
                grads[name][a, b] = (vals[0][name] - vals[1][name]) / (2.0 * h)
    return names, grads


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

    def kk(na, nb):
        gf = grads[na].T
        gh = grads[nb].T
        return complex(np.trace(u @ (gh @ gf - gf @ gh)))

    worst = 0.0
    casimir = 0.0
    table: dict[str, complex] = {}
    chart_names = [nm for nm in names if not (nm[0] == "gamma" and nm[1] == N)]
    casimir_names = [nm for nm in names if nm[0] == "gamma" and nm[1] == N]
    for ia, na in enumerate(chart_names):
        for nb in chart_names[ia:]:
            val = kk(na, nb)
            table[f"{_name_str(na)}|{_name_str(nb)}"] = val
            expected = 0.0
            if (na[0], nb[0]) == ("theta", "gamma") and na[1:] == nb[1:]:
                expected = 1.0
            if (na[0], nb[0]) == ("gamma", "theta") and na[1:] == nb[1:]:
                expected = -1.0
            worst = max(worst, abs(val - expected))
    for nc in casimir_names:
        for nb in names:
            val = kk(nc, nb)
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
                        convention: MinorConvention,
                        base_gammas, base_es, base_a, base_c) -> dict:
    """Directional derivatives of roots and log-minors along one tangent."""
    u = pt.u
    N = pt.n
    h = step * max(1.0, float(np.linalg.norm(u))) / max(1.0, float(np.linalg.norm(xi)))
    sides = []
    for sgn in (1.0, -1.0):
        u2 = u + sgn * h * xi
        a = [np.array([1.0 + 0j])] + [principal_charpoly(u2, n) for n in range(1, N + 1)]
        c = [lowering_minor_coeffs(u2, n, convention) for n in range(1, N)]
        gam = [match_points(base_gammas[n - 1], roots_polished(a[n]))
               for n in range(1, N + 1)]
        es = [match_points(base_es[n - 1], roots_polished(c[n - 1]))
              for n in range(1, N)]
        sides.append((a, c, gam, es))
    (ap, cp, gp, ep), (am, cm, gm, em) = sides

    dgamma = [(gp[n] - gm[n]) / (2 * h) for n in range(N)]
    de = [(ep[n] - em[n]) / (2 * h) for n in range(N - 1)]

    def dlog_a(n, lam_points):
        return np.array([(np.polyval(ap[n], z) - np.polyval(am[n], z))
                         / (2 * h * np.polyval(base_a[n], z)) for z in lam_points])

    def dlog_c(n, lam_points):
        return np.array([(np.polyval(cp[n - 1], z) - np.polyval(cm[n - 1], z))
                         / (2 * h * np.polyval(base_c[n - 1], z)) for z in lam_points])

    data = {"dgamma": dgamma, "de": de}
    data["la_at_e"] = [dlog_a(n, base_es[n - 1]) for n in range(1, N)]
    data["lc_at_gamma"] = [dlog_c(n, base_gammas[n - 1]) for n in range(1, N)]
    data["la_at_gamma_prev"] = [dlog_a(n, base_gammas[n - 2]) for n in range(2, N)]
    return data


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
    base_gammas = []
    base_a = [np.array([1.0 + 0j])]
    base_c = []
    for n in range(1, N + 1):
        coeffs = principal_charpoly(u, n)
        base_a.append(coeffs)
        base_gammas.append(sort_points(roots_polished(coeffs)))
    base_es = []
    for n in range(1, N):
        cc = lowering_minor_coeffs(u, n, convention)
        base_c.append(cc)
        base_es.append(sort_points(roots_polished(cc)))

    # sign pairs ordered so that ties (term2 vanishing at N=2) resolve to the
    # same variant that wins uniquely for N >= 3
    variant_keys = [(contour, s1, s_all)
                    for contour in ("A", "C")
                    for s1, s_all in ((-1, -1), (1, 1), (-1, 1), (1, -1))]
    deviations = {k: 0.0 for k in variant_keys}

    for tx, ty in pairs:
        xix, xiy = tx.vector(u), ty.vector(u)
        dx = _tangent_chart_data(pt, xix, step, convention,
                                 base_gammas, base_es, base_a, base_c)
        dy = _tangent_chart_data(pt, xiy, step, convention,
                                 base_gammas, base_es, base_a, base_c)
        kk_value = complex(np.trace(u @ (tx.x @ ty.x - ty.x @ tx.x)))

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
