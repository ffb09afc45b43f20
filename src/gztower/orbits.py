"""Numerical geometry of generic coadjoint orbits of gl_N.

An orbit point is a complex matrix u with fixed simple spectrum.  The chart
functions are built from the nested principal characteristic polynomials

    A_n(lam) = det(lam - u)[1..n, 1..n],     gamma[n,j] = eigenvalues of u_n,

u_n the top-left n x n block, together with the lowering minors

    C_n(lam) = det of (lam - u) on rows {1..n-1, n+1} x columns {1..n}

(the transposed minor, on columns {1..n-1, n+1}, is only the negative
control of the canonicity sweep).  The last row and column of C_n
carry no lam, so C_n = lead det(lam - K_n), with lead = -u[n+1, n] and K_n
the (n-1) x (n-1) Schur complement of that entry: its zeros e[n,i] are the
eigenvalues of K_n.  The angles are

    theta[n,j] = log( -C_n(gamma[n,j]) / A_{n-1}(gamma[n,j]) ),

principal branch, with C_n = lead prod(lam - e) and A_(n-1) = prod(lam -
gamma[n-1]): no monomial coefficient enters a root or an angle.  The checks
differentiate them in closed form (root perturbation from null vectors,
Jacobi's formula for log-minors) and pair the gradients in the Lie-Poisson /
Kirillov-Kostant bracket

    {f, h}(u) = tr( u [grad h, grad f] ),   (grad F)[i,j] = dF/du[j,i],

whose restriction of the matrix-entry relations is
{u[i,j], u[k,l]} = d(j,k) u[i,l] - d(l,i) u[k,j], matching the exact
symbolic algebra in :mod:`gztower.poisson`.
"""

from __future__ import annotations

import collections
import functools
from typing import Callable, NamedTuple

import numpy as np

from .polytools import (
    TrackingError,
    lambda_minor_det,
    match_points,
    min_pairwise_gap,
    sort_points,
)

__all__ = [
    "OrbitError", "SingularChartError", "RetryExhaustedError", "TrackingError",
    "OrbitPoint", "GZChart",
    "OrbitTangent", "LevelData", "level_data",
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


_REGULARITY_GAP = 1e-6      # the smallest regularity margin of an orbit point
_SPECTRUM_TOL = 1e-10       # its eigenvalues' largest distance from a declared spectrum
_ANGLE_FLOOR = 1e-12        # the smallest |C_n(gamma)| and |A_(n-1)(gamma)| of an angle
_SPECTRUM_GAP = 0.35        # random_spectrum: the smallest pairwise gap,
_SPECTRUM_BOX = 1.5         # and the box [-b, b]^2 of the values
_COND_CAP = 1e6             # sample_orbit: the largest condition number of h,
_DRAWS = 100                # and the draws of h before it gives up


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _pair(z: complex) -> list[float]:
    """A complex value as its JSON [re, im] pair."""
    return [z.real, z.imag]


def _pairs(values) -> list[list[float]]:
    """Complex values, a sequence or an array read in order, as [re, im] pairs."""
    return [_pair(z) for z in np.asarray(values, dtype=complex).ravel().tolist()]


_LARGEST = 5                # the entries a report's table summary lists


def _summary(names: list[str], values: np.ndarray, devs: np.ndarray,
             reported: np.ndarray, graded: np.ndarray) -> dict:
    """A report's bracket table values[reported] in fixed size, its entry
    values[a, b] named "<names[a]>|<names[b]>" and graded by devs where
    graded (a part of reported) holds: {"size", "graded"} counts;
    "largest", the _LARGEST graded entries {"entry", "value": [re, im],
    "deviation"} of largest devs, NaN first, ties in table (row-major)
    order; and "decades", the graded devs counted by floor(log10(d)) in
    increasing order ("inf" for an infinite d), then "zero" and "nan"
    counts, which are always there."""
    flat = np.flatnonzero(graded)
    d = devs.ravel()[flat]
    nan = np.isnan(d)
    n = len(names)
    # lexsort is stable, and sorts the NaNs of -d last among the NaN rows
    largest = [{"entry": f"{names[i // n]}|{names[i % n]}", "value": _pair(values.item(i)),
                "deviation": devs.item(i)}
               for i in flat[np.lexsort((-d, ~nan))[:_LARGEST]].tolist()]
    positive = d[d > 0]
    counts = collections.Counter(np.floor(np.log10(positive)).tolist())
    decades = {"inf" if x == np.inf else str(int(x)): counts[x] for x in sorted(counts)}
    nans = int(np.count_nonzero(nan))
    # a deviation is positive, zero or NaN
    decades.update(zero=len(d) - len(positive) - nans, nan=nans)
    return {"size": int(np.count_nonzero(reported)), "graded": len(d), "largest": largest,
            "decades": decades}


def _worst(**summaries: dict) -> dict:
    """A section's witness {"table", "entry", "deviation"}: of the tables'
    largest entries, in order, the first NaN one, else the first of largest
    deviation; with no graded entry, no table and deviation 0.0."""
    def rank(item):
        d = item[1]["deviation"]
        return (0, 0.0) if d != d else (1, -d)      # NaN first

    tops = [(key, s["largest"][0]) for key, s in summaries.items() if s["largest"]]
    # min keeps the first of equal ranks
    key, top = min(tops, key=rank, default=(None, {"entry": None, "deviation": 0.0}))
    return {"table": key, "entry": top["entry"], "deviation": top["deviation"]}


class OrbitPoint:
    """Matrix on a fixed-spectrum coadjoint orbit (validation in create()).

    u and spectrum are read-only copies, and assigning to any attribute
    raises AttributeError.  The point memoizes what the checks compute from
    u: levels, punctures, divisors and a_at_gamma; c_at_gamma per
    orientation of C_n; and, in tower, the default base point and the
    TowerDescriptor per lam0.  Each entry is a pure function of u, built by
    a method of the point on first use, with read-only arrays, never changed
    once stored, and holds no reference to the point, so the memo makes no
    reference cycle and goes with its point.
    """

    __slots__ = ("u", "spectrum", "_memo", "__weakref__")

    def __init__(self, u: np.ndarray, spectrum: np.ndarray):
        for name, value in (("u", u), ("spectrum", spectrum)):
            copy = np.array(value)
            _read_only(copy)
            object.__setattr__(self, name, copy)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def _memoized(self, key, build: Callable):
        """The memo entry for key, from build() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, build())

    def margin(self) -> float:
        """regularity_margin(u), from the memoized level data."""
        return _margin(self.levels().gamma)

    def levels(self) -> LevelData:
        """level_data(u), once per point."""
        def build():
            lv = level_data(self.u)
            _read_only(*lv.a, *lv.gamma, *lv.c, *lv.e)
            return lv
        return self._memoized("levels", build)

    def punctures(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """_root_gradients of A_1..A_N at their roots levels().gamma:
        ([gradient stack (n, N, N)], [root conditions]), once per point."""
        def build():
            minors = _level_minors(self.n)[:self.n]
            grads, conds = _root_gradients(self.u, minors, self.levels().gamma)
            _read_only(*grads, *conds)
            return grads, conds
        return self._memoized("punctures", build)

    def c_at_gamma(self, rows: bool = True) -> list[tuple[np.ndarray, np.ndarray]]:
        """_log_minors of C_1..C_(N-1) (rows False: the transposed minors) at
        the roots of A_1..A_(N-1), which theta and the residue form read,
        once per point and orientation."""
        return self._memoized(("c_at_gamma", rows), lambda: _log_minors(
            self.u, _level_minors(self.n, rows)[self.n:], self.levels().gamma))

    def a_at_gamma(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """_log_minors of A_1..A_(N-2) at the roots of A_2..A_(N-1), the part
        of theta that C_n's orientation does not change, once per point."""
        return self._memoized("a_at_gamma", lambda: _log_minors(
            self.u, _level_minors(self.n)[:self.n - 2], self.levels().gamma[1:]))

    def divisors(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """_root_gradients of C_1..C_(N-1) at their roots levels().e:
        ([gradient stack (n-1, N, N)], [root conditions]), once per point."""
        def build():
            grads, conds = _root_gradients(self.u, _level_minors(self.n)[self.n:],
                                           self.levels().e)
            _read_only(*grads, *conds)
            return grads, conds
        return self._memoized("divisors", build)

    def conditioning(self) -> dict[str, float | None]:
        """A fresh dict: the smallest |e - gamma| within a level, the smallest
        |gamma_n - gamma_(n+1)| (None without terms), and the largest root
        condition |y| |z| / |y^T P z| of gamma and e."""
        def least_gap(pairs):
            gaps = np.concatenate([np.zeros(0), *(np.abs(np.subtract.outer(a, b)).ravel()
                                                   for a, b in pairs)])
            return float(np.min(gaps)) if len(gaps) else None

        lv = self.levels()
        return {
            "min_divisor_gap": least_gap(zip(lv.e, lv.gamma)),
            "min_level_gap": least_gap(zip(lv.gamma, lv.gamma[1:])),
            "max_root_condition": float(np.max(np.concatenate(
                self.punctures()[1] + self.divisors()[1]))),
        }

    @classmethod
    def create(cls, u, spectrum=None) -> "OrbitPoint":
        """Validate u, regular first; a declared spectrum must match its
        eigenvalues within _SPECTRUM_TOL.  On a regular u they lie at least
        _REGULARITY_GAP apart, so a declared spectrum that close is always a
        certified match_points match, and any other is rejected.  The point
        keeps the level data of the regularity check, whose roots of A_N are
        the eigenvalues."""
        pt = cls(u=np.array(u, dtype=complex), spectrum=np.zeros(0, dtype=complex))
        if pt.margin() < _REGULARITY_GAP:
            raise OrbitError("matrix is not regular for the nested-minor chart")
        eig = pt.levels().gamma[-1]
        if spectrum is not None:
            spectrum = sort_points(np.array(spectrum, dtype=complex))
            try:
                off = np.max(np.abs(match_points(spectrum, eig) - spectrum))
            except TrackingError:
                off = np.inf
            if off > _SPECTRUM_TOL:
                raise OrbitError("matrix spectrum does not match the declared one")
            eig = spectrum
        out = cls(u=pt.u, spectrum=eig)
        out._memo.update(pt._memo)
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "spectrum": _pairs(self.spectrum), "u": _pairs(self.u)}


def regularity_margin(u: np.ndarray) -> float:
    """Smallest root separation within and between consecutive A_n, from
    level_data; raises OrbitError if the minors of u leave floating-point
    range.  OrbitPoint.margin() gives the same number from its memo."""
    return _margin(level_data(np.asarray(u, dtype=complex)).gamma)


def _margin(gamma: list[np.ndarray]) -> float:
    """regularity_margin from the roots gamma of A_1..A_N: the smallest
    min_pairwise_gap of two consecutive levels' roots together."""
    pairs = list(zip(gamma, gamma[1:])) or [gamma]
    return float(min(min_pairwise_gap(np.concatenate(pair)) for pair in pairs))


def random_spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex spectrum with a guaranteed minimal gap."""
    for _ in range(200):
        s = (rng.uniform(-_SPECTRUM_BOX, _SPECTRUM_BOX, n)
             + 1j * rng.uniform(-_SPECTRUM_BOX, _SPECTRUM_BOX, n))
        if min_pairwise_gap(s) >= _SPECTRUM_GAP:
            return s
    raise RetryExhaustedError("could not sample a separated spectrum")


def sample_orbit(spectrum, seed: int | np.random.Generator = 0) -> OrbitPoint:
    """Sample u = h diag(spectrum) h^{-1} with h a random well-conditioned matrix.

    Resamples h until the regularity margin of u clears _REGULARITY_GAP, so
    the point keeps the level data of its last draw; raises
    RetryExhaustedError if the budget runs out, and OrbitError if u or its
    characteristic minors leave floating-point range (a finite but huge
    spectrum).
    """
    spectrum = np.array(spectrum, dtype=complex)
    n = len(spectrum)
    if min_pairwise_gap(spectrum) < _REGULARITY_GAP:
        raise OrbitError("spectrum entries are not separated")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(_DRAWS):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if n > 1 and np.linalg.cond(h) > _COND_CAP:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            u = h @ np.diag(spectrum) @ np.linalg.inv(h)
        if not np.isfinite(u).all():
            raise OrbitError("spectrum too large: u leaves floating-point range")
        pt = OrbitPoint(u=u, spectrum=sort_points(spectrum))
        if pt.margin() >= _REGULARITY_GAP:
            return pt
    raise RetryExhaustedError(f"no regular point after {_DRAWS} draws")


# ---------------------------------------------------------------------------
# the Gelfand-Zetlin chart
# ---------------------------------------------------------------------------

def lowering_minor_coeffs(u: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of C_n(lam) for one level, degree n-1 in lam (0-based u)."""
    if not 1 <= n < u.shape[0]:
        raise ValueError("the lowering minor needs row/column n+1")
    rows, cols = _level_minors(n + 1)[-1]
    return lambda_minor_det(u, rows, cols)


class LevelData(NamedTuple):
    """a[n] = A_n (a[0] = [1]) with roots gamma[n-1], n = 1..N; c[n-1] = C_n
    with roots e[n-1], n = 1..N-1; coefficients highest first, each the
    lead times poly(roots) (see _level_roots)."""

    a: list[np.ndarray]
    gamma: list[np.ndarray]
    c: list[np.ndarray]
    e: list[np.ndarray]


@functools.lru_cache(maxsize=None)
def _level_minors(N: int, rows: bool = True) -> tuple:
    """(rows, cols) of A_1..A_N, then of C_1..C_{N-1}; rows False: the
    transposed C_n, on rows {1..n} x cols {1..n-1, n+1}."""
    out = [(tuple(range(n)),) * 2 for n in range(1, N + 1)]
    for n in range(1, N):
        shifted, plain = tuple(range(n - 1)) + (n,), tuple(range(n))
        out.append((shifted, plain) if rows else (plain, shifted))
    return tuple(out)


def _level_roots(u: np.ndarray) -> tuple:
    """The level-data kernel at one point u: (coeffs, roots) of A_1..A_N,
    then of C_1..C_(N-1), the roots sorted.

    gamma[n] are the eigenvalues of u_n.  The last row and column of C_n
    carry no lam, and meet at the pivot p = u[n, n-1] (0-based), so
    C_n = -p det(lam - K_n) with the Schur complement
    K_n = u_(n-1) - outer(u[:n-1, n-1], u[n, :n-1]) / p, and e[n] are the
    eigenvalues of K_n.  u_s and K_(s+1) share one stacked eigvals per block
    size s.  The coefficients are A_n = _monic(gamma[n]) and
    C_n = -p _monic(e[n]).  A zero pivot has no K_n: its e-points are NaN,
    and its C_n a 0 followed by NaN.  Raises OrbitError when u, a root or a
    coefficient leaves floating-point range.
    """
    N = u.shape[0]
    n = np.arange(1, N)
    pivot = u[n, n - 1]
    with np.errstate(all="ignore"):
        K = [u[:m - 1, :m - 1] - np.outer(u[:m - 1, m - 1], u[m, :m - 1]) / (p if p else 1.0)
             for m, p in zip(n, pivot)]
    _check_range([u, *K])
    gamma, e = [], [np.zeros(0, dtype=complex)][:N - 1]      # C_1 has no e-point
    for s in range(1, N + 1):
        roots = np.linalg.eigvals(np.array([u[:s, :s]] + K[s:s + 1]))
        gamma.append(roots[0])
        e += [roots[-1]] if s + 1 < N else []
    roots = [sort_points(x) for x in gamma + e]
    with np.errstate(all="ignore"):
        coeffs = [_monic(x) for x in roots]
        coeffs[N:] = [-p * x for p, x in zip(pivot, coeffs[N:])]
    _check_range(coeffs + roots)
    for m in np.flatnonzero(pivot == 0) + N:
        roots[m][:], coeffs[m][1:] = np.nan, np.nan
    return coeffs, roots


def _monic(roots: np.ndarray) -> np.ndarray:
    """The coefficients of prod(lam - r) over the roots on the last axis,
    highest first, one row per leading index."""
    c = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    c[..., 0] = 1.0
    for k in range(1, roots.shape[-1] + 1):
        c[..., 1:k + 1] = c[..., 1:k + 1] - roots[..., k - 1, None] * c[..., :k]
    return c


def _check_range(arrays) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise OrbitError("spectrum too large: the characteristic minors of u "
                         "leave floating-point range")


def level_data(u: np.ndarray) -> LevelData:
    """A_1..A_N and C_1..C_{N-1} with their roots, sorted, from _level_roots.
    Raises OrbitError when u or its level data leave floating-point range."""
    N = u.shape[0]
    coeffs, roots = _level_roots(np.asarray(u, dtype=complex))
    return LevelData(a=[np.ones(1, dtype=complex)] + coeffs[:N], gamma=roots[:N],
                     c=coeffs[N:], e=roots[N:])


class GZChart(NamedTuple):
    """Triangular arrays gamma[n][j] (n = 1..N) and theta[n][j] (n = 1..N-1)."""

    gamma: list[np.ndarray]
    theta: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.gamma)

    def to_json(self) -> dict:
        data = {key: [_pairs(a) for a in arrays] for key, arrays in self._asdict().items()}
        return dict(data, n=self.n, minor_convention="rows")


def gz_forward(pt: OrbitPoint) -> GZChart:
    """Forward chart map: roots of the nested minors plus the log angles.

    Assumes a regular point (sampled points are; hand-built ones may fail
    with SingularChartError when a denominator degenerates, and then
    pt.levels().gamma still holds the roots).
    """
    lv = pt.levels()
    thetas: list[np.ndarray] = []
    for n, (cval, aval) in enumerate(zip(*_at_punctures(lv)), start=1):
        # not >=: the NaN of a zero pivot is singular too
        if not min(np.min(np.abs(cval)), np.min(np.abs(aval))) >= _ANGLE_FLOOR:
            raise SingularChartError(f"level {n} angle denominators below {_ANGLE_FLOOR}")
        thetas.append(np.log(-cval / aval))
    return GZChart(gamma=list(lv.gamma), theta=thetas)


def _at_punctures(lv: LevelData) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """C_n(gamma[n]) = lead C_n prod(gamma[n] - e[n]) and A_(n-1)(gamma[n]) =
    prod(gamma[n] - gamma[n-1]), n = 1..N-1, from the roots."""
    prod = lambda x, roots: np.prod(np.subtract.outer(x, roots), axis=1)
    prev = [np.zeros(0, dtype=complex)] + lv.gamma
    return ([c[0] * prod(g, e) for g, c, e in zip(lv.gamma, lv.c, lv.e)],
            [prod(g, p) for g, p in zip(lv.gamma, prev[:len(lv.c)])])


def _minor_at(u: np.ndarray, minor: tuple, lams: np.ndarray) -> np.ndarray:
    """det(lam P - S) of a minor at each lam, in one stacked det; for a stack
    u (B, N, N), one row per point."""
    P, index = _minor_index(*minor)
    return np.linalg.det(lams[:, None, None] * P - u[(..., *index)][..., None, :, :])


def _root_residuals(u: np.ndarray, gamma: list[np.ndarray]) -> list[float]:
    """Per level n, the largest backward residual sigma_min(g - u_n) / |u_n|_2
    (|u_n|_2 read as 1 when u_n = 0) of the punctures g = gamma[n-1]: zero
    for exact eigenvalues of u_n, however they were found."""
    out = []
    for n, g in enumerate(gamma, start=1):
        un = u[:n, :n]
        sv = np.linalg.svd(g[:, None, None] * np.eye(n) - un, compute_uv=False)
        out.append(float(np.max(sv[:, -1])) / (np.linalg.norm(un, 2) or 1.0))
    return out


def chart_residuals(chart: GZChart, pt: OrbitPoint) -> tuple[float, float]:
    """Residuals of the chart against u, independent of its level data.

    Returns (the largest backward residual of a puncture (_root_residuals),
             max |C_n(gamma) + A_{n-1}(gamma) e^theta|, with C_n and
             A_(n-1) direct determinants at the punctures, each level
             divided by max(1, max|C_n(gamma)|)).
    The second one checks theta, and with it the e-points and the lead of
    C_n it was taken from.
    """
    N = pt.n
    minors = _level_minors(N)
    res_c = []
    for n, (g, theta) in enumerate(zip(chart.gamma, chart.theta), start=1):
        lhs = _minor_at(pt.u, minors[N + n - 1], g)
        rhs = -(_minor_at(pt.u, minors[n - 2], g) if n >= 2 else 1.0) * np.exp(theta)
        res_c.append(float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(lhs)))))
    # np.max keeps a NaN residual (max() would drop it), so a NaN angle fails
    return max(_root_residuals(pt.u, chart.gamma)), float(np.max(res_c, initial=0.0))


def kk_bracket(f: Callable[[np.ndarray], complex],
               h: Callable[[np.ndarray], complex],
               u: np.ndarray, step: float = 1e-5) -> complex:
    """Kirillov-Kostant bracket {f, h}(u) = tr(u [grad h, grad f]).

    The generic oracle: the central_gradient of f and h in u, transposed.
    """
    # imported here, so orbit and flow processes never load the exact algebra
    from .poisson import central_gradient

    def both(flat, k):
        v = np.reshape(flat, u.shape)
        return f(v), h(v)

    grads = np.array(central_gradient(both, u.ravel().tolist(), step)).reshape(u.shape + (2,))
    return _kk(u, grads[..., 0].T, grads[..., 1].T)


def _kk(u: np.ndarray, gf: np.ndarray, gh: np.ndarray) -> complex:
    """{f, h}(u) = tr(u [gh, gf]) from gf, gh with [i,j] = dF/du[j,i]."""
    return complex(np.trace(u @ (gh @ gf - gf @ gh)))


# ---------------------------------------------------------------------------
# closed-form derivatives of the chart functions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _minor_index(rows: tuple, cols: tuple) -> tuple[np.ndarray, tuple]:
    """P = [rows == cols] and the np.ix_ index of the block rows x cols of a
    minor, read-only, once per minor."""
    P, index = np.equal.outer(rows, cols), np.ix_(rows, cols)
    _read_only(P, *index)
    return P, index


def _minor_gradients(u: np.ndarray, minor: tuple, lams: np.ndarray,
                     roots: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gradients [a, b] = d/du[a, b] tied to the minor det(lam P - S) at each lam.

    P = [rows == cols] and S = u[rows, cols], as in lambda_minor_det.
    roots=False: d log det at fixed lam, by Jacobi's formula
    d log det M = tr(M^-1 dM) with dM = -du[rows, cols],
    and d/dlam log det = tr(M^-1 P).  roots=True: the lams are simple roots
    r; M = r P - S has right and left null vectors z, y (its smallest
    singular pair), adj M is proportional to z y^T, and det M = 0 gives
    dr = y^T dS z / (y^T P z) (for a puncture, P = 1 and S = u_n, z and y
    are the right and left eigenvectors), with condition
    |y| |z| / |y^T P z| = 1 / |y^T P z|.
    """
    P, index = _minor_index(*minor)
    M = lams[:, None, None] * P - u[index]
    if roots:
        # the NaN e-points of a zero pivot get NaN gradients and conditions
        finite = np.isfinite(lams)
        left, _, right = np.linalg.svd(np.where(finite[:, None, None], M, 0.0))
        y, z = left[:, :, -1].conj(), right[:, -1, :].conj()
        den = np.where(finite, np.einsum("ki,ij,kj->k", y, P, z), np.nan)
        block, extra = y[:, :, None] * z[:, None, :] / den[:, None, None], 1.0 / np.abs(den)
    else:
        inv = np.linalg.inv(M)
        block, extra = -inv.transpose(0, 2, 1), np.einsum("kij,ji->k", inv, P)
    grads = np.zeros((len(lams), *u.shape), dtype=complex)
    grads[(slice(None), *index)] = block
    return grads, extra


def _root_gradients(u: np.ndarray, minors: tuple, roots: list[np.ndarray]) -> tuple:
    """([gradient stack], [root conditions]) of each minor at its roots."""
    pairs = [_minor_gradients(u, m, r, roots=True) for m, r in zip(minors, roots)]
    return [grads for grads, _ in pairs], [conds for _, conds in pairs]


def _log_minors(u: np.ndarray, minors: tuple, lams: list[np.ndarray]) -> list[tuple]:
    """The read-only log-minor gradients (roots=False) of each minor at its lams."""
    out = [_minor_gradients(u, m, x, roots=False) for m, x in zip(minors, lams)]
    _read_only(*(a for pair in out for a in pair))
    return out


def _theta_gradients(pt: OrbitPoint, rows: bool = True) -> list[np.ndarray]:
    """d theta[n, j], n = 1..N-1, theta = log(-C_n(gamma) / A_(n-1)(gamma))
    (rows False: with the transposed C_n): each log-minor at fixed lam plus
    its lam-derivative times d gamma, from the point's memo."""
    dgamma, c, a = pt.punctures()[0], pt.c_at_gamma(rows), pt.a_at_gamma()
    out = []
    for n in range(1, pt.n):
        dg = dgamma[n - 1]
        dlog, dlam = c[n - 1]
        grad = dlog + dlam[:, None, None] * dg
        if n >= 2:
            dlog, dlam = a[n - 2]
            grad -= dlog + dlam[:, None, None] * dg
        out.append(grad)
    return out


# ---------------------------------------------------------------------------
# chart canonicity
# ---------------------------------------------------------------------------

class ChartCanonicityReport(NamedTuple):
    n: int
    tolerance: float
    variants: list[dict]
    winner: str | None
    max_deviation: float
    casimir_deviation: float
    status: str
    table: np.ndarray                  # kk, over the chart functions of _chart_layout
    conditioning: dict[str, float | None]

    def to_json(self) -> dict:
        names, pattern, reported = _chart_layout(self.n)
        table = _summary(names, self.table, np.abs(self.table - pattern), reported, reported)
        return dict(self._asdict(), derivatives="analytic", table=table, worst=_worst(table=table))


@functools.lru_cache(maxsize=None)
def _chart_layout(N: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The chart functions' names (G gammas, G - N thetas), canonical brackets
    and reported entries, read-only: each pair a <= b of chart functions (kk
    is antisymmetric) and each Casimir gamma[N, j] with every function."""
    G = N * (N + 1) // 2
    names = [f"gamma[{n},{j}]" for n in range(1, N + 1) for j in range(1, n + 1)]
    names += [f"theta[{n},{j}]" for n in range(1, N) for j in range(1, n + 1)]
    pattern = np.eye(len(names), k=-G) - np.eye(len(names), k=G)
    reported = np.triu(np.ones(pattern.shape, dtype=bool))
    reported[:, G - N:G], reported[G - N:G] = False, True
    _read_only(pattern, reported)
    return names, pattern, reported


def _canonicity_deviation(pt: OrbitPoint, rows: bool):
    """Worst table deviation, worst Casimir bracket, and the bracket matrix
    kk of the chart functions, from the gradients of gamma and theta alone
    (rows False: the theta of the transposed C_n)."""
    u, N = pt.u, pt.n
    grads = np.concatenate(pt.punctures()[0] + _theta_gradients(pt, rows)
                           ).transpose(0, 2, 1)
    F = len(grads)
    # {F_a, F_b} = tr(u [G_b, G_a]) = T[b, a] - T[a, b], T[a, b] = tr(u G_a G_b),
    # one BLAS product of the flattened u G_a and G_b^T
    T = (u @ grads).reshape(F, -1) @ grads.transpose(0, 2, 1).reshape(F, -1).T
    kk = T.T - T
    _, pattern, reported = _chart_layout(N)
    dev = np.where(reported, np.abs(kk - pattern), -np.inf)
    top = slice(N * (N - 1) // 2, N * (N + 1) // 2)     # the Casimirs' rows
    casimir, dev[top] = float(np.max(dev[top], initial=0.0)), -np.inf
    return float(np.max(dev, initial=0.0)), casimir, kk


def verify_canonical_chart(pt: OrbitPoint, tolerance: float = 1e-5) -> ChartCanonicityReport:
    """Check {theta, gamma} = delta etc. in the oracle, with a negative control.

    The chart's rows orientation of C_n is graded: the report is ok, with
    winner "rows", exactly when its full bracket table is canonical within
    tolerance, and its table and conditioning are reported either way.  The
    transposed (cols) orientation is only reported, as the control: at a
    puncture gamma of A_n the Desnanot-Jacobi identity on gamma - u_(n+1)
    gives C^rows_n C^cols_n = -A_(n+1) A_(n-1), so its theta is minus the
    rows theta plus a function of gamma, and its {theta, gamma} brackets
    read -1 where +1 is due.  Each deviation needs the gradients of gamma
    and theta alone, so the sweep finds no root of a cols C_n.  Raises
    ValueError at N < 2, where the table holds no pair of chart functions.
    """
    if pt.n < 2:
        raise ValueError(f"N = {pt.n} has no angle to check")
    results = {label: _canonicity_deviation(pt, label == "rows") for label in ("rows", "cols")}
    variants = [{"convention": label, "max_deviation": dev, "casimir_deviation": cas}
                for label, (dev, cas, _) in results.items()]
    dev, cas, kk = results["rows"]
    ok = dev <= tolerance and cas <= tolerance
    return ChartCanonicityReport(
        n=pt.n, tolerance=tolerance, variants=variants, winner="rows" if ok else None,
        max_deviation=dev, casimir_deviation=cas, status="ok" if ok else "violation",
        table=kk, conditioning=pt.conditioning())


# ---------------------------------------------------------------------------
# the contour/residue representation of the symplectic form
# ---------------------------------------------------------------------------

class OrbitTangent(NamedTuple):
    """Tangent direction [x, u] at an orbit point, stored through x."""

    x: np.ndarray

    def vector(self, u: np.ndarray) -> np.ndarray:
        return self.x @ u - u @ self.x


class ResidueFormReport(NamedTuple):
    n: int
    pairs: int
    tolerance: float
    variants: list[dict]
    winner: str | None
    status: str

    def to_json(self) -> dict:
        return dict(self._asdict(), derivatives="analytic")


def _pair_values(u: np.ndarray, pairs: list[tuple[OrbitTangent, OrbitTangent]]) -> tuple:
    """The tangents [x, u] of every pair's two directions in turn, one flat
    row each, and each pair's Kirillov-Kostant value tr(u [x, y]): what
    OrbitTangent.vector and _kk(u, y, x) give, from one stacked product each."""
    xs = np.array([t.x for pair in pairs for t in pair])
    x, y = xs[0::2], xs[1::2]
    return ((xs @ u - u @ xs).reshape(len(xs), -1),
            np.trace(u @ (x @ y - y @ x), axis1=1, axis2=2))


def residue_form_check(pt: OrbitPoint, pairs: list[tuple[OrbitTangent, OrbitTangent]],
                       tolerance: float = 1e-4) -> ResidueFormReport:
    """Evaluate the contour form of the symplectic structure on tangent pairs.

    The two-form is assembled from residues of dlog C_n ^ dlog A_n (first
    term) and dlog A_{n-1} ^ dlog A_n (second term).  The paper's form takes
    the first term around the zeros of A_n, omega = term1_A + term2, and is
    graded: the report is ok, with that variant the winner, exactly when it
    matches the Kirillov-Kostant value tr(u [x, y]) within tolerance on every
    pair.  The same form taken around the zeros of C_n is only reported, as
    the control.  Casimir-level contributions vanish on orbit tangents and
    are omitted.  Every directional derivative is a closed-form gradient
    contracted with the tangent [x, u].  Raises ValueError at N < 2, where
    the form has no term, and without pairs.
    """
    if pt.n < 2 or not pairs:
        raise ValueError(f"N = {pt.n} and {len(pairs)} pair(s) give no tangent pair to check")
    u = pt.u
    N = pt.n
    dgamma, c, lv = pt.punctures()[0], pt.c_at_gamma(), pt.levels()
    minors = _level_minors(N)
    log_a = lambda n, lams: _minor_gradients(u, minors[n - 1], lams, roots=False)[0]
    flat = lambda grads: np.concatenate([np.zeros((0, N, N)), *grads])
    # aligned pairs of stacks over all levels: the gradients of some roots,
    # then those of a log-minor at the same roots (fixed lam)
    pieces = [
        flat(pt.divisors()[0]),                                 # e[n]
        flat(log_a(n, lv.e[n - 1]) for n in range(1, N)),       # A_n
        flat(dgamma[:N - 1]),                                   # gamma[n]
        flat(dlog for dlog, _ in c),                            # C_n
        flat(dgamma[:N - 2]),                                   # gamma[n-1]
        flat(log_a(n, lv.gamma[n - 2]) for n in range(2, N)),   # A_n
    ]
    tangents, kk_value = _pair_values(u, pairs)
    dx, dy = [], []
    for grads in pieces:
        vals = grads.reshape(-1, N * N) @ tangents.T
        dx.append(vals[:, 0::2])
        dy.append(vals[:, 1::2])
    wedge = lambda i, j: np.sum(-dx[i] * dy[j] + dy[i] * dx[j], axis=0)
    t2 = wedge(4, 5)
    variants = [{
        "variant": f"contour={contour} term1_sign=-1 overall_sign=-1",
        "max_deviation": float(np.max(np.abs(t1 + t2 - kk_value), initial=0.0))}
        for contour, t1 in (("A", wedge(3, 2)), ("C", wedge(0, 1)))]
    ok = variants[0]["max_deviation"] <= tolerance
    return ResidueFormReport(
        n=N, pairs=len(pairs), tolerance=tolerance, variants=variants,
        winner=variants[0]["variant"] if ok else None, status="ok" if ok else "violation")
