"""Action-angle variables, rational spectral data and Hamiltonian flows.

Each level n of the tower carries the punctured rational curve with
punctures at the roots gamma[n,j] of A_n, the basis of differentials

    Omega_n^(k) = lam^(k-1) / A_n(lam) dlam,      k = 1..n,

whose partial-fraction residues are gamma[n,j]^(k-1) / A_n'(gamma[n,j]),
the action values h[n,k] (coefficients of A_n), and the angle values

    tau[n,k] = sum_i int(lam0 -> e[n,i])  lam^(n-k)/A_n
             - sum_i int(lam0 -> gamma[n-1,i]) lam^(n-k)/A_n,

where e[n,i] are the zeros of the lowering minor C_n.  All integrals are
elementary: along the straight path from lam0 each is a residue-weighted
sum of principal logarithms.

The literal tau formula leaves tau[n,1] non-conjugate to h[n,1] (and gives
tau[1,1] = 0 at level one); augmenting tau[n,1] by log of the leading
coefficient of C_n restores the full canonical pairing
{h[n,k], tau[m,l]} = d(n,m) d(k,l) at every level, so the augmented values
are the default and the literal ones are kept alongside for reporting.

The flow of an action h[n,k] solves the Lax equation u' = [X, u] with
X = grad h = sum_j (dh/dgamma_j) grad gamma_j, read in the eigenbasis of the
top-left block u_n and embedded in that block: X commutes with u_n, so u_n
and X stay fixed and the flow is exactly u(t) = exp(tX) u exp(-tX)
(Kostant-Wallach).  The conjugate tau
moves with unit speed while every action and the spectrum stay fixed.  So
do the punctures, and along a flow the angles are continued from their
straight-path values at t = 0 by the logs of C_n ratios at the punctures.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .orbits import (
    LevelData,
    OrbitError,
    OrbitPoint,
    _REGULARITY_GAP,
    _at_punctures,
    _level_minors,
    _minor_at,
    _monic,
    _pair,
    _pairs,
    _read_only,
    _root_residuals,
    _summary,
    _worst,
)
from .polytools import circle_coeffs

__all__ = [
    "TowerError", "PathThroughPunctureError", "CoincidentPuncturesError", "BranchJumpError",
    "RegularityLostError", "differentials", "path_log_increments", "angle_variables",
    "TowerLevel", "TowerDescriptor", "build_tower",
    "action_gradient", "FlowResult", "hamiltonian_flow", "trajectory_records",
    "LinearizationReport", "linearization_check", "default_base_point",
]


class TowerError(RuntimeError):
    """time: on a tracked flow, the failing sample's time; level: its tower level."""

    time: float | None = None

    def __init__(self, message: str = "", level: int | None = None):
        super().__init__(message)
        self.level = level


class PathThroughPunctureError(TowerError):
    """A path endpoint or a flow's e-point hits a puncture."""


class CoincidentPuncturesError(TowerError, ValueError):
    """Two punctures of a level coincide: A_n is not square-free."""


class BranchJumpError(TowerError):
    """A C_n(gamma_j) ratio turned by more than pi/2 between the samples of a flow."""


class RegularityLostError(TowerError):
    """The flow left the regular locus of the nested-minor chart."""

    def __init__(self, time: float):
        super().__init__(f"regularity lost at t = {time}")
        self.time = time


# ---------------------------------------------------------------------------
# differentials and residue tables
# ---------------------------------------------------------------------------

def differentials(punctures) -> np.ndarray:
    """Residue table of the basis lam^(k-1)/A_n(lam), A_n = prod(lam - g_j):
    entry [j, k-1] is the residue gamma_j^(k-1) / prod_(s != j) (gamma_j - gamma_s)
    of Omega^(k) at puncture j.  Arithmetic is exact when the punctures are
    Fractions, complex otherwise; each column k sums to delta(k, n)."""
    g = np.asarray(punctures)
    n = len(g)
    if n == 0:
        raise ValueError("a level needs at least one puncture")
    diff = np.subtract.outer(g, g)
    np.fill_diagonal(diff, 1)
    denom = np.prod(diff, axis=1)
    if (denom == 0).any():
        raise CoincidentPuncturesError("punctures must be distinct (square-free A_n)")
    powers = np.cumprod(np.column_stack((np.ones_like(g), *[g] * (n - 1))), axis=1)
    return powers / denom[:, None]


# ---------------------------------------------------------------------------
# straight-path elementary integrals
# ---------------------------------------------------------------------------

# Closest approach of a straight-path endpoint to a puncture; flows do without it.
_PUNCTURE_FLOOR = 1e-8


def path_log_increments(a, b, punctures) -> np.ndarray:
    """Increments of log(lam - g_j) along the straight segment a -> b.

    A straight segment subtends less than pi at every puncture off it, so
    each increment is the principal log((b - g_j) / (a - g_j)).  A puncture
    on the segment gives +i*pi, the increment of a path that steps around it
    to the right: adding 0j turns the -0.0 imaginary part of a negative real
    ratio into +0.0.  a and b may be arrays of endpoints: the result has
    their shape plus a last axis over the punctures.  The error names the
    first endpoint within _PUNCTURE_FLOOR of a puncture, in the result's
    order, and that puncture.  Logs that are not finite (from a far-off or
    a NaN endpoint) raise TowerError.
    """
    g = np.asarray(punctures, dtype=complex)
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    near_a = np.abs(a - g) < _PUNCTURE_FLOOR
    near = near_a | (np.abs(b - g) < _PUNCTURE_FLOOR)
    if near.any():
        first = np.unravel_index(np.argmax(near), near.shape)
        end, j = np.where(near_a, a, b)[first], first[-1]
        raise PathThroughPunctureError(
            f"integration endpoint {complex(end):.6g} within {_PUNCTURE_FLOOR} of puncture "
            f"{j + 1}, {g[j]:.6g}")
    with np.errstate(all="ignore"):
        logs = np.log((b - g) / (a - g) + 0j)
    if not np.isfinite(logs).all():
        raise TowerError("straight-path logs are not finite")
    return logs


def _tau_sums(logs: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The residue-weighted sums of path-log increments, in tau order.

    logs (..., endpoints, punctures) are increments of log(lam - gamma_j),
    or of log C_n(gamma_j) along a flow; the result (..., n) holds, for
    k = 1..n, the sum over endpoints and punctures j of res_j(lam^(n-k) /
    A_n) times the increment: the integrals of lam^(n-k) / A_n that
    tau[n,k] takes.
    """
    return (logs.sum(axis=-2) @ differentials(gamma))[..., ::-1]


# ---------------------------------------------------------------------------
# angle variables
# ---------------------------------------------------------------------------

def angle_variables(gamma_n, e_points, gamma_prev, lam0: complex,
                    leading_coeff: complex) -> tuple[np.ndarray, np.ndarray]:
    """Angle values (tau, tau_literal) of one level, tau[n,k] at index k-1.

    gamma_n are the level punctures, e_points the zeros of the lowering
    minor, gamma_prev the previous-level roots; lam0 is the common base
    point of all integrals.  tau[n,1] is shifted by log(leading_coeff), the
    leading coefficient of C_n: this is the correction that makes the whole
    (h, tau) table canonical, and it also supplies the level-one angle,
    where the literal double sum is empty.  tau_literal has no shift.
    """
    gamma = np.asarray(gamma_n, dtype=complex)
    return _level_angles(_tau_sums(path_log_increments(lam0, e_points, gamma), gamma),
                         _tau_sums(path_log_increments(lam0, gamma_prev, gamma), gamma),
                         leading_coeff)


def _level_angles(e_sums: np.ndarray, prev_sums: np.ndarray,
                  leading_coeff: complex) -> tuple[np.ndarray, np.ndarray]:
    """(tau, tau_literal) from the _tau_sums of the e-points and previous roots."""
    literal = e_sums - prev_sums
    tau = literal.copy()
    tau[0] += np.log(complex(leading_coeff))
    return tau, literal


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

class TowerLevel(NamedTuple):
    n: int
    gamma: np.ndarray
    h: np.ndarray                      # h[n,k], k = 1..n (h[n,0] = 1 implicit)
    e: np.ndarray                      # zeros of C_n (empty at the top level)
    tau: list[complex]                 # augmented angles (empty at the top level)
    tau_literal: list[complex]
    leading_coeff: complex | None
    jacobian: list[complex]            # exp(tau), coordinates in (C*)^n

    def to_json(self) -> dict:
        data = self._asdict()
        data.update({key: _pairs(data[key])
                     for key in ("gamma", "h", "e", "tau", "tau_literal", "jacobian")},
                    leading_coeff=None if self.leading_coeff is None
                    else _pair(self.leading_coeff))
        return data


class TowerDescriptor(NamedTuple):
    levels: list[TowerLevel]
    zero_section: dict[int, list[complex]]
    base_point: complex

    def to_json(self) -> dict:
        return dict(self._asdict(), levels=[lv.to_json() for lv in self.levels],
                    zero_section={str(n): _pairs(v) for n, v in self.zero_section.items()},
                    minor_convention="rows", base_point=_pair(self.base_point))


def default_base_point(pt: OrbitPoint) -> complex:
    """Deterministic real base point to the right of every root of A_N, read
    from the point's level data."""
    chart_radius = float(np.max(np.abs(pt.levels().gamma[-1])))
    return complex(np.ceil(chart_radius) + 2.0)


def build_tower(pt: OrbitPoint, lam0: complex | None = None) -> TowerDescriptor:
    """Assemble every level: punctures, actions, divisor points, angles.

    The top level N carries its punctures and (Casimir) action values but no
    e-points or angles: the lowering minor needs row/column N+1, and the
    corresponding angles are not functions on the orbit.  The descriptor is
    memoized on pt per lam0, so callers share it: its arrays are read-only,
    and its lists must not be changed either.  The default lam0 is memoized
    on pt as well.
    """
    lam0 = (pt._memoized("base_point", lambda: default_base_point(pt)) if lam0 is None
            else complex(lam0))
    return pt._memoized(("tower", lam0), lambda: _build_tower(pt, lam0))


def _lowering_lead(lv: LevelData, n: int) -> complex:
    """The lead of C_n, n = 1..N-1; raises TowerError when |lead| < 1e-10,
    as for a zero pivot, which leaves C_n no compression and NaN e-points."""
    lead = complex(lv.c[n - 1][0])
    if abs(lead) < 1e-10:
        raise TowerError(f"level {n}: lowering minor degenerates", level=n)
    return lead


def _build_tower(pt: OrbitPoint, lam0: complex) -> TowerDescriptor:
    N = pt.n
    levels: list[TowerLevel] = []
    zero_section: dict[int, list[complex]] = {}
    lv = pt.levels()
    # the actions are poly(gamma): each puncture must be an eigenvalue of u_n
    residuals = _root_residuals(pt.u, lv.gamma)
    for n in range(1, N + 1):
        acoeffs, gamma = lv.a[n], lv.gamma[n - 1]
        try:                # a TowerError of this level carries n
            if not residuals[n - 1] <= 1e-10:
                raise TowerError(f"level {n}: punctures off the spectrum of u_{n}, "
                                 f"backward residual {residuals[n - 1]:.1e}")
            if n < N:
                lead, e_pts = _lowering_lead(lv, n), lv.e[n - 1]
                e_sums = _tau_sums(path_log_increments(lam0, e_pts, gamma), gamma)
            # the integrals of lam^(n-k) / A_n to the previous level's roots,
            # for both the angles and the zero section
            prev_sums = _tau_sums(path_log_increments(
                lam0, lv.gamma[n - 2] if n >= 2 else [], gamma), gamma)
        except TowerError as exc:
            exc.level = n
            raise
        if n < N:
            tau, tau_lit = (t.tolist() for t in _level_angles(e_sums, prev_sums, lead))
        else:
            e_pts, lead, tau, tau_lit = np.zeros(0, dtype=complex), None, [], []
            _read_only(e_pts)
        levels.append(TowerLevel(
            n=n, gamma=gamma, h=acoeffs[1:], e=np.asarray(e_pts, dtype=complex),
            tau=tau, tau_literal=tau_lit, leading_coeff=lead,
            jacobian=[complex(np.exp(t)) for t in tau]))
        if n >= 2:
            # the integrals of lam^p / A_n, p = 0..n-1, in power order
            zero_section[n] = prev_sums[::-1].tolist()
    return TowerDescriptor(levels=levels, zero_section=zero_section, base_point=lam0)


# ---------------------------------------------------------------------------
# Hamiltonian flows
# ---------------------------------------------------------------------------

def _eigen_actions(u: np.ndarray, n: int) -> tuple:
    """(V, V^-1, D): u_n = V_n diag(w) V_n^-1 with V_n placed in the identity
    of u's size as V, and D[j, k-1] = dh[n,k]/dw_j = -q_(j,k), q_j = A_n /
    (lam - w_j) = sum_k q_(j,k) lam^(n-k), the _monic of w without w_j, zero
    past row n.  grad w_j is the projector V e_j e_j^T V^-1, so grad h[n,k]
    = V diag(D[:, k-1]) V^-1."""
    N, (w, Vn) = len(u), np.linalg.eig(u[:n, :n])
    V, Vinv, D = np.eye(N, dtype=complex), np.eye(N, dtype=complex), np.zeros((N, n), dtype=complex)
    V[:n, :n], Vinv[:n, :n] = Vn, np.linalg.inv(Vn)
    D[:n] = -_monic(np.broadcast_to(w, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1))
    return V, Vinv, D


def action_gradient(pt: OrbitPoint, selector: tuple[int, int]) -> np.ndarray:
    """(grad h)[i,j] = dh/du[j,i] for the action h = h[n,k] at pt, embedded
    in the top-left n x n block, from the eigenbasis of u_n."""
    n, k = selector
    if not (1 <= n <= pt.n and 1 <= k <= n):
        raise ValueError(f"no action h[{n},{k}] at ambient size {pt.n}")
    out = np.zeros((pt.n, pt.n), dtype=complex)
    V, Vinv, D = _eigen_actions(pt.u[:n, :n], n)
    out[:n, :n] = (V * D[:, k - 1]) @ Vinv
    return out


class FlowResult(NamedTuple):
    times: np.ndarray
    points: list[np.ndarray]


def hamiltonian_flow(pt: OrbitPoint, selector: tuple[int, int],
                     t_final: float = 1.0, steps: int = 1000,
                     sample_every: int = 1) -> FlowResult:
    """The exact flow u(t) = e^(tX) u e^(-tX), X = grad h, on a grid of `steps`.

    V of _eigen_actions diagonalizes X to diag(d), d = D[:, k-1], so u(t) =
    V (e^(t(d_i - d_j)) (V^-1 u V)[i,j]) V^-1.  Level-N actions are Casimirs
    and conserve u.  Every A_m is conserved, and so is the regularity
    margin: it is checked once, at t = 0, against the _REGULARITY_GAP that
    sample_orbit and OrbitPoint.create demand.  Points are kept every
    sample_every-th step and at the end, all in one expression, so the cost
    does not grow with `steps`.  RegularityLostError carries 0.0 for an
    irregular start, else the first kept time at which u(t) leaves
    floating-point range.
    """
    n, k = selector
    if not (1 <= n <= pt.n and 1 <= k <= n):
        raise ValueError(f"no action h[{n},{k}] at ambient size {pt.n}")
    try:
        regular = pt.margin() >= _REGULARITY_GAP
    except OrbitError:          # the minors of u leave floating-point range
        regular = False
    if not regular:
        raise RegularityLostError(0.0)
    V, Vinv, D = _eigen_actions(pt.u, n)
    rates, M = D[:, k - 1, None] - D[None, :, k - 1], Vinv @ pt.u @ V
    idx = np.arange(0, steps + 1, sample_every)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    times = idx * (t_final / steps)
    with np.errstate(over="ignore", invalid="ignore"):
        us = V @ (np.exp(times[:, None, None] * rates) * M) @ Vinv
    us[0] = pt.u
    lost = ~np.isfinite(us).all(axis=(1, 2))
    if lost.any():
        raise RegularityLostError(float(times[np.argmax(lost)]))
    return FlowResult(times=times, points=list(us))


def _level_coeffs(us: np.ndarray, gamma: list[np.ndarray]) -> tuple:
    """The tracker's level kernel on a stack us (B, N, N), at the punctures
    gamma of A_1..A_N, which a GZ flow conserves: (a, c, finite).

    a[n-1] (B, n+1) holds the coefficients of A_n, by circle_coeffs on
    |lam| = max|gamma[n]| (or 1.0 when that is 0), and c[n-1] (B, n) the
    values C_n(gamma[n]), n = 1..N-1, one stacked det per level.  finite[b]
    is False when u_b or one of its values leaves floating-point range, and
    then all of them are NaN.
    """
    N = us.shape[-1]
    finite = np.isfinite(us).all(axis=(1, 2))
    us = np.where(finite[:, None, None], us, 0.0)      # det may take a NaN for 0
    minors = _level_minors(N)
    with np.errstate(all="ignore"):
        a = [circle_coeffs(us[:, :n, :n], np.eye(n), float(np.max(np.abs(g))) or 1.0)
             for n, g in enumerate(gamma, start=1)]
        c = [_minor_at(us, minor, g) for minor, g in zip(minors[N:], gamma)]
    for x in a + c:
        finite &= np.isfinite(x).all(axis=1)
    for x in a + c:
        x[~finite] = np.nan
    return a, c, finite


def _continued_angles(pt: OrbitPoint, us, ts, lam0: complex | None) -> tuple:
    """tau (and h) values, continued in time
    through the samples us (B, N, N), or one u, at times ts; the first
    sample is usually pt itself.

    build_tower at pt fixes the punctures of every level (each A_n is
    conserved along a GZ flow) and the angles at t = 0.  prod_e (gamma_j -
    e) = C_n(gamma_j) / lead C_n, and the residues of lam^(n-1) / A_n sum to
    one, so the e-point and lead logs of tau[n,k] move as sum_j
    res_j(lam^(n-k) / A_n) log C_n(gamma_j).  Each sample adds the _tau_sums
    of the logs of the C_n(gamma_j) ratios to the sample before: the values
    of one _level_coeffs call for all samples, which also gives h.  The
    values at t = 0 are the products of pt's memoized level data.

    Returns the tau keys (n, k), n < N, the tau values (B, len(keys)) and
    the h values (B, N(N+1)/2), keys then the Casimirs h[N,k].  Raises the
    error of the first failing sample, with that sample's time.  Per sample
    the checks run in this order: lost regularity, then level by level a
    C_n that vanishes at a puncture and a C_n ratio turned by more than
    pi/2.
    """
    try:
        levels = build_tower(pt, lam0).levels[:-1]
    except TowerError as exc:       # the error of the first sample
        exc.time = 0.0
        raise
    N = pt.n
    keys = [(n, k) for n in range(1, N) for k in range(1, n + 1)]
    tau0 = np.array([t for level in levels for t in level.tau], dtype=complex)
    lv = pt.levels()
    us = np.asarray(us, dtype=complex).reshape(-1, N, N)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    coeffs, values, finite = _level_coeffs(us, lv.gamma)
    limit = len(us) if finite.all() else int(np.argmin(finite))
    error = None if finite.all() else RegularityLostError(float(ts[limit]))
    incs = [np.zeros((limit, 0), dtype=complex)]
    for n, (gamma, v, v0) in enumerate(zip(lv.gamma, values, _at_punctures(lv)[0]), start=1):
        v = v[:limit]
        zero = v == 0
        if zero.any():              # an e-point on a puncture
            limit, j = np.argwhere(zero)[0]
            error = PathThroughPunctureError(
                f"level {n}: C_{n} vanishes at puncture {j + 1}, {gamma[j]:.6g}", level=n)
            v = v[:limit]
        logs = np.log(v / np.concatenate((v0[None], v[:-1])))
        turn = np.abs(logs.imag).max(axis=1, initial=0.0)
        if (turn > np.pi / 2).any():
            limit = int(np.argmax(turn > np.pi / 2))
            error = BranchJumpError(f"level {n}: a ratio turned by {turn[limit]:.3f} rad", level=n)
        incs.append(_tau_sums(logs[:, None], gamma))
    if error is not None:
        error.time = float(ts[limit])
        raise error

    taus = np.cumsum(np.concatenate((tau0[None], np.concatenate(incs, axis=1))), axis=0)[1:]
    hs = np.concatenate([np.zeros((limit, 0)), *(c[:, 1:] for c in coeffs)], axis=1)
    return keys, taus, hs


def trajectory_records(pt: OrbitPoint, selector: tuple[int, int],
                       t_final: float = 1.0, steps: int = 1000,
                       samples: int = 40, lam0: complex | None = None) -> list[dict]:
    """Sampled trajectory with continued h and tau values, JSON-ready; an
    error of the flow or of _continued_angles carries the time of its failing
    sample."""
    flow = hamiltonian_flow(pt, selector, t_final=t_final, steps=steps,
                            sample_every=max(1, steps // samples))
    keys, taus, hs = _continued_angles(pt, flow.points, flow.times, lam0)
    tau_keys = [f"{n},{k}" for n, k in keys]
    h_keys = tau_keys + [f"{pt.n},{k}" for k in range(1, pt.n + 1)]
    return [{
        "t": float(t),
        "u": _pairs(u),
        "h": dict(zip(h_keys, _pairs(h))),
        "tau": dict(zip(tau_keys, _pairs(tau))),
    } for t, u, tau, h in zip(flow.times, flow.points, taus, hs)]


class ActionAngleReport(NamedTuple):
    n: int
    tolerance: float
    keys: list[tuple[int, int]]    # (n, k) of the actions h and angles tau, n < N
    h_tau: np.ndarray              # [a, b] = {h[keys[a]], tau[keys[b]]}
    h_h: np.ndarray                # [a, b] = {h[keys[a]], h[keys[b]]}
    max_deviation_upper: float     # levels n, m >= 2 against the delta pattern
    status: str

    def to_json(self) -> dict:
        data = self._asdict()
        del data["keys"]
        names, delta, reported, graded = _action_angle_layout(self.n)
        devs = np.abs(np.array([self.h_tau, self.h_h]) - delta)
        tables = {key: _summary(names, data[key], *args)
                  for key, *args in zip(("h_tau", "h_h"), devs, reported, graded)}
        return dict(data, derivatives="analytic", **tables,
                    max_deviation_upper_levels=data.pop("max_deviation_upper"),
                    worst=_worst(**tables))


@functools.lru_cache(maxsize=None)
def _action_angle_layout(N: int) -> tuple:
    """The names "n,k" of the K = N(N-1)/2 keys (n, k), n < N, and, stacked
    for h_tau and h_h and read-only, their delta patterns and their reported
    and graded entries: every {h, tau} and the {h, h} above the diagonal
    are reported, and those between levels n, m >= 2 graded (key 0 is
    level one's)."""
    names = [f"{n},{k}" for n in range(1, N) for k in range(1, n + 1)]
    a, b = np.indices((len(names),) * 2)
    delta = np.array([np.eye(len(names)), np.zeros(a.shape)])
    reported = np.array([a >= 0, a < b])
    graded = reported & (a * b > 0)
    _read_only(delta, reported, graded)
    return names, delta, reported, graded


def action_angle_bracket_table(pt: OrbitPoint, tolerance: float = 1e-4) -> ActionAngleReport:
    """Oracle brackets {h[n,k], tau[m,l]} and {h, h} over levels 1..N-1.

    {h, tau} is the derivative of tau along the flow F = [X, u], X = grad h.
    That flow fixes every puncture, so only the divisor points e (closed-form
    gradients) and the augmentation log(lead C_m) move:

        {h, tau[m,l]} = sum_i e_i^(m-l) / A_m(e_i) de_i + d(l,1) d log lead C_m,

    with no angle value and no branch; {h_a, h_b} = tr(u [X_b, X_a]) = tr(F_a X_b),
    so each table is one product of the stacked flows.  With the augmented
    angles the table is canonical, {h[n,k], tau[m,l]} = d(n,m) d(k,l); the
    status grades levels n, m >= 2 only, though h_tau reports level one too
    (the literal level-one angle is identically zero, so only the augmentation
    makes it conjugate to h[1,1]).  Raises ValueError at N < 2, where no tau
    exists, and TowerError on a degenerate lowering minor, as build_tower does.
    """
    if pt.n < 2:
        raise ValueError(f"N = {pt.n} has no angle to check")
    N, u, lv = pt.n, pt.u, pt.levels()
    for m in range(1, N):
        _lowering_lead(lv, m)       # before anything divides by the pivot of C_m
    minors, de = _level_minors(N), pt.divisors()[0]
    keys = [(n, k) for n in range(1, N) for k in range(1, n + 1)]
    X, tau_grads = np.zeros((2, len(keys), N, N), dtype=complex)
    for m in range(1, N):
        e, block = lv.e[m - 1], slice(m * (m - 1) // 2, m * (m + 1) // 2)
        V, Vinv, D = _eigen_actions(u[:m, :m], m)
        X[block, :m, :m] = (V * D.T[:, None, :]) @ Vinv
        # [l-1, i]: e_i^(m-l) / A_m(e_i), A_m(e_i) = prod(e_i - gamma[m])
        weights = np.vander(e, m).T / np.prod(np.subtract.outer(e, lv.gamma[m - 1]), axis=1)
        tau_grads[block] = np.einsum("li,iab->lab", weights, de[m - 1])
        # lead C_m = -u[rows[-1], cols[-1]]: its last row and column carry no lam
        rows, cols = minors[N + m - 1]
        tau_grads[block.start, rows[-1], cols[-1]] += 1.0 / u[rows[-1], cols[-1]]
    flows = (X @ u - u @ X).reshape(len(keys), -1)
    h_tau = flows @ tau_grads.reshape(len(keys), -1).T
    h_h = flows @ X.transpose(0, 2, 1).reshape(len(keys), -1).T
    # np.max keeps a NaN deviation, so a NaN bracket fails
    _, delta, _, graded = _action_angle_layout(N)
    worst = float(np.max(np.abs(np.array([h_tau, h_h]) - delta), where=graded, initial=0.0))
    return ActionAngleReport(
        n=N, tolerance=tolerance, keys=keys, h_tau=h_tau, h_h=h_h,
        max_deviation_upper=worst, status="ok" if worst <= tolerance else "violation")


class LinearizationReport(NamedTuple):
    selector: tuple[int, int]
    samples: int
    slopes: dict[tuple[int, int], complex]
    tolerance: float
    max_error: float
    status: str

    def to_json(self) -> dict:
        return dict(self._asdict(), selector=list(self.selector),
                    slopes={f"{n},{k}": _pair(v) for (n, k), v in self.slopes.items()})


# linearization_check's flow: 200 steps, every 200 // 25 = 8th kept, so 26 samples
_LINEARIZATION_STEPS = 200
_LINEARIZATION_SAMPLES = 25


def linearization_check(pt: OrbitPoint, selector: tuple[int, int],
                        t_final: float = 0.1, tol: float = 1e-3,
                        lam0: complex | None = None) -> LinearizationReport:
    """Least-squares slopes of every tau along the selected action's flow.

    The conjugate tau must move with slope one, every other tau with slope
    zero (Casimir-level selectors expect all zeros).  The taus are continued
    from sample to sample, as in trajectory_records, and raise its errors.
    Raises ValueError at N < 2, where no tau exists.
    """
    if pt.n < 2:
        raise ValueError(f"N = {pt.n} has no angle to check")
    flow = hamiltonian_flow(pt, selector, t_final=t_final, steps=_LINEARIZATION_STEPS,
                            sample_every=_LINEARIZATION_STEPS // _LINEARIZATION_SAMPLES)
    keys, taus, _ = _continued_angles(pt, flow.points, flow.times, lam0)
    times = np.asarray(flow.times, dtype=float)
    tbar = times - times.mean()
    denom = float(np.sum(tbar * tbar))
    slopes = {key: complex(np.sum(tbar * (ys - ys.mean())) / denom)
              for key, ys in zip(keys, taus.T)}
    # np.max keeps a NaN error (max() would drop it), so a NaN slope fails
    max_err = float(np.max([abs(s - (key == selector)) for key, s in slopes.items()],
                           initial=0.0))
    return LinearizationReport(
        selector=selector, samples=len(times), slopes=slopes, tolerance=tol,
        max_error=max_err, status="ok" if max_err <= tol else "violation")
