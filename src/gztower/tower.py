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
X = grad h.  X is a polynomial in the top-left block u_n, embedded in that
block, so it commutes with u_n; u_n and X therefore stay fixed and the flow
is exactly u(t) = exp(tX) u exp(-tX) (Kostant-Wallach).  The conjugate tau
moves with unit speed while every action and the spectrum stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orbits import (
    DEFAULT_MINOR_CONVENTION,
    MinorConvention,
    OrbitError,
    OrbitPoint,
    _kk,
    chart_derivatives,
    level_data,
    regularity_margin,
)
from .polytools import principal_charpoly

__all__ = [
    "TowerError", "PathThroughPunctureError", "BranchJumpError",
    "RegularityLostError", "LevelDifferentials", "differentials",
    "path_log_increments", "AngleResult", "angle_variables",
    "TowerLevel", "TowerDescriptor", "build_tower",
    "action_gradient", "FlowResult", "hamiltonian_flow", "trajectory_records",
    "LinearizationReport", "linearization_check", "default_base_point",
]


class TowerError(RuntimeError):
    pass


class PathThroughPunctureError(TowerError):
    """An integration endpoint or path hits a puncture."""


class BranchJumpError(TowerError):
    """A tracked angle jumped by more than pi between samples."""


class RegularityLostError(TowerError):
    """The flow left the regular locus of the nested-minor chart."""

    def __init__(self, time: float):
        super().__init__(f"regularity lost at t = {time}")
        self.time = time


# ---------------------------------------------------------------------------
# differentials and residue tables
# ---------------------------------------------------------------------------

@dataclass
class LevelDifferentials:
    """Partial-fraction data of lam^(k-1)/A_n for one level.

    residues[j][k-1] is the residue of Omega^(k) at puncture j; arithmetic
    is exact when the punctures are Fractions, complex otherwise.
    """

    punctures: list
    residues: list[list]

    def residue_column(self, power: int) -> list:
        """Residues of lam^power / A_n at all punctures (0 <= power < n)."""
        return [row[power] for row in self.residues]

    def residue_sums(self) -> list:
        """sum_j residues of Omega^(k), k = 1..n; equals delta(k, n)."""
        n = len(self.punctures)
        return [sum(self.residue_column(k)) for k in range(n)]


def differentials(punctures) -> LevelDifferentials:
    """Residue table of the basis lam^(k-1)/A_n(lam), A_n = prod(lam - g_j)."""
    pts = list(punctures)
    n = len(pts)
    if n == 0:
        raise ValueError("a level needs at least one puncture")
    residues = []
    for j, gj in enumerate(pts):
        denom = 1
        for s, gs in enumerate(pts):
            if s != j:
                denom = denom * (gj - gs)
        if denom == 0:
            raise ValueError("punctures must be distinct (square-free A_n)")
        row = []
        power = 1
        for _ in range(n):
            row.append(power / denom)
            power = power * gj
        residues.append(row)
    return LevelDifferentials(punctures=pts, residues=residues)


# ---------------------------------------------------------------------------
# straight-path elementary integrals
# ---------------------------------------------------------------------------

# Closest approach of an integration endpoint or a divisor point to a puncture.
_PUNCTURE_FLOOR = 1e-8


def path_log_increments(a: complex, b: complex, punctures) -> np.ndarray:
    """Increments of log(lam - g_j) along the straight segment a -> b.

    A straight segment subtends less than pi at every puncture off it, so
    each increment is the principal log((b - g_j) / (a - g_j)).  A puncture
    on the segment gives +i*pi, the increment of a path that steps around it
    to the right: adding 0j turns the -0.0 imaginary part of a negative real
    ratio into +0.0.
    """
    g = np.asarray(punctures, dtype=complex)
    if np.min(np.abs(np.subtract.outer([a, b], g)), initial=np.inf) < _PUNCTURE_FLOOR:
        raise PathThroughPunctureError(
            f"integration endpoint within {_PUNCTURE_FLOOR} of a puncture")
    return np.log((b - g) / (a - g) + 0j)


def _residue_logs(gamma, lam0: complex, endpoints) -> np.ndarray:
    """sum over endpoints z of int(lam0 -> z) lam^p / A_n, p = 0..n-1.

    Each integral is sum_j res_j(lam^p / A_n) log((z - g_j) / (lam0 - g_j)).
    """
    logs = sum((path_log_increments(lam0, z, gamma) for z in endpoints),
               np.zeros(len(gamma), dtype=complex))
    return logs @ np.array(differentials(gamma).residues, dtype=complex)


# ---------------------------------------------------------------------------
# angle variables
# ---------------------------------------------------------------------------

@dataclass
class AngleResult:
    tau: list[complex]
    tau_literal: list[complex]


def angle_variables(gamma_n, e_points, gamma_prev, lam0: complex,
                    leading_coeff: complex | None = None,
                    augment: bool = True) -> AngleResult:
    """Angle values tau[n,k], k = 1..n, for one level.

    gamma_n are the level punctures, e_points the zeros of the lowering
    minor, gamma_prev the previous-level roots; lam0 is the common base
    point of all integrals.  With augment=True (the default) tau[n,1] is
    shifted by log(leading_coeff); this is the correction that makes the
    whole (h, tau) table canonical, and it also supplies the level-one
    angle, where the literal double sum is empty.
    """
    gamma_n = [complex(z) for z in gamma_n]
    sums = _residue_logs(gamma_n, lam0, e_points) - _residue_logs(gamma_n, lam0, gamma_prev)
    taus_literal = [complex(v) for v in sums[::-1]]     # tau[n,k] takes lam^(n-k)
    taus = list(taus_literal)
    if augment:
        if leading_coeff is None:
            raise ValueError("augmentation requires the leading coefficient of C_n")
        taus[0] += complex(np.log(complex(leading_coeff)))
    return AngleResult(tau=taus, tau_literal=taus_literal)


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

@dataclass
class TowerLevel:
    n: int
    gamma: np.ndarray
    h: np.ndarray                      # h[n,k], k = 1..n (h[n,0] = 1 implicit)
    e: np.ndarray                      # zeros of C_n (empty at the top level)
    tau: list[complex]                 # augmented angles (empty at the top level)
    tau_literal: list[complex]
    base_point: complex
    leading_coeff: complex | None
    jacobian: list[complex]            # exp(tau), coordinates in (C*)^n

    def differentials(self) -> LevelDifferentials:
        return differentials(self.gamma)

    def to_json(self) -> dict:
        enc = lambda xs: [[float(complex(z).real), float(complex(z).imag)] for z in xs]
        return {
            "n": self.n,
            "gamma": enc(self.gamma),
            "h": enc(self.h),
            "e": enc(self.e),
            "tau": enc(self.tau),
            "tau_literal": enc(self.tau_literal),
            "base_point": [float(complex(self.base_point).real), float(complex(self.base_point).imag)],
            "leading_coeff": None if self.leading_coeff is None
            else [float(self.leading_coeff.real), float(self.leading_coeff.imag)],
            "jacobian": enc(self.jacobian),
        }


@dataclass
class TowerDescriptor:
    levels: list[TowerLevel]
    zero_section: dict[int, list[complex]]
    convention: str
    base_point: complex

    def to_json(self) -> dict:
        enc = lambda xs: [[float(complex(z).real), float(complex(z).imag)] for z in xs]
        return {
            "levels": [lv.to_json() for lv in self.levels],
            "zero_section": {str(n): enc(v) for n, v in self.zero_section.items()},
            "minor_convention": self.convention,
            "base_point": [float(complex(self.base_point).real), float(complex(self.base_point).imag)],
        }


def default_base_point(pt: OrbitPoint) -> complex:
    """Deterministic real base point to the right of every root of A_N."""
    chart_radius = max(abs(z) for z in np.linalg.eigvals(pt.u))
    return complex(np.ceil(chart_radius) + 2.0)


def build_tower(pt: OrbitPoint, lam0: complex | None = None,
                convention: MinorConvention = DEFAULT_MINOR_CONVENTION) -> TowerDescriptor:
    """Assemble every level: punctures, actions, divisor points, angles.

    The top level N carries its punctures and (Casimir) action values but no
    e-points or angles: the lowering minor needs row/column N+1, and the
    corresponding angles are not functions on the orbit.
    """
    N = pt.n
    u = pt.u
    if lam0 is None:
        lam0 = default_base_point(pt)
    lam0 = complex(lam0)
    levels: list[TowerLevel] = []
    zero_section: dict[int, list[complex]] = {}
    lv = level_data(u, convention)
    for n in range(1, N + 1):
        acoeffs, gamma = lv.a[n], lv.gamma[n - 1]
        # relative to the coefficient scale: the A_n coefficients grow like n!
        if np.max(np.abs(np.poly(gamma) - acoeffs)) > 1e-10 * max(1.0, np.max(np.abs(acoeffs))):
            raise TowerError(f"level {n}: actions disagree with the "
                             "elementary symmetric functions of the punctures")
        if n < N:
            lead, e_pts = complex(lv.c[n - 1][0]), lv.e[n - 1]
            if abs(lead) < 1e-10:
                raise TowerError(f"level {n}: lowering minor degenerates")
            if np.min(np.abs(np.subtract.outer(e_pts, gamma)), initial=np.inf) < _PUNCTURE_FLOOR:
                raise TowerError(f"level {n}: divisor point collides with a puncture")
            res = angle_variables(gamma, e_pts, lv.gamma[n - 2] if n >= 2 else [],
                                  lam0, leading_coeff=lead)
            tau, tau_lit = res.tau, res.tau_literal
        else:
            e_pts, lead, tau, tau_lit = np.zeros(0, dtype=complex), None, [], []
        levels.append(TowerLevel(
            n=n, gamma=gamma, h=acoeffs[1:], e=np.asarray(e_pts, dtype=complex),
            tau=tau, tau_literal=tau_lit, base_point=lam0,
            leading_coeff=lead, jacobian=[complex(np.exp(t)) for t in tau]))
        if n >= 2:
            zero_section[n] = [complex(v) for v in _residue_logs(gamma, lam0, lv.gamma[n - 2])]
    return TowerDescriptor(levels=levels, zero_section=zero_section,
                           convention=convention.label(), base_point=lam0)


# ---------------------------------------------------------------------------
# Hamiltonian flows
# ---------------------------------------------------------------------------

def _horner_gradients(un: np.ndarray, coeffs) -> np.ndarray:
    """grad h[n,k] on the n x n block, k = 1..len(coeffs), from charpoly(u_n).

    Jacobi's formula and the Faddeev-LeVerrier expansion of adj(lam - u_n)
    give grad h[n,k] = -(c_0 u_n^(k-1) + ... + c_(k-1)), c = charpoly(u_n):
    the Horner accumulator after k steps.
    """
    n = un.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    out = []
    for ci in coeffs:
        acc = acc @ un + ci * np.eye(n)
        out.append(-acc)
    return np.array(out)


def action_gradient(u: np.ndarray, selector: tuple[int, int]) -> np.ndarray:
    """(grad h)[i,j] = dh/du[j,i] for the action h = h[n,k] at u, embedded in
    the top-left n x n block."""
    N = u.shape[0]
    n, k = selector
    if not (1 <= n <= N and 1 <= k <= n):
        raise ValueError(f"no action h[{n},{k}] at ambient size {N}")
    out = np.zeros((N, N), dtype=complex)
    out[:n, :n] = _horner_gradients(u[:n, :n], principal_charpoly(u, n)[:k])[-1]
    return out


@dataclass
class FlowResult:
    selector: tuple[int, int]
    times: np.ndarray
    points: list[np.ndarray]


def hamiltonian_flow(pt: OrbitPoint, selector: tuple[int, int],
                     t_final: float = 1.0, steps: int = 1000,
                     reg_gap: float = 1e-6, sample_every: int = 1,
                     check_every: int = 10) -> FlowResult:
    """The exact flow u(t) = e^(tX) u e^(-tX), X = grad h, on a grid of `steps`.

    V, the eigenbasis of u_n extended by the identity, diagonalizes X to D,
    so u(t) = V (e^(t(d_i - d_j)) (V^-1 u V)[i,j]) V^-1.  Level-N actions are
    Casimirs and conserve u.  Regularity is checked at t = 0 and every
    check_every-th step, and points are kept every sample_every-th step and
    at the end; RegularityLostError carries the first checked or sampled
    time at which regularity fails or u(t) leaves floating-point range.
    """
    X = action_gradient(pt.u, selector)
    u = pt.u.copy()
    if regularity_margin(u) < reg_gap:
        raise RegularityLostError(0.0)
    n = selector[0]
    V = np.eye(pt.n, dtype=complex)
    V[:n, :n] = np.linalg.eig(u[:n, :n])[1]
    Vinv = np.linalg.inv(V)
    d = np.diag(Vinv @ X @ V)
    rates, M = d[:, None] - d[None, :], Vinv @ u @ V
    dt = t_final / steps
    times = [0.0]
    points = [u]
    for step_idx in range(1, steps + 1):
        check = step_idx % check_every == 0 or step_idx == steps
        sample = step_idx % sample_every == 0 or step_idx == steps
        if not (check or sample):
            continue
        t = step_idx * dt
        with np.errstate(over="ignore", invalid="ignore"):
            u = V @ (np.exp(t * rates) * M) @ Vinv
        try:
            if not np.isfinite(u).all() or (check and regularity_margin(u) < reg_gap):
                raise RegularityLostError(t)
        except OrbitError:  # u is finite but its minors are not
            raise RegularityLostError(t) from None
        if sample:
            times.append(t)
            points.append(u)
    return FlowResult(selector=selector, times=np.array(times), points=points)


class _TauTracker:
    """Branch-continuous tau (and h) values along a trajectory.

    The state holds one configuration (roots, divisor points, continued
    augmentation logs); ``step`` advances it to the next sample, matching
    the roots to it and enforcing branch continuity.
    """

    def __init__(self, u0: np.ndarray, convention: MinorConvention, lam0: complex):
        self.N = u0.shape[0]
        self.convention = convention
        self.lam0 = complex(lam0)
        self.state = level_data(u0, convention)
        self.aug_log = [complex(np.log(complex(c[0]))) for c in self.state.c]
        self.tau: dict[tuple[int, int], complex] = {}
        self.step(u0, 0.0)

    def step(self, u: np.ndarray, t: float) -> tuple[dict, dict, dict]:
        """Advance to u = u(t); returns (tau values, h values, branch flags)."""
        try:
            lv = level_data(u, self.convention, base=self.state)
        except OrbitError:
            raise RegularityLostError(t) from None
        hs = {(n, k): complex(lv.a[n][k]) for n in range(1, self.N + 1)
              for k in range(1, n + 1)}
        aug_logs = [aug + complex(np.log(complex(c[0]) / complex(c0[0])))
                    for aug, c, c0 in zip(self.aug_log, lv.c, self.state.c)]
        taus: dict[tuple[int, int], complex] = {}
        for n in range(1, self.N):
            res = angle_variables(lv.gamma[n - 1], lv.e[n - 1],
                                  lv.gamma[n - 2] if n >= 2 else [], self.lam0,
                                  augment=False)
            for k, val in enumerate(res.tau_literal, start=1):
                taus[(n, k)] = val + aug_logs[n - 1] if k == 1 else val
        flags: dict[int, bool] = {n: False for n in range(1, self.N)}
        for (n, k), val in taus.items():
            jump = abs(val - self.tau[(n, k)]) if self.tau else 0.0
            if jump > np.pi:
                raise BranchJumpError(
                    f"tau[{n},{k}] jumped by {jump:.3f} between samples")
            flags[n] = flags[n] or jump > np.pi / 2.0
        self.state, self.aug_log, self.tau = lv, aug_logs, taus
        return taus, hs, flags


def trajectory_records(pt: OrbitPoint, selector: tuple[int, int],
                       t_final: float = 1.0, steps: int = 1000,
                       samples: int = 40,
                       convention: MinorConvention = DEFAULT_MINOR_CONVENTION,
                       lam0: complex | None = None,
                       reg_gap: float = 1e-6) -> list[dict]:
    """Sampled trajectory with branch-tracked h and tau values, JSON-ready."""
    if lam0 is None:
        lam0 = default_base_point(pt)
    flow = hamiltonian_flow(pt, selector, t_final=t_final, steps=steps,
                            reg_gap=reg_gap,
                            sample_every=max(1, steps // samples))
    tracker = _TauTracker(pt.u, convention, lam0)
    records = []
    for t, u in zip(flow.times, flow.points):
        taus, hs, flags = tracker.step(u, t)
        records.append({
            "t": float(t),
            "u": [[float(z.real), float(z.imag)] for z in u.ravel()],
            "h": {f"{n},{k}": [v.real, v.imag] for (n, k), v in sorted(hs.items())},
            "tau": {f"{n},{k}": [v.real, v.imag] for (n, k), v in sorted(taus.items())},
            "branch_flags": {str(n): bool(f) for n, f in sorted(flags.items())},
        })
    return records


@dataclass
class ActionAngleReport:
    n: int
    tolerance: float
    h_tau: dict[tuple, complex]
    h_h: dict[tuple, complex]
    max_deviation_upper: float     # levels n, m >= 2 against the delta pattern
    level_one: dict[tuple, complex]
    status: str
    conditioning: dict[str, float | None]

    def to_json(self) -> dict:
        fmt = lambda table: {f"{a[0]},{a[1]}|{b[0]},{b[1]}": [v.real, v.imag]
                             for (a, b), v in sorted(table.items())}
        return {
            "n": self.n,
            "tolerance": self.tolerance,
            "derivatives": "analytic",
            "conditioning": self.conditioning,
            "h_tau": fmt(self.h_tau),
            "h_h": fmt(self.h_h),
            "max_deviation_upper_levels": self.max_deviation_upper,
            "level_one": fmt(self.level_one),
            "status": self.status,
        }


def action_angle_bracket_table(pt: OrbitPoint,
                               convention: MinorConvention = DEFAULT_MINOR_CONVENTION,
                               tolerance: float = 1e-4) -> ActionAngleReport:
    """Oracle brackets {h[n,k], tau[m,l]} and {h, h} over levels 1..N-1.

    {h, tau} is the derivative of tau along the flow u' = [grad h, u].  That
    flow fixes every puncture, so only the divisor points e (closed-form
    gradients) and the augmentation log(lead C_m) move:

        {h, tau[m,l]} = sum_i e_i^(m-l) / A_m(e_i) de_i + d(l,1) d log lead C_m,

    with no angle value and no branch.  With the augmented angles the full
    table is canonical, {h[n,k], tau[m,l]} = d(n,m) d(k,l); the status only
    grades levels n, m >= 2, and the level-one row is reported separately
    (the literal level-one angle is identically zero, so only the
    augmentation makes it conjugate to h[1,1]).
    """
    N = pt.n
    u = pt.u
    d = chart_derivatives(u, convention)
    keys = [(n, k) for n in range(1, N) for k in range(1, n + 1)]
    h_nabla = {}
    for n in range(1, N):
        X = np.zeros((n, N, N), dtype=complex)
        X[:, :n, :n] = _horner_gradients(u[:n, :n], d.lv.a[n][:n])
        h_nabla.update({(n, k): X[k - 1] for k in range(1, n + 1)})
    tau_grads = [np.zeros((0, N, N))]
    for m in range(1, N):
        e = d.lv.e[m - 1]
        weights = np.vander(e, m).T / np.polyval(d.lv.a[m], e)    # [l-1, i]
        grads = np.einsum("li,iab->lab", weights, d.e[m - 1])
        # C_m carries no lam in its last row and column, so lead C_m is
        # -sign * u[rows[-1], cols[-1]]
        rows, cols = d.minors[N + m - 1]
        grads[0, rows[-1], cols[-1]] += 1.0 / u[rows[-1], cols[-1]]
        tau_grads.append(grads)
    flows = np.array([X @ u - u @ X for X in h_nabla.values()]).reshape(len(keys), N * N)
    brackets = flows @ np.concatenate(tau_grads).reshape(len(keys), N * N).T

    h_tau = {(ka, kb): complex(brackets[ia, ib])
             for ia, ka in enumerate(keys) for ib, kb in enumerate(keys)}
    h_h = {(ka, kb): _kk(u, h_nabla[ka], h_nabla[kb])
           for ia, ka in enumerate(keys) for kb in keys[ia + 1:]}
    level_one = {(ka, kb): v for (ka, kb), v in h_tau.items() if 1 in (ka[0], kb[0])}
    # np.max keeps a NaN deviation, so a NaN bracket fails
    devs = [abs(v - (ka == kb)) for (ka, kb), v in (*h_tau.items(), *h_h.items())
            if ka[0] >= 2 and kb[0] >= 2]
    worst = float(np.max(devs, initial=0.0))
    return ActionAngleReport(
        n=N, tolerance=tolerance, h_tau=h_tau, h_h=h_h,
        max_deviation_upper=worst, level_one=level_one,
        status="ok" if worst <= tolerance else "violation",
        conditioning=d.conditioning)


@dataclass
class LinearizationReport:
    selector: tuple[int, int]
    samples: int
    slopes: dict[tuple[int, int], complex]
    tolerance: float
    max_error: float
    status: str

    def to_json(self) -> dict:
        return {
            "selector": list(self.selector),
            "samples": self.samples,
            "slopes": {f"{n},{k}": [v.real, v.imag]
                       for (n, k), v in sorted(self.slopes.items())},
            "tolerance": self.tolerance,
            "max_error": self.max_error,
            "status": self.status,
        }


def linearization_check(pt: OrbitPoint, selector: tuple[int, int],
                        t_final: float = 0.1, steps: int = 200,
                        samples: int = 25, tol: float = 1e-3,
                        convention: MinorConvention = DEFAULT_MINOR_CONVENTION,
                        lam0: complex | None = None) -> LinearizationReport:
    """Least-squares slopes of every tau along the selected action's flow.

    The conjugate tau must move with slope one, every other tau with slope
    zero (Casimir-level selectors expect all zeros).  Branch continuity is
    enforced stepwise; a jump above pi raises BranchJumpError.
    """
    if lam0 is None:
        lam0 = default_base_point(pt)
    flow = hamiltonian_flow(pt, selector, t_final=t_final, steps=steps,
                            sample_every=max(1, steps // samples))
    tracker = _TauTracker(pt.u, convention, lam0)
    series: dict[tuple[int, int], list[complex]] = {}
    for t, u in zip(flow.times, flow.points):
        taus, _, _ = tracker.step(u, t)
        for key, val in taus.items():
            series.setdefault(key, []).append(val)
    times = np.asarray(flow.times, dtype=float)
    tbar = times - times.mean()
    denom = float(np.sum(tbar * tbar))
    slopes = {}
    errors = []
    for key, vals in series.items():
        ys = np.asarray(vals, dtype=complex)
        slope = complex(np.sum(tbar * (ys - ys.mean())) / denom)
        slopes[key] = slope
        errors.append(abs(slope - (1.0 if key == selector else 0.0)))
    # np.max keeps a NaN error (max() would drop it), so a NaN slope fails
    max_err = float(np.max(errors)) if errors else 0.0
    return LinearizationReport(
        selector=selector, samples=len(times), slopes=slopes, tolerance=tol,
        max_error=max_err, status="ok" if max_err <= tol else "violation")
