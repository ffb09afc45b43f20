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
    OrbitPoint,
    _kk,
    _level_stack,
    chart_derivatives,
    level_data,
    regularity_margin,
)
from .polytools import TrackingError, match_points, principal_charpoly, sort_points

__all__ = [
    "TowerError", "PathThroughPunctureError", "CoincidentPuncturesError", "BranchJumpError",
    "RegularityLostError", "LevelDifferentials", "differentials",
    "path_log_increments", "AngleResult", "angle_variables",
    "TowerLevel", "TowerDescriptor", "build_tower",
    "action_gradient", "FlowResult", "hamiltonian_flow", "trajectory_records",
    "LinearizationReport", "linearization_check", "default_base_point",
]


class TowerError(RuntimeError):
    """row: in a call on a stack, the first row the error holds for."""

    def __init__(self, message: str = "", row: int = 0):
        super().__init__(message)
        self.row = row


class PathThroughPunctureError(TowerError):
    """An integration endpoint or path hits a puncture."""


class CoincidentPuncturesError(TowerError, ValueError):
    """Two punctures of a level coincide: A_n is not square-free."""


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
    """Partial-fraction data of lam^(k-1)/A_n for one level, or for every
    row of a stack of levels.

    residues[..., j, k-1] is the residue of Omega^(k) at puncture j;
    arithmetic is exact when the punctures are Fractions, complex otherwise.
    """

    punctures: np.ndarray
    residues: np.ndarray

    def residue_column(self, power: int) -> list:
        """Residues of lam^power / A_n at all punctures (0 <= power < n)."""
        return self.residues[..., power].tolist()

    def residue_sums(self) -> list:
        """sum_j residues of Omega^(k), k = 1..n; equals delta(k, n)."""
        return self.residues.sum(axis=-2).tolist()


def _first_row(fails: np.ndarray) -> int:
    """Index along the leading axis of the first True entry of fails."""
    return int(np.argmax(fails.reshape(len(fails), -1).any(axis=1))) if fails.ndim else 0


def differentials(punctures) -> LevelDifferentials:
    """Residue table of the basis lam^(k-1)/A_n(lam), A_n = prod(lam - g_j).

    punctures is one level (n,) or a stack of levels (S, n); the residues
    are gamma_j^(k-1) / prod_(s != j) (gamma_j - gamma_s).
    """
    g = np.asarray(punctures)
    n = g.shape[-1]
    if n == 0:
        raise ValueError("a level needs at least one puncture")
    diff = g[..., :, None] - g[..., None, :]
    diff[..., range(n), range(n)] = 1
    denom = np.prod(diff, axis=-1)
    coincide = (denom == 0).any(axis=-1)
    if coincide.any():
        raise CoincidentPuncturesError("punctures must be distinct (square-free A_n)",
                                       row=_first_row(coincide))
    powers = np.cumprod(np.concatenate(      # powers[..., j, k] = gamma_j^k
        (np.ones_like(g)[..., None], np.repeat(g[..., None], n - 1, axis=-1)), axis=-1), axis=-1)
    return LevelDifferentials(punctures=g, residues=powers / denom[..., None])


# ---------------------------------------------------------------------------
# straight-path elementary integrals
# ---------------------------------------------------------------------------

# Closest approach of an integration endpoint or a divisor point to a puncture.
_PUNCTURE_FLOOR = 1e-8


def path_log_increments(a, b, punctures) -> np.ndarray:
    """Increments of log(lam - g_j) along the straight segment a -> b.

    A straight segment subtends less than pi at every puncture off it, so
    each increment is the principal log((b - g_j) / (a - g_j)).  A puncture
    on the segment gives +i*pi, the increment of a path that steps around it
    to the right: adding 0j turns the -0.0 imaginary part of a negative real
    ratio into +0.0.  a and b may be arrays of endpoints: the result has
    their shape plus a last axis over the punctures, whose leading axes
    broadcast against them (punctures (S, 1, n) for endpoints (S, m)).  The
    error's row is the first index along the result's leading axis with an
    endpoint within _PUNCTURE_FLOOR of a puncture.
    """
    g = np.asarray(punctures, dtype=complex)
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    near = (np.abs(a - g) < _PUNCTURE_FLOOR) | (np.abs(b - g) < _PUNCTURE_FLOOR)
    if near.any():
        raise PathThroughPunctureError(
            f"integration endpoint within {_PUNCTURE_FLOOR} of a puncture",
            row=_first_row(near))
    return np.log((b - g) / (a - g) + 0j)


def _residue_logs(gamma, lam0: complex, endpoints) -> np.ndarray:
    """sum over endpoints z of int(lam0 -> z) lam^p / A_n, p = 0..n-1.

    Each integral is sum_j res_j(lam^p / A_n) log((z - g_j) / (lam0 - g_j)).
    gamma (n,) with endpoints (m,), or stacks (S, n) and (S, m) row by row.
    """
    gamma = np.asarray(gamma, dtype=complex)
    logs = path_log_increments(lam0, endpoints, gamma[..., None, :]).sum(axis=-2)
    return (logs[..., None, :] @ differentials(gamma).residues)[..., 0, :]


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
    """Angle values tau[n,k], k = 1..n, for one level or a stack of levels.

    gamma_n are the level punctures, e_points the zeros of the lowering
    minor, gamma_prev the previous-level roots; lam0 is the common base
    point of all integrals.  With augment=True (the default) tau[n,1] is
    shifted by log(leading_coeff); this is the correction that makes the
    whole (h, tau) table canonical, and it also supplies the level-one
    angle, where the literal double sum is empty.  One level (n,), (m,),
    (m,) gets lists; stacks (S, n), (S, m), (S, m) with leading_coeff (S,)
    are taken row by row and get arrays (S, n), and an error is that of the
    first failing row, its `row`.
    """
    gamma_n = np.asarray(gamma_n, dtype=complex)
    sums = _residue_logs(gamma_n, lam0, e_points) - _residue_logs(gamma_n, lam0, gamma_prev)
    literal = sums[..., ::-1]                      # tau[n,k] takes lam^(n-k)
    taus = literal.copy()
    if augment:
        if leading_coeff is None:
            raise ValueError("augmentation requires the leading coefficient of C_n")
        taus[..., 0] += np.log(np.asarray(leading_coeff, dtype=complex))
    if gamma_n.ndim == 1:
        return AngleResult(tau=taus.tolist(), tau_literal=literal.tolist())
    return AngleResult(tau=taus, tau_literal=literal)


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


# Flow grids and tracked samples are evaluated in stacks of at most this
# many points, so memory stays bounded on a long grid.
_CHUNK = 64


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
    The kept times are evaluated in stacks of _CHUNK, each in one
    expression and one regularity_margin call.
    """
    X = action_gradient(pt.u, selector)
    n = selector[0]
    V = np.eye(pt.n, dtype=complex)
    V[:n, :n] = np.linalg.eig(pt.u[:n, :n])[1]
    Vinv = np.linalg.inv(V)
    d = np.diag(Vinv @ X @ V)
    rates, M = d[:, None] - d[None, :], Vinv @ pt.u @ V
    grid = np.arange(steps + 1)
    check = (grid % check_every == 0) | (grid == steps)
    sample = (grid % sample_every == 0) | (grid == steps)
    kept = np.flatnonzero(check | sample)
    times, points = [], []
    for start in range(0, len(kept), _CHUNK):
        idx = kept[start:start + _CHUNK]
        ts = idx * (t_final / steps)
        with np.errstate(over="ignore", invalid="ignore"):
            us = V @ (np.exp(ts[:, None, None] * rates) * M) @ Vinv
        us[idx == 0] = pt.u
        lost = ~np.isfinite(us).all(axis=(1, 2))
        checked = np.flatnonzero(check[idx])
        lost[checked] |= ~(regularity_margin(us[checked]) >= reg_gap)
        if lost.any():
            raise RegularityLostError(float(ts[np.argmax(lost)]))
        times.extend(ts[sample[idx]])
        points.extend(us[sample[idx]])
    return FlowResult(selector=selector, times=np.array(times), points=points)


class _TauTracker:
    """Branch-continuous tau (and h) values along a trajectory of N x N points.

    ``step`` advances through a stack of samples in time order, _CHUNK at a
    time: one level-data kernel call per chunk, roots matched from sample
    to sample, the taus of all samples from one angle_variables call per
    level, and the jumps between samples from one difference.  The state is
    the last sample's matched roots, leading coefficients of the C_n,
    continued augmentation logs and taus.  The first sample starts it, with
    sorted roots: on a flow that sample is u0, so t = 0 is computed once.
    """

    def __init__(self, N: int, convention: MinorConvention, lam0: complex):
        self.N = N
        self.convention = convention
        self.lam0 = complex(lam0)
        self.keys = [(n, k) for n in range(1, N) for k in range(1, n + 1)]
        self.h_keys = [(n, k) for n in range(1, N + 1) for k in range(1, n + 1)]
        self.roots = self.lead = self.aug = self.tau = None

    def step(self, us, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance through the samples us (B, N, N), or one u, at times ts.

        Returns the tau values (B, len(keys)), the h values (B, len(h_keys))
        and the branch flags (B, N-1): some tau of that level moved by more
        than pi/2 since the sample before.
        """
        us = np.asarray(us, dtype=complex).reshape(-1, self.N, self.N)
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        parts = [self._advance(us[i:i + _CHUNK], ts[i:i + _CHUNK])
                 for i in range(0, len(us), _CHUNK)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _angles(self, gamma: list, e: list, rows: int) -> np.ndarray:
        """Literal taus (rows, len(keys)) of the first `rows` matched samples."""
        empty = np.zeros((rows, 0), dtype=complex)
        return np.concatenate([empty, *(
            angle_variables(gamma[n - 1][:rows], e[n - 1][:rows],
                            gamma[n - 2][:rows] if n >= 2 else empty,
                            self.lam0, augment=False).tau_literal
            for n in range(1, self.N))], axis=1)

    def _advance(self, us: np.ndarray, ts: np.ndarray) -> tuple:
        """step on one chunk; raises the error of its first failing sample:
        lost regularity, a changed root count, an angle_variables error,
        then a branch jump, in the order of the per-sample checks."""
        N, fresh = self.N, self.tau is None
        coeffs, raw, finite = _level_stack(us, self.convention, lowering=True)
        bases = [sort_points(r[0][~np.isnan(r[0])]) for r in raw] if fresh else self.roots
        tracked = finite & np.all([np.count_nonzero(~np.isnan(r), axis=1) == len(base)
                                   for base, r in zip(bases, raw)], axis=0)
        stop = len(us) if tracked.all() else int(np.argmin(tracked))
        error = None if stop == len(us) else (
            RegularityLostError(float(ts[stop])) if not finite[stop]
            else TrackingError("point counts differ between configurations"))
        if stop == 0:
            raise error
        roots = [match_points(base, r[:stop, :len(base)]) for base, r in zip(bases, raw)]
        gamma, e = roots[:N], roots[N:]

        limit = stop
        while True:             # the rows before an angle error are still checked
            try:
                taus = self._angles(gamma, e, limit)
                break
            except TowerError as exc:
                limit, error = exc.row, exc
        lead = np.concatenate([np.zeros((limit, 0)), *(c[:limit, :1] for c in coeffs[N:])], axis=1)
        prev_lead, prev_aug = (lead[:1], np.log(lead[:1])) if fresh else (self.lead, self.aug)
        increments = np.log(lead / np.concatenate((prev_lead, lead[:-1])))
        aug = np.cumsum(np.concatenate((prev_aug, increments)), axis=0)[1:]
        taus[:, [n * (n - 1) // 2 for n in range(1, N)]] += aug
        hs = np.concatenate([np.zeros((limit, 0)), *(c[:limit, 1:] for c in coeffs[:N])], axis=1)

        jumps = np.abs(taus - np.concatenate((taus[:1] if fresh else self.tau, taus[:-1])))
        if (jumps > np.pi).any():
            s, i = divmod(int(np.argmax(jumps.ravel() > np.pi)), len(self.keys))
            n, k = self.keys[i]
            raise BranchJumpError(f"tau[{n},{k}] jumped by {jumps[s, i]:.3f} between samples")
        if error is not None:
            raise error
        flags = np.concatenate([np.zeros((limit, 0), dtype=bool), *(
            (jumps[:, n * (n - 1) // 2:n * (n + 1) // 2] > np.pi / 2).any(axis=1, keepdims=True)
            for n in range(1, N))], axis=1)
        self.roots = [r[-1] for r in roots]
        self.lead, self.aug, self.tau = lead[-1:], aug[-1:], taus[-1:]
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
    tracker = _TauTracker(pt.n, convention, lam0)
    taus, hs, flags = tracker.step(flow.points, flow.times)
    pairs = lambda keys, vals: {f"{n},{k}": [v.real, v.imag]
                                for (n, k), v in zip(keys, vals.tolist())}
    return [{
        "t": float(t),
        "u": [[z.real, z.imag] for z in u.ravel().tolist()],
        "h": pairs(tracker.h_keys, h),
        "tau": pairs(tracker.keys, tau),
        "branch_flags": {str(n): bool(f) for n, f in enumerate(flag, start=1)},
    } for t, u, tau, h, flag in zip(flow.times, flow.points, taus, hs, flags)]


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
    tracker = _TauTracker(pt.n, convention, lam0)
    taus, _, _ = tracker.step(flow.points, flow.times)
    times = np.asarray(flow.times, dtype=float)
    tbar = times - times.mean()
    denom = float(np.sum(tbar * tbar))
    slopes = {}
    errors = []
    for key, ys in zip(tracker.keys, taus.T):
        slope = complex(np.sum(tbar * (ys - ys.mean())) / denom)
        slopes[key] = slope
        errors.append(abs(slope - (1.0 if key == selector else 0.0)))
    # np.max keeps a NaN error (max() would drop it), so a NaN slope fails
    max_err = float(np.max(errors)) if errors else 0.0
    return LinearizationReport(
        selector=selector, samples=len(times), slopes=slopes, tolerance=tol,
        max_error=max_err, status="ok" if max_err <= tol else "violation")
