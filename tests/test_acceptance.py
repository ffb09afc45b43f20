"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
alongside the pytest verdicts.  Every tolerance is pinned here.
"""

import random
import time

import numpy as np
import pytest

from gztower.families import (
    FamilySpec,
    build_family,
    independence_rank,
    random_rational_matrix,
    verify_commutes,
)
from gztower.orbits import (
    OrbitTangent,
    random_spectrum,
    residue_form_check,
    sample_orbit,
    verify_canonical_chart,
)
from gztower.poisson import (
    G,
    U,
    UTILDE,
    PoissonPoly,
    bracket,
    canonical_bracket,
    evaluate,
    poly_function,
    random_canonical_point,
)
from gztower.polytools import lambda_minor_det
from gztower.quantum import verify_quantum_commutes
from gztower.tower import (
    action_angle_bracket_table,
    build_tower,
    differentials,
    hamiltonian_flow,
    linearization_check,
)


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_exact_classical_commutativity():
    elapsed = {}
    ok = True
    for n in (2, 3, 4):
        t0 = time.monotonic()
        rep = verify_commutes(build_family(FamilySpec("gz-principal", n, "both")))
        elapsed[n] = time.monotonic() - t0
        ok = ok and rep.status == "ok" and rep.max_nonzero_terms == 0
    ok = ok and elapsed[4] < 600.0
    _verdict(1, ok, "GZ principal family brackets to exact zero for "
                    f"N=2,3,4 (N=4 in {elapsed[4]:.2f}s)")


def test_criterion_02_independence_rank():
    ok = True
    for n in (2, 3):
        fam = build_family(FamilySpec("gz-principal", n, "both"))
        rng = np.random.default_rng(100 + n)
        ranks = [independence_rank(fam, random_canonical_point(n, rng))
                 for _ in range(5)]
        ok = ok and all(r == n * n for r in ranks)
    _verdict(2, ok, "independence rank equals N^2 at 5 random points for N=2,3")


def test_criterion_03_mishchenko_fomenko_commutativity():
    rng = random.Random(7)
    ok = True
    for _ in range(3):
        spec = FamilySpec("mf", 3, side="left",
                          shift=random_rational_matrix(3, rng))
        rep = verify_commutes(build_family(spec))
        ok = ok and rep.status == "ok"
    _verdict(3, ok, "shift-of-argument family brackets to exact zero for N=3, "
                    "3 random rational shift matrices")


def test_criterion_04_quantum_centrality_and_commutativity():
    t0 = time.monotonic()
    reps = {n: verify_quantum_commutes(n) for n in (2, 3)}
    elapsed = time.monotonic() - t0
    ok = all(r.status == "ok" for r in reps.values())
    ok = ok and elapsed < 300.0
    conventions = {n: r.convention for n, r in reps.items()}
    _verdict(4, ok, "quantum determinants central and family commutes for "
                    f"N=2,3 in {elapsed:.2f}s; rho convention {conventions}")


def test_criterion_05_oracle_concordance():
    tol = 1e-5
    worst = 0.0
    samples = 0
    for n in (2, 3):
        rng = np.random.default_rng(200 + n)

        def random_poly():
            poly = PoissonPoly.zero(n)
            for _ in range(int(rng.integers(1, 3))):
                term = PoissonPoly.constant(n, int(rng.integers(-3, 4)) or 1)
                for _ in range(int(rng.integers(1, 3))):
                    kind = int(rng.choice([U, UTILDE, G]))
                    term = term * PoissonPoly.generator(
                        n, kind, int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
                poly = poly + term
            return poly

        for _ in range(55):
            a, b = random_poly(), random_poly()
            pt = random_canonical_point(n, rng)
            sym = evaluate(bracket(a, b), pt)
            num = canonical_bracket(poly_function(a), poly_function(b), pt)
            worst = max(worst, abs(sym - num))
            samples += 1
    ok = samples >= 100 and worst < tol
    _verdict(5, ok, f"symbolic brackets match the canonical oracle on {samples} "
                    f"samples, max deviation {worst:.2e} < {tol}")


def test_criterion_06_canonical_chart():
    rng = np.random.default_rng(42)
    worst = 0.0
    ok = True
    winners = set()
    for _ in range(5):
        pt = sample_orbit(random_spectrum(3, rng), seed=rng)
        rep = verify_canonical_chart(pt, tolerance=1e-5)
        ok = ok and rep.status == "ok"
        winners.add(rep.winner)
        worst = max(worst, rep.max_deviation, rep.casimir_deviation)
    ok = ok and winners == {"rows"}
    _verdict(6, ok, "full (gamma, theta) bracket table canonical to 1e-5 on 5 "
                    f"random N=3 orbits, max deviation {worst:.2e}; "
                    f"minor convention {sorted(winners)}")


def test_criterion_07_residue_form():
    ok = True
    winners = {}
    for n, spectrum_seed in ((2, 21), (3, 22)):
        rng = np.random.default_rng(spectrum_seed)
        pt = sample_orbit(random_spectrum(n, rng), seed=rng)
        pairs = []
        for _ in range(20):
            x = OrbitTangent(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
            y = OrbitTangent(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
            pairs.append((x, y))
        rep = residue_form_check(pt, pairs, tolerance=1e-4)
        ok = ok and rep.status == "ok"
        winners[n] = rep.winner
    ok = ok and len(set(winners.values())) == 1
    _verdict(7, ok, "one contour convention reproduces the Kirillov-Kostant "
                    f"pairing on 20 tangent pairs for N=2,3: {winners[3]}")


def test_criterion_08_action_angle_pairing():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    rep = action_angle_bracket_table(pt, tolerance=1e-4)
    ok = rep.status == "ok" and rep.max_deviation_upper < 1e-4
    assert rep.keys[0] == (1, 1)
    level_one = {"h(1, 1)|tau(1, 1)": round(abs(rep.h_tau[0, 0]), 6)}
    aug_ok = abs(rep.h_tau[0, 0] - 1.0) < 1e-4
    _verdict(8, ok, "kk(h[n,k], tau[m,l]) = delta within 1e-4 for levels >= 2 "
                    f"(max dev {rep.max_deviation_upper:.2e}); level-1 finding: "
                    f"literal tau[1,1] is identically 0, augmented pairing "
                    f"{level_one} -> conjugate: {aug_ok}")
    assert aug_ok


def test_criterion_09_flows():
    pt = sample_orbit([1.0, 2.0 + 0.5j, -1.0], seed=11)
    ok = True
    details = []
    for selector in ((1, 1), (2, 1), (2, 2)):
        flow = hamiltonian_flow(pt, selector, t_final=1.0, steps=1000,
                                sample_every=100)
        s0 = np.sort_complex(np.linalg.eigvals(pt.u))
        drift = 0.0
        for u in flow.points:
            drift = max(drift, float(np.max(np.abs(
                np.sort_complex(np.linalg.eigvals(u)) - s0))))
            for n in (1, 2, 3):
                block = range(n)
                drift = max(drift, float(np.max(np.abs(
                    lambda_minor_det(u, block, block) - lambda_minor_det(pt.u, block, block)))))
        lin = linearization_check(pt, selector, t_final=0.1, tolerance=1e-3)
        ok = ok and drift < 1e-8 and lin.status == "ok"
        details.append(f"h{selector}: drift {drift:.1e}, slope err {lin.max_error:.1e}")
    _verdict(9, ok, "spectrum and family conserved to 1e-8 over t in [0,1] and "
                    "conjugate tau slope 1 +- 1e-3 over [0,0.1] "
                    f"({'; '.join(details)})")


def test_criterion_10_residue_sum_rule():
    rng = np.random.default_rng(77)
    worst = 0.0
    towers = 0
    for _ in range(21):
        n = int(rng.integers(2, 5))
        pt = sample_orbit(random_spectrum(n, rng), seed=rng)
        desc = build_tower(pt)
        for level in desc.levels:
            sums = differentials(level.gamma).sum(axis=0)
            for k, s in enumerate(sums):
                expected = 1.0 if k == level.n - 1 else 0.0
                worst = max(worst, abs(s - expected))
        towers += 1
    ok = towers >= 20 and worst < 1e-12
    _verdict(10, ok, f"residue sums equal delta(k,n) across all levels of "
                     f"{towers} random towers, max deviation {worst:.2e} < 1e-12")
