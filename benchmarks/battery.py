"""The battery workload: 13 public-API checks at N=3 in one long-lived process.

    PYTHONPATH=src python3 benchmarks/battery.py --seed 1 --passes 30 --trace 0

One untimed warm-up pass runs first, so caches are warm and lazy set-up is
done before timing.  --passes timed passes follow.  The first timed pass
repeats the warm-up inputs and must give the same results.  reference.work() is timed before the first timed pass and
after every pass.  With --trace 1 every input set runs twice, untraced and
then traced, so the difference is the tracing overhead.  One JSON object
with per-pass timings and verdicts goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from gztower import families, orbits, poisson, quantum, tower

import check
import gen
import reference
from spans import Tracer

N = 3


def _commutes(kind, shift=None):
    def run(inp, ctx):
        spec = families.FamilySpec(kind=kind, n=N, side="left" if kind == "mf" else "both",
                                   shift=shift(inp) if shift else None)
        fam = families.build_family(spec)
        ctx[kind] = fam
        return families.verify_commutes(fam).to_json()
    pairs = None if kind == "mf" else N * N * (N * N - 1) // 2
    return run, lambda out: check.check_commutation(out, pairs, N)


def _rank(inp, ctx):
    pt = poisson.random_canonical_point(N, np.random.default_rng(inp.rank_point_seed))
    rank = families.independence_rank(ctx["gz-principal"], pt)
    return {"rank": rank, "status": "ok" if rank == N * N else "violation"}


def _sample(inp, ctx):
    pt = orbits.sample_orbit(list(inp.spectrum), seed=inp.orbit_seed)
    ctx["pt"] = pt
    return pt.to_json()


def _sample_problems(out):
    u = np.array([complex(*z) for z in out["u"]]).reshape(N, N)
    eig = np.sort_complex(np.linalg.eigvals(u))
    want = np.sort_complex(np.array([complex(*z) for z in out["spectrum"]]))
    err = float(np.max(np.abs(eig - want)))
    return [] if err < 1e-8 else [f"sample_orbit: spectrum off by {err:.3g}"]


def _tower(inp, ctx):
    desc = tower.build_tower(ctx["pt"])
    return {"levels": len(desc.levels), "status": "ok"}


def _residue(inp, ctx):
    rng = np.random.default_rng(inp.residue_seed)
    draw = lambda: orbits.OrbitTangent(rng.standard_normal((N, N))
                                       + 1j * rng.standard_normal((N, N)))
    pairs = [(draw(), draw()) for _ in range(10)]
    return orbits.residue_form_check(ctx["pt"], pairs).to_json()


# (name, run(inputs, context) -> JSON-ready result, problems(result) -> list)
CHECKS = [
    ("verify_commutes.gz-principal", *_commutes("gz-principal")),
    ("verify_commutes.gz-corner", *_commutes("gz-corner")),
    ("verify_commutes.mf", *_commutes("mf", lambda inp: inp.mf_shift)),
    ("independence_rank", _rank, lambda out: []),
    ("verify_trivial_numeric",
     lambda inp, ctx: families.verify_trivial_numeric(N, pt_count=1, seed=inp.trivial_seed).to_json(),
     lambda out: check.check_trivial(out, 1, 36)),
    ("verify_quantum_commutes",
     lambda inp, ctx: quantum.verify_quantum_commutes(N).to_json(),
     lambda out: check.check_quantum(out, 36, 45)),
    ("diffop_realization_check",
     lambda inp, ctx: quantum.diffop_realization_check(N, trials=12, seed=inp.diffop_seed).to_json(),
     lambda out: check.check_diffop(out, 36)),
    ("sample_orbit", _sample, _sample_problems),
    ("verify_canonical_chart",
     lambda inp, ctx: orbits.verify_canonical_chart(ctx["pt"]).to_json(), check.check_chart),
    ("build_tower", _tower,
     lambda out: [] if out["levels"] == N else [f"build_tower: {out['levels']} levels"]),
    ("residue_form_check", _residue, lambda out: check.check_residue(out, 10)),
    ("action_angle_bracket_table",
     lambda inp, ctx: tower.action_angle_bracket_table(ctx["pt"]).to_json(),
     check.check_action_angle),
    ("linearization_check",
     lambda inp, ctx: tower.linearization_check(ctx["pt"], (2, 1)).to_json(),
     lambda out: check.check_linearization(out, 26, (2, 1))),
]
NAMES = [name for name, _, _ in CHECKS]


def run_pass(inp) -> dict:
    """Time each check; verdict kinds and problems are found outside the timing."""
    ctx: dict = {}
    seconds, kinds, problems, outputs = [], [], [], []
    for name, run, verify in CHECKS:
        t0 = time.perf_counter()
        try:
            out = run(inp, ctx)
        except tower.TowerError as exc:
            seconds.append(time.perf_counter() - t0)
            kinds.append("no-report")
            problems.append(f"{name}: {exc}")
            outputs.append(None)
            continue
        except Exception as exc:  # reported as a crash of this check
            seconds.append(time.perf_counter() - t0)
            kinds.append("crash")
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            outputs.append(None)
            continue
        seconds.append(time.perf_counter() - t0)
        found = verify(out)
        problems += found
        kinds.append("bad-report" if found else out.get("status", "ok"))
        outputs.append(json.dumps(out, sort_keys=True, default=str))
    return {"seconds": seconds, "kinds": kinds, "problems": problems, "outputs": outputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    inputs = gen.battery_passes(args.seed)
    warm = run_pass(next(inputs))
    tracer = Tracer() if args.trace else None
    passes = []
    refs = [reference.seconds()]
    deterministic = True
    for _ in range(args.passes):
        inp = next(inputs)
        modes = (False, True) if tracer else (False,)
        for traced in modes:
            if traced:
                tracer.install()
            try:
                result = run_pass(inp)
            finally:
                if traced:
                    tracer.uninstall()
            if not passes:
                deterministic &= result["outputs"] == warm["outputs"]
            del result["outputs"]
            result["traced"] = traced
            passes.append(result)
        refs.append(reference.seconds())
    json.dump({"names": NAMES, "passes": passes, "refs": refs, "deterministic": deterministic,
               "spans": tracer.summary() if tracer else None}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
