"""Command-line front end: verification batteries with JSON reports.

Subcommands
-----------
verify-classical   exact commutativity, independence rank and the numeric
                   check of the coordinate family
verify-quantum     quantum-determinant centrality, family commutativity and
                   the differential-operator realization
orbit              chart construction, canonicity sweep, tower assembly and
                   (optionally) the contour-form and action-angle checks
flow               Hamiltonian flow, its linearization report and, with
                   --trajectory, a JSON-lines trajectory

Reports are JSON on stdout (or --output), human summaries go to stderr.
Exit codes: 0 all checks passed, 1 a check found a violation, 2 the
configuration was invalid.  Identical configurations produce byte-identical
reports apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import families, orbits, quantum, tower
from .poisson import random_canonical_point

SCHEMA = "gz-tower/1"
OUTPUT_DIR_ENV = "GZTOWER_OUTPUT_DIR"


@dataclass
class RunConfig:
    command: str
    n: int
    seed: int = 0
    family: str | None = None
    side: str = "both"
    shift_matrix: str | None = None
    points: int = 5
    trials: int = 12
    allow_large: bool = False
    spectrum: list[complex] | None = None
    checks: list[str] = field(default_factory=list)
    pairs: int = 20
    hamiltonian: tuple[int, int] | None = None
    t_final: float = 1.0
    steps: int = 1000
    lam0: complex | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    output: str | None = None
    trajectory: str | None = None

    def to_json(self) -> dict:
        data = asdict(self)
        if self.spectrum is not None:
            data["spectrum"] = [[z.real, z.imag] for z in self.spectrum]
        if self.lam0 is not None:
            data["lam0"] = [self.lam0.real, self.lam0.imag]
        if self.hamiltonian is not None:
            data["hamiltonian"] = list(self.hamiltonian)
        return data


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def _emit(report: dict, output: str | None, summary: str) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=_jsonify)
    path = _resolve_output(output)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


def _base_report(config: RunConfig) -> dict:
    return {
        "schema": SCHEMA,
        "command": config.command,
        "config": config.to_json(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


class ConfigError(ValueError):
    pass


# the tolerances each subcommand reads, with their defaults; --tolerance
# overrides them by name, and the report's config holds the values used
TOLERANCES = {
    "verify-classical": {"trivial": 1e-5},
    "verify-quantum": {},
    "orbit": {"chart": 1e-5, "residue": 1e-4, "action_angle": 1e-4},
    "flow": {"regularity": 1e-6, "linearization": 1e-3},
}
# Fixed bounds: relative chart residuals (orbit) and the drift of every
# action along a flow.
CHART_RESIDUAL_TOLERANCE = 1e-9
CONSERVATION_TOLERANCE = 1e-8


def _parse_complex(text: str, what: str) -> complex:
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{what} {text!r} is not finite")
    return value


def _parse_spectrum(text: str, n: int) -> list[complex]:
    values = [_parse_complex(part, "spectrum entry") for part in text.split(",")]
    if len(values) != n:
        raise ConfigError(f"spectrum has {len(values)} entries, expected {n}")
    return values


def _at_least_one(name: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"--{name} must be >= 1, got {value}")
    return value


def _parse_shift(text: str, n: int, rng: np.random.Generator):
    if text == "random-rational":
        return families.random_rational_matrix(n, rng)
    if text == "identity":
        return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    if text.startswith("diag:"):
        try:
            diag = [Fraction(x) for x in text[5:].split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse shift matrix {text!r}") from exc
        if len(diag) != n:
            raise ConfigError("diagonal shift has the wrong length")
        return tuple(tuple(diag[i] if i == j else Fraction(0) for j in range(n))
                     for i in range(n))
    raise ConfigError(f"unknown shift matrix spec {text!r}")


def _parse_tolerances(items: list[str], command: str) -> dict[str, float]:
    out = dict(TOLERANCES[command])
    for item in items:
        name, _, text = (part.strip() for part in item.partition("="))
        if name not in out:
            raise ConfigError(f"{command} reads no tolerance {name!r} "
                              f"(it reads: {', '.join(out) or 'none'})")
        try:
            out[name] = float(text)
        except ValueError as exc:
            raise ConfigError(f"tolerance must be name=number, got {item!r}") from exc
        if not (np.isfinite(out[name]) and out[name] > 0):
            raise ConfigError(f"tolerance {name} must be finite and > 0, got {text!r}")
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_classical(config: RunConfig) -> tuple[int, dict]:
    rng = np.random.default_rng(config.seed)
    report = _base_report(config)
    statuses = []
    trivial_tol = config.tolerances["trivial"]

    if config.family == "trivial":
        triv = families.verify_trivial_numeric(config.n, pt_count=config.points,
                                               seed=config.seed, tol=trivial_tol)
        report["trivial"] = triv.to_json()
        statuses.append(triv.status)
    else:
        kind = {"gz": "gz-principal", "gz-corner": "gz-corner", "mf": "mf"}[config.family]
        shift = None
        if kind == "mf":
            shift = _parse_shift(config.shift_matrix or "random-rational",
                                 config.n, rng)
        spec = families.FamilySpec(kind=kind, n=config.n,
                                   side="left" if kind == "mf" else config.side,
                                   shift=shift)
        fam = families.build_family(spec)
        commutes = families.verify_commutes(fam)
        report["commutation"] = commutes.to_json()
        statuses.append(commutes.status)

        ranks = []
        for _ in range(config.points):
            pt = random_canonical_point(config.n, rng)
            ranks.append(families.independence_rank(fam, pt))
        expected = config.n ** 2 if (kind == "gz-principal" and spec.side == "both") else None
        rank_ok = expected is None or max(ranks) == expected
        report["independence"] = {
            "ranks": ranks,
            "expected": expected,
            "status": "ok" if rank_ok else "violation",
        }
        statuses.append(report["independence"]["status"])

        triv = families.verify_trivial_numeric(config.n, pt_count=min(config.points, 5),
                                               seed=config.seed, tol=trivial_tol)
        report["trivial"] = triv.to_json()
        statuses.append(triv.status)

    ok = all(s == "ok" for s in statuses)
    report["status"] = "ok" if ok else "violation"
    return (0 if ok else 1), report


def cmd_verify_quantum(config: RunConfig) -> tuple[int, dict]:
    report = _base_report(config)
    qrep = quantum.verify_quantum_commutes(config.n, allow_large=config.allow_large)
    drep = quantum.diffop_realization_check(config.n, trials=config.trials,
                                            seed=config.seed)
    report["quantum"] = qrep.to_json()
    report["diffop_realization"] = drep.to_json()
    report["convention"] = qrep.convention
    ok = qrep.status == "ok" and drep.status == "ok"
    report["status"] = "ok" if ok else "violation"
    return (0 if ok else 1), report


def cmd_orbit(config: RunConfig) -> tuple[int, dict]:
    report = _base_report(config)
    pt = orbits.sample_orbit(config.spectrum, seed=config.seed)
    report["orbit"] = pt.to_json()
    statuses = []

    canon = orbits.verify_canonical_chart(pt, tolerance=config.tolerances["chart"])
    report["canonical_chart"] = canon.to_json()
    statuses.append(canon.status)
    convention = orbits.DEFAULT_MINOR_CONVENTION
    if canon.winner is not None:
        convention = orbits.MinorConvention(
            rows_variant=canon.winner.startswith("rows"),
            sign=1 if canon.winner.endswith("+") else -1)

    chart = orbits.gz_forward(pt, convention=convention)
    res_a, res_c = orbits.chart_residuals(chart, pt)
    report["chart"] = chart.to_json()
    report["chart_residuals"] = {
        "minor_coefficients": res_a, "angle_relation": res_c,
        "tolerance": CHART_RESIDUAL_TOLERANCE,
        "relative_to": "per level: max(1, max|a_n|) and max(1, max|C_n(gamma)|)",
        "status": "ok" if max(res_a, res_c) < CHART_RESIDUAL_TOLERANCE else "violation"}
    statuses.append(report["chart_residuals"]["status"])

    desc = tower.build_tower(pt, lam0=config.lam0, convention=convention)
    report["tower"] = desc.to_json()

    if any(c in config.checks for c in ("residue-form", "all")):
        rng = np.random.default_rng(config.seed + 1)
        draw = lambda: orbits.OrbitTangent(rng.standard_normal((pt.n, pt.n))
                                           + 1j * rng.standard_normal((pt.n, pt.n)))
        rrep = orbits.residue_form_check(
            pt, [(draw(), draw()) for _ in range(config.pairs)],
            tolerance=config.tolerances["residue"], convention=convention)
        report["residue_form"] = rrep.to_json()
        statuses.append(rrep.status)

    if any(c in config.checks for c in ("action-angle", "all")):
        arep = tower.action_angle_bracket_table(
            pt, convention=convention, tolerance=config.tolerances["action_angle"])
        report["action_angle"] = arep.to_json()
        statuses.append(arep.status)

    ok = all(s == "ok" for s in statuses)
    report["status"] = "ok" if ok else "violation"
    return (0 if ok else 1), report


def cmd_flow(config: RunConfig) -> tuple[int, dict]:
    report = _base_report(config)
    pt = orbits.sample_orbit(config.spectrum, seed=config.seed)
    report["orbit"] = pt.to_json()
    reg_gap = config.tolerances["regularity"]
    try:
        records = tower.trajectory_records(
            pt, config.hamiltonian, t_final=config.t_final, steps=config.steps,
            lam0=config.lam0, reg_gap=reg_gap)
    except tower.RegularityLostError as exc:
        report["status"] = "violation"
        report["error"] = {"kind": "regularity-lost", "time": exc.time}
        return 1, report

    traj_path = _resolve_output(config.trajectory)
    if traj_path:
        with open(traj_path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True, default=_jsonify) + "\n")
        report["trajectory_file"] = traj_path
    report["samples"] = len(records)

    h0 = records[0]["h"]
    drift = 0.0
    for rec in records:
        for key, val in rec["h"].items():
            ref = h0[key]
            drift = max(drift, abs(complex(val[0], val[1]) - complex(ref[0], ref[1])))
    report["conservation"] = {
        "max_h_drift": drift,
        "status": "ok" if drift < CONSERVATION_TOLERANCE else "violation"}

    lin = tower.linearization_check(
        pt, config.hamiltonian,
        t_final=min(config.t_final, 0.1),
        tol=config.tolerances["linearization"],
        lam0=config.lam0)
    report["linearization"] = lin.to_json()
    ok = report["conservation"]["status"] == "ok" and lin.status == "ok"
    report["status"] = "ok" if ok else "violation"
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gz-tower",
        description="verification battery for the commuting-minor integrable "
                    "structure on T*GL(N)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, help="ambient size N")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the JSON report to this file")
        p.add_argument("--tolerance", action="append", default=[],
                       metavar="NAME=VALUE", help="override a named tolerance")

    p = sub.add_parser("verify-classical", help="exact classical commutativity")
    common(p)
    p.add_argument("--family", choices=["gz", "gz-corner", "mf", "trivial"],
                   default="gz")
    p.add_argument("--side", choices=["left", "right", "both"], default="both")
    p.add_argument("--shift-matrix", default="random-rational",
                   help="mf only: random-rational | identity | diag:a,b,...")
    p.add_argument("--points", type=int, default=5,
                   help="random points for rank and numeric checks")

    p = sub.add_parser("verify-quantum", help="quantum centrality and commutativity")
    common(p)
    p.add_argument("--allow-large", action="store_true",
                   help="lift the N<=5 cost guard")
    p.add_argument("--trials", type=int, default=12,
                   help="random polynomials for the operator realization check")

    p = sub.add_parser("orbit", help="chart, tower and canonicity checks")
    common(p)
    p.add_argument("--spectrum", required=True,
                   help="comma-separated eigenvalues, complex allowed")
    p.add_argument("--check", action="append", default=[],
                   choices=["chart", "residue-form", "action-angle", "all"],
                   help="additional checks beyond chart+tower")
    p.add_argument("--pairs", type=int, default=20,
                   help="tangent pairs for the residue-form sweep")
    p.add_argument("--lam0", help="base point for angle integrals")

    p = sub.add_parser("flow", help="Hamiltonian flow and linearization")
    common(p)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--hamiltonian", required=True, metavar="n,k",
                   help="action selector h[n,k]")
    p.add_argument("--t", type=float, default=1.0, dest="t_final")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--trajectory",
                   help="JSON-lines trajectory output path (none written without it)")
    p.add_argument("--lam0")
    return parser


def _config_from_args(args) -> RunConfig:
    if args.n < 1:
        raise ConfigError(f"ambient size must be >= 1, got {args.n}")
    config = RunConfig(command=args.command, n=args.n, seed=args.seed,
                       output=args.output,
                       tolerances=_parse_tolerances(args.tolerance, args.command))
    if args.command == "verify-classical":
        config.family = args.family
        config.side = args.side
        config.shift_matrix = args.shift_matrix
        config.points = _at_least_one("points", args.points)
    elif args.command == "verify-quantum":
        config.allow_large = args.allow_large
        config.trials = _at_least_one("trials", args.trials)
    elif args.command in ("orbit", "flow"):
        config.spectrum = _parse_spectrum(args.spectrum, args.n)
        if args.lam0 is not None:
            config.lam0 = _parse_complex(args.lam0, "--lam0")
        if args.command == "orbit":
            config.checks = args.check
            config.pairs = _at_least_one("pairs", args.pairs)
        else:
            try:
                nk = [int(x) for x in args.hamiltonian.split(",")]
                config.hamiltonian = (nk[0], nk[1])
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"cannot parse selector {args.hamiltonian!r}") from exc
            if not (1 <= config.hamiltonian[0] <= args.n
                    and 1 <= config.hamiltonian[1] <= config.hamiltonian[0]):
                raise ConfigError(f"no action h[{args.hamiltonian}] at N={args.n}")
            if args.t_final == 0 or not np.isfinite(args.t_final):
                raise ConfigError(f"--t must be finite and nonzero, got {args.t_final}")
            config.t_final = args.t_final
            config.steps = _at_least_one("steps", args.steps)
            config.trajectory = args.trajectory
    return config


_COMMANDS = {
    "verify-classical": cmd_verify_classical,
    "verify-quantum": cmd_verify_quantum,
    "orbit": cmd_orbit,
    "flow": cmd_flow,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report = _COMMANDS[args.command](config)
    except (ConfigError, quantum.SizeGuardError, orbits.OrbitError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except tower.TowerError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    summary = f"{args.command}: {report.get('status', 'done')}"
    _emit(report, config.output, summary)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
