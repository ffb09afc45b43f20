"""Command-line front end: verification batteries with JSON reports.

Subcommands
-----------
verify-classical   exact commutativity, the exact independence rank over
                   GF(p) and the numeric check of the coordinate family
verify-quantum     quantum-determinant centrality, family commutativity and
                   the differential-operator realization
orbit              chart construction, canonicity sweep, tower assembly and
                   (optionally) the contour-form and action-angle checks
flow               Hamiltonian flow, its linearization report and, with
                   --trajectory, a JSON-lines trajectory

Reports are JSON on stdout (or --output), human summaries go to stderr.
Exit codes: 0 all checks passed, 1 a check found a violation, 2 the
configuration was invalid, 3 a check crashed (a traceback on stderr and no
report).  Identical configurations produce byte-identical reports apart from
the timestamp field.

A gz-tower process (``entry``, behind the console script and
``python -m gztower.cli``) runs without the cyclic collector: it disables it
before main() and freezes every object after, so neither the run nor the
interpreter's exit spends time on collections.  Each subcommand leaves a
constant amount of cyclic garbage, whatever the problem size (the parser and
first-time imports), and a test pins that.  Normal finalization, atexit
handlers and stream flushing stay.  main() itself leaves the collector as it
found it, so in-process callers keep theirs.

Each subcommand imports only the layers it runs (verify-classical: families
and poisson; verify-quantum: quantum; orbit and flow: orbits and tower), and
translates their configuration errors into ConfigError where it calls them,
so this module imports no layer.  Nor does it import numpy or dataclasses:
RunConfig and every layer's records are NamedTuples, so no subcommand loads
dataclasses, and only orbit and flow load numpy, with their layers.  An orbit
or flow check that stops on a TowerError is a violation report whose error
gives its kind and, on a flow, the failing sample's time.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import random
import re
import sys
from collections.abc import Mapping
from contextlib import contextmanager
from datetime import datetime, timezone
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

SCHEMA = "gz-tower/1"
OUTPUT_DIR_ENV = "GZTOWER_OUTPUT_DIR"


class RunConfig(NamedTuple):
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
    checks: tuple[str, ...] = ()
    pairs: int = 20
    hamiltonian: tuple[int, int] | None = None
    t_final: float = 1.0
    steps: int = 1000
    lam0: complex | None = None
    tolerances: Mapping[str, float] = MappingProxyType({})
    output: str | None = None
    trajectory: str | None = None

    def to_json(self) -> dict:
        data = self._asdict()
        data.update(checks=list(self.checks), tolerances=dict(self.tolerances))
        if self.spectrum is not None:
            data["spectrum"] = [[z.real, z.imag] for z in self.spectrum]
        if self.lam0 is not None:
            data["lam0"] = [self.lam0.real, self.lam0.imag]
        if self.hamiltonian is not None:
            data["hamiltonian"] = list(self.hamiltonian)
        return data


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def _emit(report: dict, output: str | None, summary: str) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
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


@contextmanager
def _layer_errors(config):
    """Re-raise a layer's `config` errors as ConfigError."""
    try:
        yield
    except config as exc:
        raise ConfigError(str(exc)) from exc


def _error_kind(exc: Exception) -> str:
    """The class name in kebab case without "Error": BranchJumpError -> branch-jump."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__.removesuffix("Error")).lower()


def _stopped(report: dict, exc: Exception) -> tuple[int, dict]:
    """End the report of a check that stopped on the TowerError exc: a
    violation whose error gives exc's kind and time (None off a flow)."""
    report["status"] = "violation"
    report["error"] = {"kind": _error_kind(exc), "time": exc.time}
    return 1, report


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
    if not cmath.isfinite(value):
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


def _parse_shift(text: str, n: int, rng):
    if text == "random-rational":
        from .families import random_rational_matrix
        return random_rational_matrix(n, rng)
    if text == "identity":
        return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    if text.startswith("diag:"):
        try:
            diag = [Fraction(x) for x in text[5:].split(",")]
            for x in diag:
                float(x)        # like every number the CLI reads, in float range
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
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
        if not (math.isfinite(out[name]) and out[name] > 0):
            raise ConfigError(f"tolerance {name} must be finite and > 0, got {text!r}")
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_classical(config: RunConfig) -> tuple[int, dict]:
    from . import families

    rng = random.Random(config.seed)
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
            pt = families.random_residue_point(config.n, rng)
            ranks.append(families.independence_rank(fam, pt))
        expected = config.n ** 2 if (kind == "gz-principal" and spec.side == "both") else None
        rank_ok = expected is None or max(ranks) == expected
        report["independence"] = {
            "ranks": ranks,
            "prime": families.PRIME,
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
    from . import quantum

    report = _base_report(config)
    with _layer_errors(config=quantum.SizeGuardError):
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
    from . import orbits, tower

    with _layer_errors(config=orbits.OrbitError):
        report = _base_report(config)
        pt = orbits.sample_orbit(config.spectrum, seed=config.seed)
        report["orbit"] = pt.to_json()
        statuses = []

        canon = orbits.verify_canonical_chart(pt, tolerance=config.tolerances["chart"])
        report["canonical_chart"] = canon.to_json()
        statuses.append(canon.status)

        chart = orbits.gz_forward(pt)
        res_a, res_c = orbits.chart_residuals(chart, pt)
        report["chart"] = chart.to_json()
        report["chart_residuals"] = {
            "root_residual": res_a, "angle_relation": res_c,
            "tolerance": CHART_RESIDUAL_TOLERANCE,
            "relative_to": "per puncture: |u_n|_2; per level: max(1, max|C_n(gamma)|)",
            "status": "ok" if max(res_a, res_c) < CHART_RESIDUAL_TOLERANCE else "violation"}
        statuses.append(report["chart_residuals"]["status"])

        try:
            desc = tower.build_tower(pt, lam0=config.lam0)
        except tower.TowerError as exc:
            return _stopped(report, exc)
        report["tower"] = desc.to_json()

        if any(c in config.checks for c in ("residue-form", "all")):
            import numpy as np
            rng = np.random.default_rng(config.seed + 1)
            draw = lambda: orbits.OrbitTangent(rng.standard_normal((pt.n, pt.n))
                                               + 1j * rng.standard_normal((pt.n, pt.n)))
            rrep = orbits.residue_form_check(
                pt, [(draw(), draw()) for _ in range(config.pairs)],
                tolerance=config.tolerances["residue"])
            report["residue_form"] = rrep.to_json()
            statuses.append(rrep.status)

        if any(c in config.checks for c in ("action-angle", "all")):
            arep = tower.action_angle_bracket_table(
                pt, tolerance=config.tolerances["action_angle"])
            report["action_angle"] = arep.to_json()
            statuses.append(arep.status)

        ok = all(s == "ok" for s in statuses)
        report["status"] = "ok" if ok else "violation"
        return (0 if ok else 1), report


def cmd_flow(config: RunConfig) -> tuple[int, dict]:
    from . import orbits, tower

    with _layer_errors(config=orbits.OrbitError):
        report = _base_report(config)
        pt = orbits.sample_orbit(config.spectrum, seed=config.seed)
        report["orbit"] = pt.to_json()
        # both flows check regularity against the same bound, and an error
        # in either one, at the time of its failing sample, is a violation
        reg_gap = config.tolerances["regularity"]
        try:
            records = tower.trajectory_records(
                pt, config.hamiltonian, t_final=config.t_final, steps=config.steps,
                lam0=config.lam0, reg_gap=reg_gap)
            lin = tower.linearization_check(
                pt, config.hamiltonian,
                t_final=max(-0.1, min(config.t_final, 0.1)),
                tol=config.tolerances["linearization"],
                lam0=config.lam0, reg_gap=reg_gap)
        except tower.TowerError as exc:
            return _stopped(report, exc)

        traj_path = _resolve_output(config.trajectory)
        if traj_path:
            with open(traj_path, "w") as fh:
                for rec in records:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
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
        p.add_argument("--n", type=int, required=True, help="ambient size N >= 2")
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
                   help="lift the N<=6 cost guard")
    p.add_argument("--trials", type=int, default=12,
                   help="random polynomials for the operator realization check")

    p = sub.add_parser("orbit", help="chart, tower and canonicity checks")
    common(p)
    p.add_argument("--spectrum", required=True,
                   help="comma-separated eigenvalues, complex allowed")
    p.add_argument("--check", action="append", default=[],
                   choices=["residue-form", "action-angle", "all"],
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


def _output_path(option: str, path: str | None) -> str | None:
    """path, after checking that the directory it resolves into exists, so a
    bad path ends the run before any check instead of after all of them."""
    folder = os.path.dirname(_resolve_output(path) or "")
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"{option} directory {folder!r} does not exist")
    return path


def _config_from_args(args) -> RunConfig:
    if args.n < 2:
        raise ConfigError(f"ambient size must be >= 2, got {args.n}: "
                          "below N=2 every check would pass on zero cases")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    fields = dict(command=args.command, n=args.n, seed=args.seed,
                  output=_output_path("--output", args.output),
                  tolerances=_parse_tolerances(args.tolerance, args.command))
    if args.command == "verify-classical":
        fields.update(family=args.family, side=args.side, shift_matrix=args.shift_matrix,
                      points=_at_least_one("points", args.points))
    elif args.command == "verify-quantum":
        fields.update(allow_large=args.allow_large, trials=_at_least_one("trials", args.trials))
    elif args.command in ("orbit", "flow"):
        fields["spectrum"] = _parse_spectrum(args.spectrum, args.n)
        if args.lam0 is not None:
            fields["lam0"] = _parse_complex(args.lam0, "--lam0")
        if args.command == "orbit":
            fields.update(checks=tuple(args.check), pairs=_at_least_one("pairs", args.pairs))
        else:
            try:
                level, k = map(int, args.hamiltonian.split(","))
            except ValueError as exc:
                raise ConfigError("selector must be two integers n,k, "
                                  f"got {args.hamiltonian!r}") from exc
            if not 1 <= k <= level <= args.n:
                raise ConfigError(f"no action h[{args.hamiltonian}] at N={args.n}")
            if args.t_final == 0 or not math.isfinite(args.t_final):
                raise ConfigError(f"--t must be finite and nonzero, got {args.t_final}")
            fields.update(hamiltonian=(level, k), t_final=args.t_final,
                          trajectory=_output_path("--trajectory", args.trajectory),
                          steps=_at_least_one("steps", args.steps))
    return RunConfig(**fields)


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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    summary = f"{args.command}: {report.get('status', 'done')}"
    _emit(report, config.output, summary)
    return code


def entry() -> None:
    """The process boundary: run main() without the cyclic collector, exit
    with its code, and exit 3 with a traceback and no report on a crash."""
    gc.disable()
    try:
        code = main()
    except Exception:
        import traceback    # only a crash loads it
        traceback.print_exc()
        code = 3
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
