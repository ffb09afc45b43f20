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
Each subcommand fills its report's sections, and one function, _conclude,
reads the report's status from them: ok when at least one section is graded
(a top-level dict with a status), every graded section is ok and no check
stopped with an error; else violation.  Exit codes: 0 the status is ok, 1 it
is a violation, 2 the configuration was invalid, 3 a check crashed (a
traceback on stderr and no report).  Identical configurations produce
byte-identical reports apart from the timestamp field.

build_parser alone declares each subcommand's options and their defaults;
a report's config is the namespace that _config_from_args checked and
normalised, so it lists exactly the subcommand's own options.

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
every layer's records are NamedTuples, so no subcommand loads dataclasses,
and only orbit and flow load numpy, with their layers.  Of the standard
library it imports at module level only what every subcommand needs:
argparse, gc, json, math, os, re, sys and time, and contextmanager from
contextlib.  The timestamp comes from time.time_ns() rather than datetime,
finiteness tests use math rather than cmath, and fractions (which loads
decimal and numbers) and random are imported where verify-classical uses
them, so orbit and flow load no fractions, decimal or cmath, and no
subcommand loads datetime or cmath unless numpy does.  An orbit or flow
check that stops on a TowerError is a violation report whose error gives its
kind, message, level and, on a flow, the failing sample's time.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import time
from contextlib import contextmanager

SCHEMA = "gz-tower/1"
OUTPUT_DIR_ENV = "GZTOWER_OUTPUT_DIR"


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


def _utc_timestamp() -> str:
    """Now in UTC, as datetime.now(timezone.utc).isoformat() writes it
    (no fraction on a whole second), without importing datetime."""
    seconds, ns = divmod(time.time_ns(), 10**9)
    us = ns // 1000
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{us:06d}+00:00" if us else f"{stamp}+00:00"


def _json_option(value):
    """An option's value as JSON: a complex number as [re, im], a sequence
    as a list."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_json_option(item) for item in value]
    return value


def _base_report(config: argparse.Namespace) -> dict:
    """The report's head; its config is the subcommand's own options, as
    _config_from_args normalised them."""
    return {
        "schema": SCHEMA,
        "command": config.command,
        "config": {key: _json_option(value) for key, value in vars(config).items()
                   if key != "command"},
        "timestamp": _utc_timestamp(),
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


def _stopped(report: dict, exc: Exception) -> dict:
    """End the report of a check that stopped on the TowerError exc with an
    error that gives exc's kind, time (None off a flow), level and message."""
    report["error"] = dict(kind=_error_kind(exc), time=exc.time, level=exc.level, message=str(exc))
    return report


def _conclude(report: dict) -> int:
    """Set the report's status from its graded sections, the top-level dicts
    with a status, and return the exit code: ok (0) when at least one
    section is graded, every graded section is ok and no check stopped with
    an error, so no report passes on zero checks; else violation (1)."""
    grades = [section["status"] for section in report.values()
              if isinstance(section, dict) and "status" in section]
    ok = bool(grades) and all(g == "ok" for g in grades) and "error" not in report
    report["status"] = "ok" if ok else "violation"
    return 0 if ok else 1


# the tolerances each subcommand reads, with their defaults; --tolerance
# overrides them by name, and the report's config holds the values used
TOLERANCES = {
    "verify-classical": {"trivial": 1e-5},
    "verify-quantum": {},
    "orbit": {"chart": 1e-5, "residue": 1e-4, "action_angle": 1e-4},
    "flow": {"linearization": 1e-3},
}
# the --shift-matrix default, a random rational shift drawn from --seed
RANDOM_SHIFT = "random-rational"
# Fixed bounds: relative chart residuals (orbit) and the drift of every
# action along a flow.
CHART_RESIDUAL_TOLERANCE = 1e-9
CONSERVATION_TOLERANCE = 1e-8
# The smallest |--t|: the linearization fit divides by a sum of squared
# sample times, and below it their squares leave the normal float range.
MIN_ABS_T = math.sqrt(sys.float_info.min)


def _parse_complex(text: str, what: str) -> complex:
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"{what} {text!r} is not finite")
    return value


def _parse_spectrum(text: str, n: int) -> list[complex]:
    values = [_parse_complex(part, "spectrum entry") for part in text.split(",")]
    if len(values) != n:
        raise ConfigError(f"spectrum has {len(values)} entries, expected {n}")
    return values


def _at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"--{name} must be >= 1, got {value}")


def _parse_shift(text: str, n: int, rng):
    from fractions import Fraction      # here, so orbit and flow never load decimal

    if text == RANDOM_SHIFT:
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

def cmd_verify_classical(config: argparse.Namespace) -> dict:
    import random

    from . import families

    rng = random.Random(config.seed)
    report = _base_report(config)

    if config.family != "trivial":
        kind = {"gz": "gz-principal", "gz-corner": "gz-corner", "mf": "mf"}[config.family]
        shift = None
        if kind == "mf":
            shift = _parse_shift(config.shift_matrix, config.n, rng)
        spec = families.FamilySpec(kind=kind, n=config.n,
                                   side="left" if kind == "mf" else config.side,
                                   shift=shift)
        fam = families.build_family(spec)
        report["commutation"] = families.verify_commutes(fam).to_json()

        ranks = []
        for _ in range(config.points):
            pt = families.random_residue_point(config.n, rng)
            ranks.append(families.independence_rank(fam, pt))
        expected = config.n ** 2 if (kind == "gz-principal" and spec.side == "both") else None
        report["independence"] = {
            "ranks": ranks,
            "prime": families.PRIME,
            "expected": expected,
            "status": "ok" if expected is None or max(ranks) == expected else "violation",
        }

    points = config.points if config.family == "trivial" else min(config.points, 5)
    report["trivial"] = families.verify_trivial_numeric(
        config.n, pt_count=points, seed=config.seed, tol=config.tolerances["trivial"]).to_json()
    return report


def cmd_verify_quantum(config: argparse.Namespace) -> dict:
    from . import quantum

    report = _base_report(config)
    with _layer_errors(config=quantum.SizeGuardError):
        qrep = quantum.verify_quantum_commutes(config.n, allow_large=config.allow_large)
    drep = quantum.diffop_realization_check(config.n, trials=config.trials,
                                            seed=config.seed)
    report["quantum"] = qrep.to_json()
    report["diffop_realization"] = drep.to_json()
    return report


def cmd_orbit(config: argparse.Namespace) -> dict:
    from . import orbits, tower

    with _layer_errors(config=orbits.OrbitError):
        report = _base_report(config)
        pt = orbits.sample_orbit(config.spectrum, seed=config.seed)
        report["orbit"] = pt.to_json()
        report["canonical_chart"] = orbits.verify_canonical_chart(
            pt, tolerance=config.tolerances["chart"]).to_json()

        chart = orbits.gz_forward(pt)
        res_a, res_c = orbits.chart_residuals(chart, pt)
        report["chart"] = chart.to_json()
        tol = CHART_RESIDUAL_TOLERANCE
        report["chart_residuals"] = {
            "root_residual": res_a, "angle_relation": res_c, "tolerance": tol,
            "relative_to": "per puncture: |u_n|_2; per level: max(1, max|C_n(gamma)|)",
            "status": "ok" if res_a <= tol and res_c <= tol else "violation"}

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
            report["residue_form"] = orbits.residue_form_check(
                pt, [(draw(), draw()) for _ in range(config.pairs)],
                tolerance=config.tolerances["residue"]).to_json()

        if any(c in config.checks for c in ("action-angle", "all")):
            report["action_angle"] = tower.action_angle_bracket_table(
                pt, tolerance=config.tolerances["action_angle"]).to_json()
        return report


def cmd_flow(config: argparse.Namespace) -> dict:
    from . import orbits, tower

    with _layer_errors(config=orbits.OrbitError):
        report = _base_report(config)
        pt = orbits.sample_orbit(config.spectrum, seed=config.seed)
        report["orbit"] = pt.to_json()
        traj_path = _resolve_output(config.trajectory)
        # an error in either flow stops the check at the time of its
        # failing sample
        try:
            records = tower.trajectory_records(
                pt, config.hamiltonian, t_final=config.t_final, steps=config.steps,
                lam0=config.lam0)
            lin = tower.linearization_check(
                pt, config.hamiltonian,
                t_final=max(-0.1, min(config.t_final, 0.1)),
                tol=config.tolerances["linearization"], lam0=config.lam0)
        except tower.TowerError as exc:
            # empty what an earlier run left at the path config names; make no file
            if traj_path and os.path.exists(traj_path):
                open(traj_path, "w").close()
            return _stopped(report, exc)

        if traj_path:
            with open(traj_path, "w") as fh:
                fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
            report["trajectory_file"] = traj_path
        report["samples"] = len(records)

        h0 = records[0]["h"]
        drift = max(0.0, *(abs(complex(*val) - complex(*h0[key]))
                           for rec in records for key, val in rec["h"].items()))
        report["conservation"] = {
            "max_h_drift": drift, "tolerance": CONSERVATION_TOLERANCE,
            "status": "ok" if drift <= CONSERVATION_TOLERANCE else "violation"}
        report["linearization"] = lin.to_json()
        return report


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
        p.add_argument("--tolerance", action="append", default=[], dest="tolerances",
                       metavar="NAME=VALUE", help="override a named tolerance")

    p = sub.add_parser("verify-classical", help="exact classical commutativity")
    common(p)
    p.add_argument("--family", choices=["gz", "gz-corner", "mf", "trivial"],
                   default="gz")
    p.add_argument("--side", choices=["left", "right", "both"], default="both")
    p.add_argument("--shift-matrix", default=RANDOM_SHIFT,
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
    p.add_argument("--check", action="append", default=[], dest="checks",
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


def _check_output_path(option: str, path: str | None) -> None:
    """Check that path resolves to a file name in an existing directory, so a
    bad path ends the run before any check instead of after all of them."""
    resolved = _resolve_output(path) or ""
    if os.path.isdir(resolved):
        raise ConfigError(f"{option} {resolved!r} is a directory")
    folder = os.path.dirname(resolved)
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"{option} directory {folder!r} does not exist")


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed options and normalise them in place (complex numbers,
    the action selector, every tolerance the subcommand reads); return args."""
    if args.n < 2:
        raise ConfigError(f"ambient size must be >= 2, got {args.n}: "
                          "below N=2 every check would pass on zero cases")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    _check_output_path("--output", args.output)
    args.tolerances = _parse_tolerances(args.tolerances, args.command)
    if args.command == "verify-classical":
        _at_least_one("points", args.points)
        if args.side == "right" and args.family in ("mf", "trivial"):
            raise ConfigError(f"--side right: {args.family} is one-sided")
        if args.family != "mf" and args.shift_matrix != RANDOM_SHIFT:
            raise ConfigError(f"--shift-matrix is read by mf only, not {args.family}")
    elif args.command == "verify-quantum":
        _at_least_one("trials", args.trials)
    else:
        args.spectrum = _parse_spectrum(args.spectrum, args.n)
        if args.lam0 is not None:
            args.lam0 = _parse_complex(args.lam0, "--lam0")
        if args.command == "orbit":
            _at_least_one("pairs", args.pairs)
        else:
            try:
                level, k = map(int, args.hamiltonian.split(","))
            except ValueError as exc:
                raise ConfigError("selector must be two integers n,k, "
                                  f"got {args.hamiltonian!r}") from exc
            if not 1 <= k <= level <= args.n:
                raise ConfigError(f"no action h[{args.hamiltonian}] at N={args.n}")
            if not (math.isfinite(args.t_final) and abs(args.t_final) >= MIN_ABS_T):
                raise ConfigError(f"--t must be finite with |t| >= {MIN_ABS_T:.3g}, "
                                  f"got {args.t_final}")
            args.hamiltonian = (level, k)
            _check_output_path("--trajectory", args.trajectory)
            _at_least_one("steps", args.steps)
            # else the report would overwrite the trajectory it names
            out, traj = map(_resolve_output, (args.output, args.trajectory))
            if out and traj and os.path.realpath(out) == os.path.realpath(traj):
                raise ConfigError(f"--output and --trajectory name the same file {out!r}")
    return args


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
        report = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    code = _conclude(report)
    _emit(report, config.output, f"{args.command}: {report['status']}")
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
