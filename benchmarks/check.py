"""Output checks for the benchmark's reports and battery results.

Each operation ends in one of these kinds:

* ``ok``          a consistent report whose status is "ok";
* ``violation``   a consistent report whose status is "violation";
* ``no-report``   exit 1 with a "check failed:" line and no report
                  (a ``TowerError`` such as ``BranchJumpError``);
* ``crash``       any other exit without a report (traceback, signal, exit 2);
* ``timeout``     killed at the run's deadline;
* ``bad-report``  a report that contradicts itself or its configuration:
                  wrong schema or command, wrong counts, a status that does
                  not follow from the deviations and tolerances it states,
                  or an exit code that does not match the status.

Every kind but ``ok`` is a failed operation.  ``crash`` and ``bad-report``
also make the run's outputs incorrect; violations and ``no-report`` exits are
findings the program reports about itself and are counted, not hidden.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "gz-tower/1"
INCORRECT = ("crash", "bad-report")

# Expected counts per operation: the bracket pairs are C(g, 2) for g family
# generators, N^2 for GZ and quantum.  For mf, g is at most N(N+1)/2: a
# singular random shift matrix makes some coefficients vanish (pairs: None).
EXPECT = {
    "classical-gz5": {"command": "verify-classical", "n": 5, "pairs": 300, "rank": 25,
                      "trivial_points": 1, "trivial_pairs": 300},
    "classical-mf4": {"command": "verify-classical", "n": 4, "pairs": None, "rank": None,
                      "trivial_points": 5, "trivial_pairs": 600},
    "quantum4": {"command": "verify-quantum", "pairs": 120, "centrality": 136,
                 "diffop_checks": 36},
    "orbit5": {"command": "orbit", "n": 5, "residue_pairs": 20},
    "flow5": {"command": "flow", "n": 5, "samples": 41, "lin_samples": 26,
              "selector": [4, 3]},
}


@dataclass
class Verdict:
    kind: str
    problems: list[str] = field(default_factory=list)


def _graded(section: dict, name: str, deviation: float | None) -> list[str]:
    """Status must follow from the stated deviation and tolerance."""
    status = section.get("status")
    if status not in ("ok", "violation"):
        return [f"{name}: status {status!r}"]
    tol = section.get("tolerance")
    if deviation is None or tol is None:
        return [] if status == "violation" else [f"{name}: ok without a deviation"]
    if status == "ok" and not deviation <= tol:
        return [f"{name}: ok with deviation {deviation:.3g} > tolerance {tol:.3g}"]
    if status == "violation" and not deviation >= tol:
        return [f"{name}: violation with deviation {deviation:.3g} < tolerance {tol:.3g}"]
    return []


def _exact(section: dict, name: str) -> list[str]:
    """An exact check is ok exactly when it has no witness."""
    status = section.get("status")
    clean = section.get("witness") is None and section.get("max_nonzero_terms") == 0
    if status not in ("ok", "violation") or (status == "ok") != clean:
        return [f"{name}: status {status!r} with witness {section.get('witness') is not None}"]
    return []


def _count(section: dict, key: str, want, name: str) -> list[str]:
    got = section.get(key)
    return [] if got == want else [f"{name}.{key} = {got!r}, expected {want!r}"]


def check_commutation(sec: dict, pairs: int | None, n: int) -> list[str]:
    """`pairs` None: any C(g, 2) with 2 <= g <= N(N+1)/2 (the mf family)."""
    if pairs is None:
        allowed = [g * (g - 1) // 2 for g in range(2, n * (n + 1) // 2 + 1)]
        pairs = sec.get("pairs") if sec.get("pairs") in allowed else allowed[-1]
    return _exact(sec, "commutation") + _count(sec, "pairs", pairs, "commutation")


def check_trivial(sec: dict, points: int, pairs: int) -> list[str]:
    return (_graded(sec, "trivial", sec.get("max_abs_bracket"))
            + _count(sec, "points", points, "trivial")
            + _count(sec, "pairs", pairs, "trivial"))


def check_quantum(sec: dict, pairs: int, centrality: int) -> list[str]:
    """Counts are fixed once a convention passed centrality."""
    if sec.get("convention") == "none":
        return _count(sec, "status", "violation", "quantum")
    return (_exact(sec, "quantum") + _count(sec, "pairs", pairs, "quantum")
            + _count(sec, "centrality_checks", centrality, "quantum"))


def check_diffop(sec: dict, checks: int) -> list[str]:
    """An ok realization check ran all `checks`; a violation stops early."""
    status = sec.get("status")
    if status == "ok":
        return _count(sec, "checks", checks, "diffop_realization")
    return [] if status == "violation" else [f"diffop_realization: status {status!r}"]


def check_chart(sec: dict) -> list[str]:
    dev = sec.get("max_deviation")
    if dev is not None and sec.get("casimir_deviation") is not None:
        dev = max(dev, sec["casimir_deviation"])
    out = _graded(sec, "canonical_chart", dev)
    if (sec.get("status") == "ok") != (sec.get("winner") is not None):
        out.append("canonical_chart: status and winner disagree")
    return out


def check_residue(sec: dict, pairs: int) -> list[str]:
    devs = [v.get("max_deviation") for v in sec.get("variants", [])]
    out = _graded(sec, "residue_form", min(devs) if devs else None)
    return out + _count(sec, "pairs", pairs, "residue_form")


def check_action_angle(sec: dict) -> list[str]:
    return _graded(sec, "action_angle", sec.get("max_deviation_upper_levels"))


def check_linearization(sec: dict, samples: int, selector) -> list[str]:
    return (_graded(sec, "linearization", sec.get("max_error"))
            + _count(sec, "samples", samples, "linearization")
            + _count(sec, "selector", list(selector), "linearization"))


def _sections(name: str, report: dict) -> tuple[list[str], list[str]]:
    """(problems, statuses of the graded sections) for one CLI report."""
    want = EXPECT[name]
    p: list[str] = []
    statuses: list[str] = []

    def sec(key: str) -> dict:
        value = report.get(key)
        if not isinstance(value, dict):
            p.append(f"missing section {key!r}")
            return {}
        statuses.append(value.get("status"))
        return value

    if want["command"] == "verify-classical":
        p += check_commutation(sec("commutation"), want["pairs"], want["n"])
        ind = sec("independence")
        if want["rank"] is not None:
            p += _count(ind, "expected", want["rank"], "independence")
            if ind.get("ranks") and (max(ind["ranks"]) == want["rank"]) != (ind.get("status") == "ok"):
                p.append("independence: status does not follow from the ranks")
        p += check_trivial(sec("trivial"), want["trivial_points"], want["trivial_pairs"])
    elif want["command"] == "verify-quantum":
        p += check_quantum(sec("quantum"), want["pairs"], want["centrality"])
        p += check_diffop(sec("diffop_realization"), want["diffop_checks"])
    elif want["command"] == "orbit":
        p += check_chart(sec("canonical_chart"))
        sec("chart_residuals")
        levels = report.get("tower", {}).get("levels", [])
        if len(levels) != want["n"]:
            p.append(f"tower has {len(levels)} levels, expected {want['n']}")
        p += check_residue(sec("residue_form"), want["residue_pairs"])
        p += check_action_angle(sec("action_angle"))
    elif want["command"] == "flow":
        if "error" in report:
            statuses.append("violation")
        else:
            p += _count(report, "samples", want["samples"], "flow")
            sec("conservation")
            p += check_linearization(sec("linearization"), want["lin_samples"],
                                     want["selector"])
    return p, statuses


def check_cli(name: str, code: int | None, stdout: str, stderr: str) -> Verdict:
    """Classify one CLI run of operation `name` (a key of EXPECT)."""
    if code is None:
        return Verdict("timeout", ["killed at the run deadline"])
    if not stdout.strip():
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        if code == 1 and last.startswith("check failed:"):
            return Verdict("no-report", [last])
        return Verdict("crash", [f"exit {code} without a report: {last[:200]}"])
    try:
        report = json.loads(stdout)
    except ValueError:
        return Verdict("bad-report", ["stdout is not one JSON report"])
    if not isinstance(report, dict):
        return Verdict("bad-report", ["report is not a JSON object"])
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(f"schema {report.get('schema')!r}")
    if report.get("command") != EXPECT[name]["command"]:
        problems.append(f"command {report.get('command')!r}")
    more, statuses = _sections(name, report)
    problems += more
    status = report.get("status")
    expected_status = "ok" if statuses and all(s == "ok" for s in statuses) else "violation"
    if status != expected_status:
        problems.append(f"status {status!r}, sections say {expected_status!r}")
    if code != {"ok": 0, "violation": 1}.get(status):
        problems.append(f"exit {code} with status {status!r}")
    if problems:
        return Verdict("bad-report", problems)
    return Verdict(status)


def without_timestamp(stdout: str):
    """The parsed report minus its timestamp, for the determinism check."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(report, dict):
        report.pop("timestamp", None)
    return report
