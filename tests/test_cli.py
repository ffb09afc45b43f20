import argparse
import functools
import gc
import inspect
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from _tracking import r_spectrum
from gztower import cli, families, orbits, quantum, tower
from gztower.cli import main
from gztower.families import PRIME


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    return json.loads(out)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_classical_gz_ok(capsys):
    code, out, err = run_cli(capsys, "verify-classical", "--n", "2", "--family", "gz")
    assert code == 0
    report = parse_report(out)
    assert report["status"] == "ok"
    assert report["schema"] == "gz-tower/1"
    assert report["commutation"]["status"] == "ok"
    assert report["independence"]["expected"] == 4
    assert report["trivial"]["status"] == "ok"
    assert "verify-classical: ok" in err


def test_classical_mf_ok(capsys):
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "3", "--family", "mf",
                           "--shift-matrix", "random-rational", "--seed", "3")
    assert code == 0
    assert parse_report(out)["commutation"]["status"] == "ok"


def test_a_scan_that_skips_a_pair_reads_violation(capsys, monkeypatch):
    # scan_pairs leaving out its last pair: the 9 members of the N=3 family
    # make 36 pairs, and a scan that saw 35 is not ok, although every
    # bracket it took was zero
    def skip_last_pair(members, op):
        pairs = list(itertools.combinations(members, 2))[:-1]
        assert all(op(a, b).is_zero() for (_, a), (_, b) in pairs)
        return len(pairs), 0, None

    monkeypatch.setattr(families, "scan_pairs", skip_last_pair)
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "3", "--points", "1")
    commutation = parse_report(out)["commutation"]
    assert code == 1
    assert commutation == {**commutation, "status": "violation", "members": 9, "pairs": 35,
                           "witness": {"expected": 36, "seen": 35}}


@pytest.mark.parametrize("diag", [f"{PRIME}/{PRIME},1,2", f"{PRIME},1/{PRIME},2"],
                         ids=["prime-over-prime", "prime-and-its-inverse"])
def test_classical_mf_shift_entries_at_the_rank_prime(capsys, diag):
    # the rank's rows take integer numerators only, so an entry that is 0 mod
    # PRIME, or has no inverse mod PRIME, still ends in a report
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "3", "--family", "mf",
                           "--shift-matrix", f"diag:{diag}", "--points", "2")
    assert code == 0
    report = parse_report(out)
    assert report["commutation"]["status"] == "ok"
    independence = report["independence"]
    assert independence["prime"] == PRIME
    assert len(independence["ranks"]) == 2 and independence["status"] == "ok"


def test_classical_gz_n3(capsys):
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "3", "--family", "gz")
    assert code == 0
    assert parse_report(out)["status"] == "ok"


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("side", ["left", "right"])
def test_a_one_sided_gz_family_is_graded_at_rank_n_n_plus_1_over_2(capsys, side, n):
    code, out, _ = run_cli(capsys, "verify-classical", "--n", str(n), "--family", "gz",
                           "--side", side, "--points", "1")
    rank = n * (n + 1) // 2
    assert code == 0
    assert parse_report(out)["independence"] == {
        "ranks": [rank], "prime": PRIME, "expected": rank, "status": "ok"}


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_one_sided_gz_family_short_of_a_member_is_a_violation(monkeypatch, capsys, side):
    # without its last member, the full determinant, the family's rank
    # falls one short of N(N+1)/2
    build = families.build_family

    def short(spec):
        fam = build(spec)
        return fam._replace(generators=fam.generators[:-1])

    monkeypatch.setattr(families, "build_family", short)
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "3", "--family", "gz",
                           "--side", side, "--points", "1")
    report = parse_report(out)
    assert report["independence"] == {
        "ranks": [5], "prime": PRIME, "expected": 6, "status": "violation"}
    assert (code, report["status"], report["commutation"]["status"]) == (1, "violation", "ok")


@pytest.mark.parametrize("family", [["gz-corner", "--side", "left"],
                                    ["mf", "--shift-matrix", "diag:1,2,3"]],
                         ids=["gz-corner", "mf"])
def test_a_family_without_a_known_rank_is_not_graded_on_it(capsys, family):
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "3", "--family", *family,
                           "--points", "1")
    independence = parse_report(out)["independence"]
    assert (code, independence["expected"], independence["status"]) == (0, None, "ok")


def test_classical_trivial_only(capsys):
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "2",
                           "--family", "trivial", "--points", "3")
    assert code == 0
    assert parse_report(out)["trivial"]["status"] == "ok"


_TRIVIAL_N2 = {"family": {"kind": "trivial", "n": 2, "shift": None, "side": "left"},
               "max_abs_bracket": float, "members": 4, "pairs": 30, "points": 5,
               "status": "ok", "tolerance": 1e-5, "witness": None}


@pytest.mark.parametrize("argv, sections", [
    (["verify-classical", "--family", "gz"], {
        "commutation": {"family": {"kind": "gz-principal", "n": 2, "shift": None, "side": "both"},
                        "max_nonzero_terms": 0, "members": 4, "pairs": 6, "status": "ok", "witness": None},
        "trivial": _TRIVIAL_N2}),
    (["verify-classical", "--family", "mf", "--shift-matrix", "diag:1,2"], {
        "commutation": {"family": {"kind": "mf", "n": 2, "shift": [["1", "0"], ["0", "2"]],
                                   "side": "left"},
                        "max_nonzero_terms": 0, "members": 3, "pairs": 3, "status": "ok", "witness": None},
        "trivial": _TRIVIAL_N2}),
    (["verify-classical", "--family", "trivial"], {"trivial": _TRIVIAL_N2}),
    (["verify-quantum"], {
        "quantum": {"centrality_checks": 10, "convention": "nested",
                    "family": {"kind": "quantum-gz", "n": 2}, "max_nonzero_terms": 0,
                    "members": 4, "pairs": 6, "status": "ok", "witness": None}}),
], ids=["gz", "mf", "trivial", "quantum"])
def test_the_exact_sections_keep_their_schema(capsys, argv, sections):
    # every key of the exact sections, and every value but the measured
    # max_abs_bracket, whose type alone is pinned
    code, out, _ = run_cli(capsys, *argv, "--n", "2")
    assert code == 0
    report = parse_report(out)
    assert {"commutation", "trivial", "quantum"} & report.keys() == sections.keys()
    for name, expected in sections.items():
        assert {key: type(value) if key == "max_abs_bracket" else value
                for key, value in report[name].items()} == expected


def test_invalid_ambient_size_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify-classical", "--n", "0")
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("argv", [
    ("verify-classical", "--n", "1"),
    ("verify-quantum", "--n", "1"),
    ("orbit", "--n", "1", "--spectrum", "1", "--check", "all"),
    ("flow", "--n", "1", "--spectrum", "1", "--hamiltonian", "1,1"),
], ids=["verify-classical", "verify-quantum", "orbit", "flow"])
def test_ambient_size_one_is_config_error(capsys, argv):
    # at N=1 every check would pass on zero pairs, levels or slopes
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "ambient size must be >= 2" in err


def test_quantum_ok_and_convention(capsys):
    code, out, _ = run_cli(capsys, "verify-quantum", "--n", "2")
    assert code == 0
    report = parse_report(out)
    # the convention is reported once, in its section
    assert report["quantum"]["convention"] == "nested" and "convention" not in report
    assert report["quantum"]["status"] == "ok"
    assert report["diffop_realization"]["status"] == "ok"


def test_quantum_n6_counts_every_pair_under_100_mb():
    # the largest N under the cost guard, in a gz-tower process (the collector
    # off) started by a small spawner: a child's ru_maxrss counts the RSS its
    # spawner had when it forked, and pytest's own is far larger
    spawner = ("import resource, subprocess, sys\n"
               "code = subprocess.call([sys.executable, '-c', "
               "'from gztower.cli import entry; entry()', *sys.argv[1:]])\n"
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
               "sys.exit(code)\n")
    proc = _fresh("-c", spawner, "verify-quantum", "--n", "6")
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stderr.splitlines()[-1]) / 1024      # ru_maxrss is in kB on Linux
    assert peak_mb < 100
    q = parse_report(proc.stdout)["quantum"]
    assert (q["convention"], q["pairs"], q["centrality_checks"], q["max_nonzero_terms"]) == (
        "nested", 630, 666, 0)


def test_quantum_size_guard(capsys):
    code, _, err = run_cli(capsys, "verify-quantum", "--n", "7")
    assert code == 2
    assert "configuration error" in err


def test_orbit_ok(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--n", "3", "--spectrum", "1,2,3",
                           "--seed", "7")
    assert code == 0
    report = parse_report(out)
    assert report["status"] == "ok"
    assert report["canonical_chart"]["winner"] == "rows"
    assert report["chart_residuals"]["status"] == "ok"
    assert len(report["tower"]["levels"]) == 3


def test_orbit_n8_integer_spectrum_builds_every_level(capsys):
    # A_n coefficients of size n! used to fail an absolute 1e-10 check in
    # build_tower, which ended the run with no report
    code, out, err = run_cli(capsys, "orbit", "--n", "8",
                             "--spectrum", "1,2,3,4,5,6,7,8", "--seed", "3")
    assert "check failed" not in err
    report = parse_report(out)
    assert [lv["n"] for lv in report["tower"]["levels"]] == list(range(1, 9))


def test_orbit_n8_chart_residuals_are_relative_to_their_scales(capsys):
    # the root residual is relative to |u_n|_2, and the angle relation to
    # the size of C_n(gamma), values near 1e8 here; the other sections of
    # this report may still be violations
    _, out, _ = run_cli(capsys, "orbit", "--n", "8",
                        "--spectrum", "1,2,3,4,5,6,7,8", "--seed", "3")
    residuals = parse_report(out)["chart_residuals"]
    assert residuals["status"] == "ok"
    assert residuals["tolerance"] == 1e-9
    assert max(residuals["root_residual"], residuals["angle_relation"]) < 1e-9


def test_a_flipped_compression_makes_the_chart_residuals_a_violation(monkeypatch, capsys):
    # e-points from u_(n-1) + outer(...) / p, the compression with the sign
    # of its rank-one term flipped: the punctures keep their root residual,
    # and the angle relation against direct determinants finds theta wrong
    kernel = orbits._level_roots

    def flipped(u):
        coeffs, roots = kernel(u)
        for n in range(2, len(u)):
            K = u[:n - 1, :n - 1] + np.outer(u[:n - 1, n - 1], u[n, :n - 1]) / u[n, n - 1]
            e = np.linalg.eigvals(K)
            roots[len(u) + n - 1], coeffs[len(u) + n - 1] = e, -u[n, n - 1] * np.poly(e)
        return coeffs, roots

    monkeypatch.setattr(orbits, "_level_roots", flipped)
    code, out, _ = run_cli(capsys, "orbit", "--n", "5", "--seed", "3",
                           "--spectrum=0.9+0.1j,-1.1+0.4j,0.3-1.2j,-0.5-0.6j,1.3+1.1j")
    residuals = parse_report(out)["chart_residuals"]
    assert code == 1 and residuals["status"] == "violation"
    assert residuals["root_residual"] < 1e-9 < residuals["angle_relation"]


def test_a_nan_angle_makes_the_chart_residuals_a_violation(monkeypatch, capsys):
    # a NaN theta at level 2 of 3, which a running maximum by max() would
    # drop behind level 1's finite residual
    forward = orbits.gz_forward

    def nan_angle(pt):
        chart = forward(pt)
        theta = [np.array(t) for t in chart.theta]
        theta[1][0] = np.nan
        return chart._replace(theta=theta)

    monkeypatch.setattr(orbits, "gz_forward", nan_angle)
    code, out, _ = run_cli(capsys, "orbit", "--n", "3", "--spectrum", "1,2,3")
    assert code == 1
    assert parse_report(out)["chart_residuals"]["status"] == "violation"


def test_a_nan_puncture_makes_the_chart_residuals_a_violation(monkeypatch, capsys):
    # a NaN gamma at level 2 of 3: the root residual's SVD and the angle
    # relation's determinants must read NaN there, not raise or warn
    forward = orbits.gz_forward

    def nan_puncture(pt):
        chart = forward(pt)
        gamma = [np.array(g) for g in chart.gamma]
        gamma[1][0] = np.nan
        return chart._replace(gamma=gamma)

    monkeypatch.setattr(orbits, "gz_forward", nan_puncture)
    code, out, _ = run_cli(capsys, "orbit", "--n", "3", "--spectrum", "1,2,3")
    assert code == 1
    assert parse_report(out)["chart_residuals"]["status"] == "violation"


def test_a_flipped_bracket_sign_makes_the_sweep_a_violation(monkeypatch, capsys):
    # every theta gradient negated flips each {gamma, theta}, as a sweep
    # taking kk = T - T^T would flip the whole table: the graded rows misses
    # by 2, and the cols control, negated too, reads canonical but does not
    # make the report ok
    theta = orbits._theta_gradients
    monkeypatch.setattr(orbits, "_theta_gradients",
                        lambda pt, rows=True: [-g for g in theta(pt, rows)])
    code, out, _ = run_cli(capsys, "orbit", "--n", "4", "--check", "all", "--seed", "2",
                           "--spectrum=0.9+0.1j,-1.1+0.4j,0.3-1.2j,-0.5-0.6j")
    chart = parse_report(out)["canonical_chart"]
    assert code == 1 and chart["status"] == "violation" and chart["winner"] is None
    rows, cols = chart["variants"]
    assert abs(rows["max_deviation"] - 2.0) < 1e-6 and cols["max_deviation"] < 1e-10
    assert chart["max_deviation"] == rows["max_deviation"]
    _assert_the_witness_is_the_graded_maximum(parse_report(out))


S8 = "0.9+0.1j,-1.1+0.4j,0.3-1.2j,-0.5-0.6j,1.3+1.1j,-1.4-1.3j,0.1+0.9j,0.7-0.4j"


def _assert_the_witness_is_the_graded_maximum(report):
    # each section's witness is the largest entry of the table it names,
    # and no table of the section lists a larger one
    chart, actions = report["canonical_chart"], report["action_angle"]
    assert chart["worst"]["deviation"] == max(chart["max_deviation"], chart["casimir_deviation"])
    assert actions["worst"]["deviation"] == actions["max_deviation_upper_levels"]
    for section, tables in ((chart, ["table"]), (actions, ["h_tau", "h_h"])):
        worst, top = section["worst"], section[section["worst"]["table"]]["largest"][0]
        assert (worst["entry"], worst["deviation"]) == (top["entry"], top["deviation"])
        for key in tables:
            summary = section[key]
            assert all(e["deviation"] <= worst["deviation"] for e in summary["largest"])
            assert sum(summary["decades"].values()) == summary["graded"] <= summary["size"]


def test_orbit_n8_check_all_is_canonical(capsys):
    # degree-8 roots through the one-point level kernel; the finite-difference
    # stencils read 1.6e-5 on the chart and 1.9e-4 on the residue form here,
    # over their tolerances
    code, out, _ = run_cli(capsys, "orbit", "--n", "8", f"--spectrum={S8}",
                           "--seed", "3", "--check", "all")
    report = parse_report(out)
    assert code == 0 and report["status"] == "ok"
    assert len(report["tower"]["levels"]) == 8
    for section in ("canonical_chart", "residue_form", "action_angle"):
        assert report[section]["derivatives"] == "analytic"
        assert report[section]["status"] == "ok"
    chart, form = report["canonical_chart"], report["residue_form"]
    assert chart["max_deviation"] < 1e-9
    # each sweep grades one variant and fails its ungraded control: the
    # transposed (cols) minors, and the paper's form around the zeros of C_n
    assert chart["winner"] == "rows"
    assert [v["convention"] for v in chart["variants"]] == ["rows", "cols"]
    assert chart["variants"][1]["max_deviation"] >= chart["tolerance"]
    assert form["winner"] == "contour=A term1_sign=-1 overall_sign=-1"
    assert [v["variant"] for v in form["variants"]] == [
        form["winner"], "contour=C term1_sign=-1 overall_sign=-1"]
    assert form["variants"][1]["max_deviation"] >= form["tolerance"]
    _assert_the_witness_is_the_graded_maximum(report)


def test_orbit_n8_integer_spectrum_is_ok_and_reports_its_conditioning(capsys):
    # the conditioning figures put this point close to the singular locus of
    # the chart: a level-7 divisor point 0.0062 from a puncture, and gamma[7]
    # 0.019 from gamma[8]; yet with action gradients from the eigenbasis of
    # u_n every section passes, the action-angle table at about 1e-5.  The
    # chart section states the figures, once: the other sections carry no copy
    code, out, _ = run_cli(capsys, "orbit", "--n", "8", "--spectrum", "1,2,3,4,5,6,7,8",
                           "--seed", "3", "--check", "all")
    report = parse_report(out)
    assert code == 0 and report["status"] == "ok"
    assert report["action_angle"]["status"] == "ok"
    figures = report["canonical_chart"]["conditioning"]
    assert figures["min_divisor_gap"] < 0.01
    assert figures["min_level_gap"] < 0.02
    assert figures["max_root_condition"] > 1.0
    assert all("conditioning" not in report[section] for section in ("residue_form", "action_angle"))


@pytest.mark.parametrize("N, check", [(16, "action-angle"), (20, "action-angle"), (24, "all")],
                         ids=["16", "20", "24"])
def test_orbit_action_angle_on_r_n_is_ok(capsys, N, check):
    # a Horner-rule gradient, a sum of powers of u_n, cancelled here: the
    # table missed by 1.3e15 on R20 and 9.7e6 on R24; with gradients from
    # the eigenbasis of u_n it reads below 1e-6 on both.  At N=24 every
    # section of --check all is ok too
    spectrum = ",".join(f"{z.real:.3f}{z.imag:+.3f}j" for z in r_spectrum(N))
    code, out, _ = run_cli(capsys, "orbit", "--n", str(N), f"--spectrum={spectrum}",
                           "--seed", "3", "--check", check)
    report = parse_report(out)
    assert code == 0 and report["status"] == report["action_angle"]["status"] == "ok"
    assert report["canonical_chart"]["winner"] == "rows"
    _assert_the_witness_is_the_graded_maximum(report)
    # the three tables are summaries: with every entry written, the R24
    # report took tens of MB
    assert len(out.encode()) < 1_000_000


def test_orbit_repeated_spectrum_is_config_error(capsys):
    code, _, err = run_cli(capsys, "orbit", "--n", "3", "--spectrum", "1,1,3")
    assert code == 2
    assert "configuration error" in err


def test_orbit_spectrum_length_mismatch(capsys):
    code, _, _ = run_cli(capsys, "orbit", "--n", "3", "--spectrum", "1,2")
    assert code == 2


def test_orbit_stopped_by_the_tower_is_a_violation_report(capsys):
    # lam0 on the puncture 1 of level 2: the tower stops, and the report
    # keeps the checks before it and names the error, as a stopped flow's does
    code, out, err = run_cli(capsys, "orbit", "--n", "2", "--spectrum", "1,2",
                             "--lam0", "1", "--check", "all")
    assert (code, err) == (1, "orbit: violation\n")
    report = parse_report(out)
    assert report["status"] == "violation"
    assert report["error"] == {
        "kind": "path-through-puncture", "time": None, "level": 2,
        "message": "integration endpoint 1+0j within 1e-08 of puncture 1, 1+9.36861e-17j"}
    assert report["canonical_chart"]["status"] == "ok"
    assert "tower" not in report and "action_angle" not in report


@pytest.mark.parametrize("lam0", ["9e307+9e307j", "-1e308+1e308j"])
@pytest.mark.parametrize("command, extra", [("orbit", ("--check", "all")),
                                            ("flow", ("--hamiltonian", "2,1"))],
                         ids=["orbit", "flow"])
def test_a_far_base_point_stops_the_tower_at_its_first_angles(capsys, command, extra, lam0):
    # the straight-path logs from lam0 leave floating-point range at level
    # 2, the first with angle integrals: the tower stops there with no
    # RuntimeWarning (an error in this suite) instead of writing NaN angles
    code, out, err = run_cli(capsys, command, "--n", "3", "--spectrum", "1,2,3",
                             f"--lam0={lam0}", *extra)
    assert (code, err) == (1, f"{command}: violation\n")
    report = parse_report(out)
    assert report["error"] == {
        "kind": "tower", "time": None if command == "orbit" else 0.0, "level": 2,
        "message": "straight-path logs are not finite"}
    assert not {"tower", "linearization", "samples"} & report.keys()


def test_orbit_residue_form_check(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--n", "2", "--spectrum", "0.5,-1+0.5j",
                           "--seed", "3", "--check", "residue-form", "--pairs", "6")
    assert code == 0
    report = parse_report(out)
    assert report["residue_form"]["status"] == "ok"
    assert report["residue_form"]["winner"].startswith("contour=A")


def test_orbit_action_angle_check_and_table(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--n", "2", "--spectrum", "0.5,-1+0.5j",
                           "--seed", "3", "--check", "action-angle")
    assert code == 0
    report = parse_report(out)
    assert report["action_angle"]["status"] == "ok"
    # the canonicity report summarizes the bracket table of the winner, of
    # which the record holds every entry: 11 entries at N=2, all graded
    table = report["canonical_chart"]["table"]
    assert (table["size"], table["graded"]) == (11, 11)
    u = np.reshape([complex(*z) for z in report["orbit"]["u"]], (2, 2))
    rep = orbits.verify_canonical_chart(orbits.OrbitPoint.create(u))
    assert rep.to_json()["table"] == table
    names = orbits._chart_layout(2)[0]
    assert abs(rep.table[names.index("gamma[1,1]"), names.index("theta[1,1]")] + 1.0) < 1e-5


def test_flow_ok_and_trajectory(tmp_path, capsys):
    traj = tmp_path / "traj.jsonl"
    code, out, _ = run_cli(capsys, "flow", "--n", "2", "--spectrum", "0.5,-1+0.5j",
                           "--seed", "3", "--hamiltonian", "1,1",
                           "--t", "0.1", "--steps", "100",
                           "--trajectory", str(traj))
    assert code == 0
    report = parse_report(out)
    assert report["status"] == "ok"
    assert report["linearization"]["status"] == "ok"
    conservation = report["conservation"]
    assert set(conservation) == {"max_h_drift", "tolerance", "status"}
    assert (conservation["tolerance"], conservation["status"]) == (1e-8, "ok")
    lines = traj.read_text().strip().splitlines()
    assert len(lines) == report["samples"]
    record = json.loads(lines[0])
    assert set(record) == {"t", "u", "h", "tau"}


def test_flow_without_trajectory_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GZTOWER_OUTPUT_DIR", raising=False)
    code, out, _ = run_cli(capsys, "flow", "--n", "2", "--spectrum", "0.5,-1+0.5j",
                           "--seed", "3", "--hamiltonian", "1,1",
                           "--t", "0.1", "--steps", "100")
    assert code == 0
    report = parse_report(out)
    assert report["samples"] > 1
    assert "trajectory_file" not in report
    assert list(tmp_path.iterdir()) == []


def test_flow_past_a_puncture_near_an_e_point_reports(tmp_path, capsys):
    # at t = 0.8 an e-point lies 9e-4 from a level-4 puncture; a path from
    # lam0 that bulged around that puncture would wind once around it and
    # shift tau[4,1] by 2*pi*i times a residue
    code, out, _ = run_cli(
        capsys, "flow", "--n", "5", "--hamiltonian", "4,3", "--steps", "1000",
        "--spectrum=0.548397-1.193040j,0.960227+1.049305j,-0.214281-0.318218j,"
        "0.776116-0.060948j,1.135441-1.060996j", "--seed", "195104716",
        "--trajectory", str(tmp_path / "traj.jsonl"))
    assert code == 0
    assert parse_report(out)["status"] == "ok"


def test_flow_regularity_loss_in_the_linearization_only_reports_time(tmp_path, monkeypatch,
                                                                     capsys):
    # the trajectory runs to --t 1, the linearization to 0.1: lose regularity
    # in the second flow alone
    real_flow = tower.hamiltonian_flow

    def flow(pt, selector, t_final=1.0, **kwargs):
        if t_final == 0.1:
            raise tower.RegularityLostError(0.05)
        return real_flow(pt, selector, t_final=t_final, **kwargs)

    monkeypatch.setattr(tower, "hamiltonian_flow", flow)
    code, out, err = run_cli(capsys, "flow", "--n", "3", "--spectrum", "1,2,3",
                             "--hamiltonian", "2,1", "--steps", "100",
                             "--trajectory", str(tmp_path / "t.jsonl"))
    assert code == 1
    assert "check failed" not in err
    report = parse_report(out)
    assert report["status"] == "violation"
    assert report["error"] == {"kind": "regularity-lost", "time": 0.05, "level": None,
                               "message": "regularity lost at t = 0.05"}
    assert "linearization" not in report and "samples" not in report
    assert not (tmp_path / "t.jsonl").exists()


def test_a_stopped_flow_empties_its_trajectory_file(tmp_path, capsys):
    # a trajectory from an earlier run must not stand under the name that the
    # stopped run's config gives
    traj = tmp_path / "t.jsonl"
    traj.write_text("stale\n" * 41)
    code, out, _ = run_cli(capsys, "flow", "--n", "2", "--spectrum", "1,2",
                           "--hamiltonian", "1,1", "--lam0", "1", "--trajectory", str(traj))
    assert code == 1
    report = parse_report(out)
    assert report["error"]["kind"] == "path-through-puncture"
    assert report["config"]["trajectory"] == str(traj) and "trajectory_file" not in report
    assert traj.read_text() == ""


def _tracker_fault(level, fault):
    """The tracker's level kernel with fault(values, level) applied to the
    C_n(gamma) values of sample 10 of its stack (t = 0.2 on a 100-step grid)."""
    kernel = tower._level_coeffs

    def patched(us, gamma):
        coeffs, values, finite = kernel(us, gamma)
        if len(us) > 10:
            fault(values, level)
        return coeffs, values, finite
    return patched


def _e_point_on_a_puncture(values, n):
    # an e-point on the last puncture g of level n: C_n(g) = 0 exactly
    values[n - 1][10, -1] = 0.0


def _turn_the_lead(values, n):
    values[n - 1][10] *= complex(math.cos(2.0), math.sin(2.0))


@pytest.mark.parametrize("fault, kind", [(_e_point_on_a_puncture, "path-through-puncture"),
                                         (_turn_the_lead, "branch-jump")])
def test_flow_tracker_errors_are_violation_reports(tmp_path, monkeypatch, capsys, fault, kind):
    monkeypatch.setattr(tower, "_level_coeffs", _tracker_fault(2, fault))
    code, out, err = run_cli(capsys, "flow", "--n", "3", "--spectrum", "1,2,3",
                             "--hamiltonian", "2,1", "--steps", "100",
                             "--trajectory", str(tmp_path / "t.jsonl"))
    assert code == 1
    assert "check failed" not in err
    report = parse_report(out)
    assert report["status"] == "violation"
    error = report["error"]
    # the error names the level at which the fault stopped the flow, as its
    # message does
    assert error.pop("message").startswith("level 2: ")
    assert error == {"kind": kind, "time": 0.2, "level": 2}
    assert "linearization" not in report and "samples" not in report
    assert not (tmp_path / "t.jsonl").exists()


# geometry flow5 inputs (benchmarks/gen.py): seed 10 pass 3, whose level-4
# e-point converges to a puncture, 8e-9 away at t = 0.9, and seed 7 pass 1,
# whose |u(t)| grows to 2.9e34 by t = 1
_SEED10_PASS3 = ["--spectrum=-0.750413-1.440375j,-0.218231-0.328746j,0.871540+1.185906j,"
                 "0.094805-0.805339j,-1.460888-0.166944j", "--seed", "1344158867"]
_SEED7_PASS1 = ["--spectrum=-1.322245-0.361661j,-0.337105+1.436244j,-0.530891+0.269975j,"
                "-1.049401+0.315169j,0.949014+0.413990j", "--seed", "1284590501"]


def test_flow_whose_e_point_converges_to_a_puncture_completes(capsys):
    # the angles follow C_n at the punctures, which stays off zero: the flow
    # completes, and its actions drift past the absolute conservation bound
    code, out, _ = run_cli(capsys, "flow", "--n", "5", "--hamiltonian", "4,3",
                           "--steps", "1000", *_SEED10_PASS3)
    report = parse_report(out)
    assert code == 1 and report["status"] == "violation"
    assert "error" not in report and report["samples"] == 41
    assert report["conservation"]["status"] == "violation"
    assert report["linearization"]["status"] == "ok"


def test_flow_whose_c_n_ratio_turns_reports_a_branch_jump(capsys):
    code, out, _ = run_cli(capsys, "flow", "--n", "5", "--hamiltonian", "4,3",
                           "--steps", "1000", *_SEED7_PASS1)
    assert code == 1
    assert parse_report(out)["error"] == {"kind": "branch-jump", "time": 0.025, "level": 4,
                                          "message": "level 4: a ratio turned by 1.766 rad"}


def test_flow_bad_selector(capsys):
    code, _, _ = run_cli(capsys, "flow", "--n", "2", "--spectrum", "0.5,-1",
                         "--hamiltonian", "5,1")
    assert code == 2


@pytest.mark.parametrize("selector", ["2,1,9", "2", "2,", "2,x"])
def test_flow_selector_is_exactly_two_integers(capsys, selector):
    # extra parts were once dropped, so 2,1,9 ran as h[2,1]
    code, out, err = run_cli(capsys, "flow", "--n", "3", "--spectrum", "1,2,3",
                             "--hamiltonian", selector)
    assert code == 2
    assert out == ""
    assert "selector must be two integers" in err


def test_flow_few_steps_conserves_actions(tmp_path, capsys):
    # a 10-step fixed-step integrator drifts by ~1e-7 here; the exact flow may not
    code, out, _ = run_cli(capsys, "flow", "--n", "3", "--spectrum", "1,2,3",
                           "--hamiltonian", "2,1", "--steps", "10",
                           "--trajectory", str(tmp_path / "t.jsonl"))
    assert code == 0
    report = parse_report(out)
    assert report["conservation"]["status"] == "ok"
    assert report["conservation"]["max_h_drift"] < 1e-12


def test_flow_out_of_floating_point_range_is_regularity_loss(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "flow", "--n", "3", "--spectrum", "1,2,3",
                           "--hamiltonian", "2,1", "--t", "1e4",
                           "--trajectory", str(tmp_path / "t.jsonl"))
    assert code == 1
    report = parse_report(out)
    assert report["status"] == "violation"
    assert report["error"]["kind"] == "regularity-lost"
    assert 0.0 < report["error"]["time"] < 1e4


def _overflowing_flow(capsys, tmp_path, *extra):
    # u(t) stays finite while its minors overflow by t = 10; the input was valid
    code, out, _ = run_cli(capsys, "flow", "--n", "5", "--spectrum", "1,2,3,4,5",
                           "--hamiltonian", "4,3", "--t", "10", "--seed", "0",
                           "--trajectory", str(tmp_path / "t.jsonl"), *extra)
    assert code == 1
    return parse_report(out)["error"]


def test_flow_with_overflowing_minors_is_regularity_loss(tmp_path, capsys):
    # with one step the tracker's second sample is t = 10, whose minors overflow
    error = _overflowing_flow(capsys, tmp_path, "--steps", "1")
    assert error == {"kind": "regularity-lost", "time": 10.0, "level": None,
                     "message": "regularity lost at t = 10.0"}


def test_flow_toward_overflowing_minors_reports_the_first_failing_sample(tmp_path, capsys):
    # with 40 samples a ratio turns by more than pi/2 long before t = 10
    error = _overflowing_flow(capsys, tmp_path)
    assert error == {"kind": "branch-jump", "time": 0.25, "level": 4,
                     "message": "level 4: a ratio turned by 2.413 rad"}


@pytest.mark.parametrize("t, window", [("-1", -0.1), ("0.05", 0.05), ("5", 0.1)])
def test_linearization_window_is_at_most_a_tenth_either_way(capsys, monkeypatch, t, window):
    # the linearization's flow, the one of _LINEARIZATION_STEPS steps, runs
    # to --t clipped to [-0.1, 0.1]; the trajectory's runs to --t
    real_flow = tower.hamiltonian_flow
    seen = []

    def flow(pt, selector, t_final=1.0, steps=1000, **kwargs):
        seen.append((steps, t_final))
        return real_flow(pt, selector, t_final=t_final, steps=steps, **kwargs)

    monkeypatch.setattr(tower, "hamiltonian_flow", flow)
    code, _, _ = run_cli(capsys, "flow", "--n", "3", "--spectrum", "1,2,3",
                         "--hamiltonian", "2,1", "--t", t, "--steps", "100")
    assert seen == [(100, float(t)), (tower._LINEARIZATION_STEPS, window)]
    assert code == 0


def test_linearization_with_nan_slopes_is_a_violation():
    # a zero-length window gives 0/0 slopes, and a NaN slope must fail
    pt = orbits.sample_orbit([1.0, 2.0, 3.0], seed=0)
    with pytest.warns(RuntimeWarning):
        rep = tower.linearization_check(pt, (2, 1), t_final=0.0)
    assert any(math.isnan(s.real) for s in rep.slopes.values())
    assert rep.status == "violation"


@pytest.mark.parametrize("argv", [
    ("flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1", "--t", "0"),
    ("flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1", "--t", "nan"),
    ("flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1", "--t", "inf"),
    ("flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1", "--t", "1e-160"),
    ("flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1", "--t=-1e-170"),
    ("flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1", "--t", "5e-324"),
    ("flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1", "--steps", "0"),
    ("orbit", "--n", "3", "--spectrum", "1,2,nan"),
    ("verify-classical", "--n", "2", "--points", "0"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--pairs", "0", "--check", "residue-form"),
    ("verify-quantum", "--n", "2", "--trials", "0"),
    ("orbit", "--n", "3", "--spectrum", "1,2,1e300"),
    ("flow", "--n", "3", "--spectrum", "1,2,1e300", "--hamiltonian", "2,1"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--lam0", "xyz"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--lam0", "nan"),
    ("verify-classical", "--n", "2", "--seed", "-1"),
    ("verify-quantum", "--n", "2", "--seed", "-1"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--seed", "-1"),
    ("flow", "--n", "2", "--spectrum", "1,2", "--hamiltonian", "1,1", "--seed", "-1"),
    ("verify-classical", "--n", "2", "--family", "mf", "--shift-matrix", "diag:1/0,1"),
    ("verify-classical", "--n", "2", "--family", "mf", "--shift-matrix", "diag:1e400,1"),
    ("verify-classical", "--n", "3", "--family", "mf", "--side", "right",
     "--shift-matrix", "diag:1,2,3"),
    ("verify-classical", "--n", "3", "--family", "trivial", "--side", "right"),
    ("verify-classical", "--n", "3", "--family", "mf", "--side", "both",
     "--shift-matrix", "diag:1,2,3"),
    ("verify-classical", "--n", "3", "--family", "trivial", "--side", "both"),
    ("verify-classical", "--n", "3", "--family", "gz", "--shift-matrix", "diag:1,2"),
    ("verify-classical", "--n", "3", "--family", "gz-corner", "--shift-matrix", "identity"),
    ("verify-classical", "--n", "3", "--family", "trivial", "--shift-matrix", "identity"),
], ids=["t-zero", "t-nan", "t-inf", "t-tiny", "t-tiny-negative", "t-subnormal", "steps-zero", "spectrum-nan", "points-zero",
        "pairs-zero", "trials-zero", "orbit-spectrum-overflow", "flow-spectrum-overflow",
        "lam0-not-a-number", "lam0-nan", "classical-seed-negative",
        "quantum-seed-negative", "orbit-seed-negative", "flow-seed-negative",
        "shift-zero-denominator", "shift-float-overflow", "mf-side-right",
        "trivial-side-right", "mf-side-both", "trivial-side-both", "gz-shift",
        "gz-corner-shift", "trivial-shift"])
def test_bad_values_are_config_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "configuration error" in err
    if any(arg == "--t" or arg.startswith("--t=") for arg in argv):
        assert "--t must be" in err


def test_check_chart_is_an_argparse_error():
    # chart and tower always run, so --check offers only the checks beyond
    # them: chart ends in argparse's usage error, exit 2 and no traceback,
    # in a fresh gz-tower process
    proc = _fresh("-c", "from gztower import cli; cli.entry()",
                  "orbit", "--n", "2", "--spectrum", "1,2", "--check", "chart")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("verify-classical", "--n", "2", "--tolerance", "trivial=1e-3"),
    ("verify-quantum", "--n", "2", "--tolerance", "trivial=1e-3"),
    ("orbit", "--n", "3", "--spectrum", "1,2,3", "--tolerance", "chart=1"),
    ("flow", "--n", "2", "--spectrum", "1,2", "--hamiltonian", "1,1",
     "--tolerance", "linearization=1"),
], ids=lambda argv: argv[0])
def test_tolerance_is_an_argparse_error(argv):
    # every bound is fixed in the layer that grades it, so no subcommand
    # declares --tolerance: passing one ends in argparse's usage error, exit
    # 2 and no traceback, in a fresh gz-tower process
    proc = _fresh("-c", "from gztower import cli; cli.entry()", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --tolerance" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# report hygiene
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ns", [1_790_000_000_123_456_789, 1_790_000_000_000_000_999],
                         ids=["microseconds", "whole-second"])
def test_the_timestamp_reads_as_datetimes_isoformat(capsys, monkeypatch, ns):
    from datetime import datetime, timezone

    monkeypatch.setattr(time, "time_ns", lambda: ns)
    code, out, _ = run_cli(capsys, "verify-quantum", "--n", "2", "--trials", "1")
    assert code == 0
    seconds, us = ns // 10**9, ns % 10**9 // 1000
    stamp = datetime.fromtimestamp(seconds, timezone.utc).replace(microsecond=us)
    assert parse_report(out)["timestamp"] == stamp.isoformat()
    assert datetime.fromisoformat(parse_report(out)["timestamp"]) == stamp


def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


S5 = "--spectrum=0.9+0.1j,-1.1+0.4j,0.3-1.2j,-0.5-0.6j,1.3+1.1j"
REPEATED = {
    "orbit-n2-residue-form": ["orbit", "--n", "2", "--spectrum", "1,-1", "--seed", "5",
                              "--check", "residue-form", "--pairs", "4"],
    "orbit-n3-all": ["orbit", "--n", "3", "--spectrum=1,-1+0.5j,0.5-1j", "--seed", "2",
                     "--check", "all"],
    "flow-n3": ["flow", "--n", "3", "--spectrum=1,-1+0.5j,0.5-1j", "--seed", "2",
                "--hamiltonian", "2,1", "--steps", "50"],
    "classical-mf-n3": ["verify-classical", "--n", "3", "--family", "mf"],
    "classical-gz-corner-n3": ["verify-classical", "--n", "3", "--family", "gz-corner"],
    "quantum-n3": ["verify-quantum", "--n", "3"],
    "quantum-n4": ["verify-quantum", "--n", "4"],
    "classical-gz-n4": ["verify-classical", "--n", "4", "--family", "gz"],
    "classical-gz-corner-n4": ["verify-classical", "--n", "4", "--family", "gz-corner"],
    "classical-mf-diag-n4": ["verify-classical", "--n", "4", "--family", "mf",
                             "--shift-matrix", "diag:1,2,3,4"],
    "classical-trivial-n4": ["verify-classical", "--n", "4", "--family", "trivial",
                             "--points", "5"],
    "orbit5-s5": ["orbit", "--n", "5", "--check", "all", "--seed", "3", S5],
    "flow5-s5": ["flow", "--n", "5", "--hamiltonian", "4,3", "--seed", "3", S5],
    # --steps only spaces the samples, so ten million cost what 1000 do
    "flow-n3-ten-million-steps": ["flow", "--n", "3", "--spectrum", "1,2,3",
                                  "--hamiltonian", "2,1", "--steps", "10000000"],
    # a flow on which straight-path angles jumped: continued, it completes
    "flow5-jumped": ["flow", "--n", "5", "--hamiltonian", "4,3", "--steps", "1000",
                     "--spectrum=0.988068-0.851330j,-0.005832-1.197889j,0.577554-1.384188j,"
                     "-0.482924+0.605848j,0.068486-0.130708j", "--seed", "1317947088"],
}
_REPEAT = """
import contextlib, io, json, sys
from gztower import cli
trajectory, runs = sys.argv[1], {}
for name, argv in json.loads(sys.argv[2]).items():
    if argv[0] == "flow":
        argv += ["--trajectory", trajectory]
    runs[name] = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        records = open(trajectory).read() if argv[0] == "flow" else None
        runs[name].append([code, out.getvalue(), records])
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def repeated_runs(tmp_path_factory):
    """Every REPEATED argv run twice by main() in one fresh interpreter, as
    [code, stdout, trajectory text] per run: the first run of an argv fills
    the caches that the second reads (the nested quantum family once per N,
    a classical family once per spec, a minor's index tables once per minor
    and an orbit point's data once per point), and a warning is an error."""
    trajectory = tmp_path_factory.mktemp("repeated") / "traj.jsonl"
    proc = _fresh("-W", "error::RuntimeWarning", "-c", _REPEAT, str(trajectory),
                  json.dumps(REPEATED))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", REPEATED)
def test_reports_are_deterministic(repeated_runs, name):
    (code, out, records), second = repeated_runs[name]
    assert code == 0
    assert [code, _strip_timestamp(out), records] == [
        second[0], _strip_timestamp(second[1]), second[2]]


# the geometry argvs of benchmarks/gen.py, seed 1 pass 1
ORBIT5 = ["orbit", "--n", "5", "--check", "all",
          "--spectrum=0.035465-0.230021j,1.351391+0.983108j,-1.067521-0.272403j,"
          "1.345948+0.148781j,-0.564506-1.417323j", "--seed", "1858836761"]
FLOW5 = ["flow", "--n", "5", "--hamiltonian", "4,3", "--steps", "1000",
         "--spectrum=0.114430-1.097875j,-0.510805-0.290661j,0.865286-0.889634j,"
         "-0.590416-0.713060j,-0.139506+0.751094j", "--seed", "1618157078"]
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv", [ORBIT5, FLOW5, ["verify-quantum", "--n", "3"],
                                  ["verify-classical", "--family", "mf", "--n", "3"]],
                         ids=["orbit5", "flow5", "quantum-n3", "classical-mf-n3"])
def test_reports_are_the_same_across_hash_seeds(tmp_path, argv):
    # string hashing, and so the order of any set of strings, changes with
    # PYTHONHASHSEED from one process to the next
    outs, traj = [], tmp_path / "traj.jsonl"
    for hash_seed in ("1", "2"):
        extra = ["--trajectory", str(traj)] if argv[0] == "flow" else []
        proc = _fresh("-m", "gztower.cli", *argv, *extra, PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(_strip_timestamp(proc.stdout) + (traj.read_text() if extra else ""))
    assert outs[0] == outs[1]


def test_report_embeds_full_config(capsys):
    _, out, _ = run_cli(capsys, "verify-classical", "--n", "2", "--family", "gz",
                        "--seed", "9")
    assert parse_report(out)["config"] == {
        "n": 2, "seed": 9, "output": None,
        "family": "gz", "side": "both", "shift_matrix": "random-rational", "points": 5}


@pytest.mark.parametrize("argv, config", [
    (["flow", "--n", "2", "--spectrum", "1,2+0.5j", "--hamiltonian", "2,1", "--t", "0.5",
      "--steps", "10", "--lam0", "0.3+0.1j", "--seed", "4", "--trajectory", "traj.jsonl"],
     {"n": 2, "seed": 4, "output": None,
      "spectrum": [[1.0, 0.0], [2.0, 0.5]], "hamiltonian": [2, 1], "t_final": 0.5,
      "steps": 10, "trajectory": "traj.jsonl", "lam0": [0.3, 0.1]}),
    (["orbit", "--n", "2", "--spectrum", "1,2", "--check", "residue-form",
      "--check", "action-angle", "--pairs", "3", "--seed", "5"],
     {"n": 2, "seed": 5, "output": None,
      "spectrum": [[1.0, 0.0], [2.0, 0.0]], "checks": ["residue-form", "action-angle"],
      "pairs": 3, "lam0": None}),
], ids=["flow", "orbit"])
def test_geometry_reports_embed_full_config(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.setenv("GZTOWER_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert parse_report(out)["config"] == config


@pytest.mark.parametrize("family, side", [("mf", []), ("trivial", []), ("mf", ["--side", "left"])],
                         ids=["mf", "trivial", "mf-side-left"])
def test_a_one_sided_familys_config_states_the_side_it_checks(capsys, family, side):
    # mf and trivial are left only: config.side resolves to left, the side
    # that every family record of the report states
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "2", "--family", family,
                           "--points", "1", *side)
    report = parse_report(out)
    assert code == 0 and report["config"]["side"] == "left"
    sections = [report[name] for name in ("commutation", "trivial") if name in report]
    assert len(sections) == (2 if family == "mf" else 1)
    assert all(section["family"]["side"] == "left" for section in sections)


def test_quantum_report_embeds_full_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GZTOWER_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify-quantum", "--n", "2", "--trials", "3",
                           "--seed", "2", "--allow-large", "--output", "q.json")
    assert (code, out) == (0, "")
    assert parse_report((tmp_path / "q.json").read_text())["config"] == {
        "n": 2, "seed": 2, "output": "q.json", "allow_large": True, "trials": 3}


def _option_dests() -> dict[str, set[str]]:
    """Each subcommand's option dests, as build_parser declares them."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {command: {action.dest for action in parser._actions if action.dest != "help"}
            for command, parser in sub.choices.items()}


@pytest.mark.parametrize("argv", [
    ["verify-classical", "--n", "2", "--family", "trivial", "--points", "1"],
    ["verify-quantum", "--n", "2", "--trials", "1"],
    ["orbit", "--n", "2", "--spectrum", "1,2"],
    ["flow", "--n", "2", "--spectrum", "1,2", "--hamiltonian", "1,1", "--steps", "10"],
], ids=lambda argv: argv[0])
def test_config_holds_exactly_the_subcommands_options(capsys, argv):
    # an option of another subcommand, or the command itself, is not part of
    # the config, and no option of this one is missing from it
    _, out, _ = run_cli(capsys, *argv)
    assert set(parse_report(out)["config"]) == _option_dests()[argv[0]]


RECORDS = {
    "FamilySpec": lambda: families.FamilySpec("gz-principal", 2),
    "CommutingFamily": lambda: families.build_family(families.FamilySpec("gz-principal", 2)),
    "CommutationReport": lambda: families.verify_commutes(
        families.build_family(families.FamilySpec("gz-principal", 2))),
    "TrivialReport": lambda: families.verify_trivial_numeric(2, 1),
    "IndependenceReport": lambda: families.verify_independence(
        families.build_family(families.FamilySpec("gz-principal", 2)),
        [families.random_residue_point(2, random.Random(0))]),
    "QuantumReport": lambda: quantum.verify_quantum_commutes(2),
    "DiffOpReport": lambda: quantum.diffop_realization_check(2, trials=1),
}


@pytest.mark.parametrize("name", RECORDS)
def test_the_exact_path_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GZTOWER_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "2", "--family", "gz",
                           "--output", "report.json")
    assert code == 0
    assert out == ""
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["status"] == "ok"


_FLOW2 = ["flow", "--n", "2", "--spectrum", "0.5,-1+0.5j", "--hamiltonian", "1,1"]


@pytest.mark.parametrize("argv, option", [
    (["verify-quantum", "--n", "3", "--output", "missing/q.json"], "--output"),
    ([*_FLOW2, "--output", "missing/r.json"], "--output"),
    ([*_FLOW2, "--trajectory", "missing/t.jsonl"], "--trajectory"),
], ids=["quantum-output", "flow-output", "flow-trajectory"])
def test_a_missing_output_directory_is_a_config_error_before_any_check(
        tmp_path, capsys, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GZTOWER_OUTPUT_DIR", raising=False)
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda config: pytest.fail("a check ran"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"configuration error: {option} directory 'missing' does not exist" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, option", [
    (["verify-quantum", "--n", "2", "--output", "."], "--output"),
    ([*_FLOW2, "--trajectory", "sub"], "--trajectory"),
], ids=["quantum-output", "flow-trajectory"])
def test_an_output_path_that_is_a_directory_is_a_config_error_before_any_check(
        tmp_path, capsys, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GZTOWER_OUTPUT_DIR", raising=False)
    (tmp_path / "sub").mkdir()
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda config: pytest.fail("a check ran"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"configuration error: {option} {argv[-1]!r} is a directory" in err


@pytest.mark.parametrize("output, trajectory", [
    ("same.json", "same.json"),
    ("same.json", "sub/../same.json"),
    ("same.json", "{dir}/same.json"),
], ids=["equal", "dot-dot", "absolute"])
def test_output_and_trajectory_naming_one_file_is_a_config_error_before_any_check(
        tmp_path, capsys, monkeypatch, output, trajectory):
    # the paths are compared after GZTOWER_OUTPUT_DIR applies to the relative ones
    monkeypatch.setenv("GZTOWER_OUTPUT_DIR", str(tmp_path))
    (tmp_path / "sub").mkdir()
    monkeypatch.setitem(cli._COMMANDS, "flow", lambda config: pytest.fail("a check ran"))
    code, out, err = run_cli(capsys, *_FLOW2, "--output", output,
                             "--trajectory", trajectory.format(dir=tmp_path))
    assert (code, out) == (2, "")
    assert "configuration error: --output and --trajectory name the same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_a_missing_output_env_dir_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GZTOWER_OUTPUT_DIR", str(tmp_path / "missing"))
    monkeypatch.setitem(cli._COMMANDS, "verify-quantum",
                        lambda config: pytest.fail("a check ran"))
    code, _, err = run_cli(capsys, "verify-quantum", "--n", "2", "--output", "q.json")
    assert code == 2 and "does not exist" in err


_JSON_NATIVE = {
    "classical-gz": ["verify-classical", "--n", "3", "--points", "2"],
    "classical-mf": ["verify-classical", "--n", "3", "--family", "mf"],
    "classical-trivial": ["verify-classical", "--n", "3", "--family", "trivial", "--points", "2"],
    "quantum": ["verify-quantum", "--n", "3"],
    "orbit": ["orbit", "--n", "3", "--spectrum=1,-1+0.5j,0.5-1j", "--seed", "2",
              "--check", "all"],
    "orbit-stopped": ["orbit", "--n", "2", "--spectrum", "1,2", "--lam0", "1"],
    "flow": [*_FLOW2, "--seed", "3", "--t", "0.1", "--steps", "100"],
}


def _assert_no_tuple(value, path="report"):
    """No tuple anywhere in value: json.dumps writes a tuple, a NamedTuple
    record among them, as a list without complaint."""
    assert not isinstance(value, tuple), f"{path} is a {type(value).__name__}"
    items = value.items() if isinstance(value, dict) else enumerate(
        value if isinstance(value, list) else ())
    for key, item in items:
        _assert_no_tuple(item, f"{path}[{key!r}]")


def test_the_tuple_check_sees_a_nested_record():
    _assert_no_tuple({"a": [1, {"b": [2.0, None, "c"]}]})
    record = NamedTuple("Record", [("re", float), ("im", float)])
    for value in ({"a": [1, {"b": (2.0,)}]}, {"z": [record(1.0, 0.0)]}):
        with pytest.raises(AssertionError, match="tuple|Record"):
            _assert_no_tuple(value)


@pytest.mark.parametrize("name", _JSON_NATIVE)
def test_reports_are_json_native(name):
    # json.dumps without a default: every value a report holds is a JSON
    # type, and a list is a list, not a tuple
    argv = _JSON_NATIVE[name]
    config = cli._config_from_args(cli.build_parser().parse_args(argv))
    report = cli._COMMANDS[argv[0]](config)
    assert json.loads(json.dumps(report, sort_keys=True))["command"] == argv[0]
    _assert_no_tuple(report)


def test_trajectory_records_are_json_native():
    pt = orbits.sample_orbit([0.5, -1 + 0.5j], seed=3)
    records = tower.trajectory_records(pt, (1, 1), t_final=0.1, steps=100)
    assert len(records) > 1
    for record in (records[0], records[-1]):
        assert set(json.loads(json.dumps(record, sort_keys=True))) == set(record)
    _assert_no_tuple(records, "records")


# ---------------------------------------------------------------------------
# the process boundary: entry() runs main() without the cyclic collector and
# turns a crash into exit 3; each case runs in a fresh interpreter
# ---------------------------------------------------------------------------

def _fresh(*args, cwd=None, **env):
    """python *args in a fresh interpreter, with the package on the path and
    env added to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path, **env),
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _entry_with(command, body, *argv):
    """A fresh gz-tower process whose `command` runs `body` (Python source
    with config, sys and gc in scope, and run, the real command)."""
    code = ("import atexit, gc, sys\nfrom gztower import cli\n"
            f"run = cli._COMMANDS[{command!r}]\n"
            "def patched(config):\n" + "".join(f"    {line}\n" for line in body) +
            f"cli._COMMANDS[{command!r}] = patched\n"
            "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0,"
            " file=sys.stderr))\n"
            "cli.entry()\n")
    return _fresh("-c", code, command, *argv)


def test_a_crash_exits_3_with_a_traceback_and_no_report():
    proc = _entry_with("verify-quantum", ["raise RuntimeError('injected crash')"], "--n", "2")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback (most recent call last)" in proc.stderr
    assert "RuntimeError: injected crash" in proc.stderr


@pytest.mark.parametrize("raised, returncode", [("SystemExit(7)", 7),
                                                ("KeyboardInterrupt()", -2)],
                         ids=["system-exit", "keyboard-interrupt"])
def test_system_exit_and_keyboard_interrupt_pass_through(raised, returncode):
    proc = _entry_with("verify-quantum", [f"raise {raised}"], "--n", "2")
    assert proc.returncode == returncode      # -2: killed by SIGINT, as Python does
    assert proc.stdout == ""


def test_entry_runs_the_command_without_the_collector():
    proc = _entry_with("verify-quantum", [
        "print('collector on during the run:', gc.isenabled(), file=sys.stderr)",
        "return run(config)"], "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"
    assert "collector on during the run: False" in proc.stderr
    assert "frozen at exit: True" in proc.stderr


@pytest.mark.parametrize("argv", [["verify-quantum", "--n", "2"],
                                  ["verify-quantum", "--n", "1"]], ids=["ok", "config-error"])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv):
    assert gc.isenabled()
    frozen = gc.get_freeze_count()
    run_cli(capsys, *argv)
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def _garbage_left(capsys, argv):
    """The number of objects the cyclic collector frees after main(argv)."""
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()
        capsys.readouterr()


SPECTRA = {3: "1,-1+0.5j,0.5-1j", 4: "1,-1+0.5j,0.5-1j,2+1j"}
SIZED = {
    "classical-gz": lambda n: ["verify-classical", "--n", str(n), "--points", "1"],
    "classical-mf": lambda n: ["verify-classical", "--n", str(n), "--family", "mf",
                               "--points", "1"],
    "quantum": lambda n: ["verify-quantum", "--n", str(n), "--trials", "1"],
    "orbit": lambda n: ["orbit", "--n", str(n), f"--spectrum={SPECTRA[n]}", "--seed", "2"],
    "flow": lambda steps: ["flow", "--n", "3", f"--spectrum={SPECTRA[3]}", "--seed", "2",
                           "--hamiltonian", "2,1", "--steps", str(steps)],
}


@pytest.mark.parametrize("name", SIZED)
def test_cyclic_garbage_does_not_grow_with_the_problem(capsys, name):
    # entry() never collects, so what main() leaves for the collector must
    # be a constant (the parser and first-time imports), not the problem's
    small, large = (10, 1000) if name == "flow" else (3, 4)
    _garbage_left(capsys, SIZED[name](small))          # warm-up: imports and caches
    assert _garbage_left(capsys, SIZED[name](large)) <= _garbage_left(capsys, SIZED[name](small))


@pytest.mark.parametrize("argv", [["verify-classical", "--n", "3", "--points", "2"],
                                  ["orbit", "--n", "3", f"--spectrum={SPECTRA[3]}",
                                   "--seed", "2", "--check", "all"]],
                         ids=["classical", "orbit"])
def test_output_file_holds_the_stdout_report(tmp_path, argv):
    to_stdout = _fresh("-m", "gztower.cli", *argv)
    to_file = _fresh("-m", "gztower.cli", *argv, "--output", "report.json", cwd=tmp_path)
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_file.stdout == ""
    text = (tmp_path / "report.json").read_text()
    assert text.endswith("}\n")
    written, printed = json.loads(text), json.loads(to_stdout.stdout)
    for report in (written, printed):
        del report["timestamp"], report["config"]["output"]
    assert written == printed


def test_trajectory_file_is_complete(tmp_path, capsys):
    argv = ["flow", "--n", "3", f"--spectrum={SPECTRA[3]}", "--seed", "2",
            "--hamiltonian", "2,1", "--steps", "200"]
    proc = _fresh("-m", "gztower.cli", *argv, "--trajectory", "fresh.jsonl", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    run_cli(capsys, *argv, "--trajectory", str(tmp_path / "in-process.jsonl"))
    text = (tmp_path / "fresh.jsonl").read_text()
    assert len(text.splitlines()) == json.loads(proc.stdout)["samples"] > 1
    assert text == (tmp_path / "in-process.jsonl").read_text()


@pytest.mark.parametrize("argv, code, status", [
    (["verify-classical", "--n", "2"], 0, "ok"),
    (["orbit", "--n", "2", "--spectrum", "1,2", "--lam0", "1"], 1, "violation"),
    (["orbit", "--n", "1", "--spectrum", "1"], 2, None),
    (["verify-quantum", "--n", "2", "--output", "missing/q.json"], 2, None),
], ids=["ok", "violation", "config-error", "missing-output-directory"])
def test_exit_codes_of_a_fresh_process(tmp_path, argv, code, status):
    proc = _fresh("-m", "gztower.cli", *argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    if status is None:
        assert proc.stdout == "" and proc.stderr.startswith("configuration error")
    else:
        assert json.loads(proc.stdout)["status"] == status


# ---------------------------------------------------------------------------
# the verdict: one rule reads a report's status and exit code from its
# graded sections, the top-level dicts with a status
# ---------------------------------------------------------------------------

_OK, _VIOLATION = {"status": "ok"}, {"status": "violation"}


@pytest.mark.parametrize("sections, code", [
    ({"config": {"n": 3}, "samples": 41}, 1),
    ({"a": _OK, "b": _VIOLATION, "c": _OK}, 1),
    ({"a": _OK, "b": _OK, "error": {"kind": "branch-jump", "level": 2}}, 1),
    ({"a": _OK, "b": _OK, "config": {"n": 3}, "convention": "nested"}, 0),
], ids=["no-graded-section", "one-violation", "error", "all-ok"])
def test_conclude_reads_the_status_from_the_graded_sections(sections, code):
    # no graded section is a violation: no report passes on zero checks
    report = dict(sections)
    assert cli._conclude(report) == code
    assert report == {**sections, "status": "ok" if code == 0 else "violation"}


_ORBIT3 = ["orbit", "--n", "3", "--spectrum", "1,2,3"]
_FLOW3 = ["flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1"]


@pytest.mark.parametrize("argv, graded", [
    (["verify-classical", "--n", "2"], {"commutation", "independence", "trivial"}),
    (["verify-classical", "--n", "2", "--family", "trivial"], {"trivial"}),
    (["verify-quantum", "--n", "2"], {"quantum", "diffop_realization"}),
    (_ORBIT3, {"canonical_chart", "chart_residuals"}),
    ([*_ORBIT3, "--check", "all"],
     {"canonical_chart", "chart_residuals", "residue_form", "action_angle"}),
    (["orbit", "--n", "2", "--spectrum", "1,2", "--lam0", "1"],
     {"canonical_chart", "chart_residuals"}),
    (_FLOW3, {"conservation", "linearization"}),
    ([*_FLOW3, "--lam0=9e307+9e307j"], set()),
], ids=["classical", "trivial", "quantum", "orbit", "orbit-all", "orbit-stopped", "flow",
        "flow-stopped"])
def test_each_subcommand_grades_exactly_these_sections(argv, graded):
    # a later dict with a status field cannot join the verdict unnoticed
    config = cli._config_from_args(cli.build_parser().parse_args(argv))
    report = cli._COMMANDS[argv[0]](config)
    assert {key for key, value in report.items()
            if isinstance(value, dict) and "status" in value} == graded
    assert ("error" in report) == any(arg.startswith("--lam0") for arg in argv)


# each graded numeric section: the run that grades it, its deviation, and
# the layer function that grades it, whose tolerance keyword is its bound
_DEVIATIONS = {
    "trivial": (["verify-classical", "--n", "3", "--family", "trivial", "--points", "1"],
                lambda sec: sec["max_abs_bracket"], (families, "verify_trivial_numeric")),
    "canonical_chart": ([*_ORBIT3, "--check", "all"],
                        lambda sec: max(sec["max_deviation"], sec["casimir_deviation"]),
                        (orbits, "verify_canonical_chart")),
    "chart_residuals": ([*_ORBIT3, "--check", "all"],
                        lambda sec: max(sec["root_residual"], sec["angle_relation"]),
                        (orbits, "chart_residuals")),
    "residue_form": ([*_ORBIT3, "--check", "all"],
                     lambda sec: sec["variants"][0]["max_deviation"],
                     (orbits, "residue_form_check")),
    "action_angle": ([*_ORBIT3, "--check", "all"],
                     lambda sec: sec["max_deviation_upper_levels"],
                     (tower, "action_angle_bracket_table")),
    "conservation": (_FLOW3, lambda sec: sec["max_h_drift"], (tower, "conservation_check")),
    "linearization": (_FLOW3, lambda sec: sec["max_error"], (tower, "linearization_check")),
}


@pytest.mark.parametrize("section", _DEVIATIONS)
def test_each_bound_is_the_tolerance_default_of_its_layer_function(capsys, section):
    # the report states the bound that the grading function keeps as its
    # default, so the bound is written once, in the layer
    argv, _, (module, name) = _DEVIATIONS[section]
    _, out, _ = run_cli(capsys, *argv)
    default = inspect.signature(getattr(module, name)).parameters["tolerance"].default
    assert parse_report(out)[section]["tolerance"] == default


def test_cli_holds_no_bound():
    # every float of cli is the smallest |--t|, a limit on the configuration
    assert [name for name, value in vars(cli).items()
            if isinstance(value, float)] == ["MIN_ABS_T"]


@pytest.mark.parametrize("section", _DEVIATIONS)
def test_a_deviation_equal_to_its_tolerance_is_ok(monkeypatch, capsys, section):
    # every numeric grade is ok exactly when deviation <= tolerance
    argv, deviation, (module, name) = _DEVIATIONS[section]
    _, out, _ = run_cli(capsys, *argv)
    dev = deviation(parse_report(out)[section])
    assert dev > 0
    monkeypatch.setattr(module, name, functools.partial(getattr(module, name), tolerance=dev))
    code, out, _ = run_cli(capsys, *argv)
    graded = parse_report(out)[section]
    assert deviation(graded) == graded["tolerance"] == dev
    assert (code, graded["status"]) == (0, "ok")
