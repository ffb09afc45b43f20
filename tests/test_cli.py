import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from gztower import cli, families, orbits, quantum, tower
from gztower.cli import RunConfig, main
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


def test_classical_trivial_only(capsys):
    code, out, _ = run_cli(capsys, "verify-classical", "--n", "2",
                           "--family", "trivial", "--points", "3")
    assert code == 0
    assert parse_report(out)["trivial"]["status"] == "ok"


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
    assert report["convention"] == "nested"
    assert report["quantum"]["status"] == "ok"
    assert report["diffop_realization"]["status"] == "ok"


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

    def flipped(u, convention, lowering=False):
        coeffs, roots = kernel(u, convention, lowering)
        first = 0 if lowering else len(u)
        for n in range(2, len(u)):
            r, c = (n, n - 1) if convention.rows_variant else (n - 1, n)
            K = u[:n - 1, :n - 1] + np.outer(u[:n - 1, c], u[r, :n - 1]) / u[r, c]
            e = np.linalg.eigvals(K)
            roots[first + n - 1], coeffs[first + n - 1] = e, -u[r, c] * np.poly(e)
        return coeffs, roots

    monkeypatch.setattr(orbits, "_level_roots", flipped)
    code, out, _ = run_cli(capsys, "orbit", "--n", "5", "--seed", "3",
                           "--spectrum=0.9+0.1j,-1.1+0.4j,0.3-1.2j,-0.5-0.6j,1.3+1.1j")
    residuals = parse_report(out)["chart_residuals"]
    assert code == 1 and residuals["status"] == "violation"
    assert residuals["root_residual"] < 1e-9 < residuals["angle_relation"]


S8 = "0.9+0.1j,-1.1+0.4j,0.3-1.2j,-0.5-0.6j,1.3+1.1j,-1.4-1.3j,0.1+0.9j,0.7-0.4j"


def test_orbit_n8_check_all_is_canonical(capsys):
    # the finite-difference stencils read 1.6e-5 on the chart and 1.9e-4 on
    # the residue form here, over their tolerances
    code, out, _ = run_cli(capsys, "orbit", "--n", "8", f"--spectrum={S8}",
                           "--seed", "3", "--check", "all")
    report = parse_report(out)
    assert code == 0 and report["status"] == "ok"
    for section in ("canonical_chart", "residue_form", "action_angle"):
        assert report[section]["derivatives"] == "analytic"
        assert report[section]["status"] == "ok"
    assert report["canonical_chart"]["max_deviation"] < 1e-9


def test_orbit_n8_integer_spectrum_is_near_the_singular_locus(capsys):
    # the action-angle table misses by 7.6e-2 here; the conditioning figures
    # show why: a level-7 divisor point 0.0062 from a puncture, and gamma[7]
    # 0.019 from gamma[8]
    code, out, _ = run_cli(capsys, "orbit", "--n", "8", "--spectrum", "1,2,3,4,5,6,7,8",
                           "--seed", "3", "--check", "all")
    report = parse_report(out)
    assert code == 1 and report["status"] == "violation"
    assert report["action_angle"]["status"] == "violation"
    for section in ("canonical_chart", "residue_form", "action_angle"):
        figures = report[section]["conditioning"]
        assert figures["min_divisor_gap"] < 0.01
        assert figures["min_level_gap"] < 0.02
        assert figures["max_root_condition"] > 1.0


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
    assert report["error"] == {"kind": "path-through-puncture", "time": None}
    assert report["canonical_chart"]["status"] == "ok"
    assert "tower" not in report and "action_angle" not in report


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
    # the canonicity report carries the full bracket table of the winner
    table = report["canonical_chart"]["table"]
    val = complex(*table["gamma[1,1]|theta[1,1]"])
    assert abs(val + 1.0) < 1e-5


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
    assert report["conservation"]["status"] == "ok"
    lines = traj.read_text().strip().splitlines()
    assert len(lines) == report["samples"]
    record = json.loads(lines[0])
    assert set(record) == {"t", "u", "h", "tau", "branch_flags"}


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


def test_flow_regularity_loss_reports_time(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "flow", "--n", "2", "--spectrum", "0.5,-1+0.5j",
                           "--seed", "3", "--hamiltonian", "1,1",
                           "--trajectory", str(tmp_path / "t.jsonl"),
                           "--tolerance", "regularity=1e6")
    assert code == 1
    report = parse_report(out)
    assert report["status"] == "violation"
    assert report["error"]["kind"] == "regularity-lost"
    assert report["error"]["time"] == 0.0


def test_flow_regularity_loss_in_the_linearization_only_reports_time(tmp_path, monkeypatch,
                                                                     capsys):
    # the trajectory runs to --t 1, the linearization to 0.1: lose regularity
    # in the second flow alone, and check that both got --tolerance regularity
    real_flow = tower.hamiltonian_flow
    gaps = []

    def flow(pt, selector, t_final=1.0, reg_gap=1e-6, **kwargs):
        gaps.append(reg_gap)
        if t_final == 0.1:
            raise tower.RegularityLostError(0.05)
        return real_flow(pt, selector, t_final=t_final, reg_gap=reg_gap, **kwargs)

    monkeypatch.setattr(tower, "hamiltonian_flow", flow)
    code, out, err = run_cli(capsys, "flow", "--n", "3", "--spectrum", "1,2,3",
                             "--hamiltonian", "2,1", "--steps", "100",
                             "--tolerance", "regularity=1e-7",
                             "--trajectory", str(tmp_path / "t.jsonl"))
    assert code == 1
    assert "check failed" not in err
    report = parse_report(out)
    assert report["status"] == "violation"
    assert report["error"] == {"kind": "regularity-lost", "time": 0.05}
    assert "linearization" not in report and "samples" not in report
    assert not (tmp_path / "t.jsonl").exists()
    assert gaps == [1e-7, 1e-7]


def _tracker_fault(level, fault):
    """The tracker's level kernel with fault(values, level) applied to the
    C_n(gamma) values of sample 10 of its stack (t = 0.2 on a 100-step grid)."""
    kernel = tower._level_coeffs

    def patched(us, gamma, convention):
        coeffs, values, finite = kernel(us, gamma, convention)
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
    assert report["error"] == {"kind": kind, "time": 0.2}
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
    assert parse_report(out)["error"] == {"kind": "branch-jump", "time": 0.025}


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
    assert error == {"kind": "regularity-lost", "time": 10.0}


def test_flow_toward_overflowing_minors_reports_the_first_failing_sample(tmp_path, capsys):
    # with 40 samples a ratio turns by more than pi/2 long before t = 10
    error = _overflowing_flow(capsys, tmp_path)
    assert error == {"kind": "branch-jump", "time": 0.25}


@pytest.mark.parametrize("t, window", [("-1", -0.1), ("0.05", 0.05), ("5", 0.1)])
def test_linearization_window_is_at_most_a_tenth_either_way(capsys, monkeypatch, t, window):
    real_check = tower.linearization_check
    seen = []

    def check(pt, selector, t_final=0.1, **kwargs):
        seen.append(t_final)
        return real_check(pt, selector, t_final=t_final, **kwargs)

    monkeypatch.setattr(tower, "linearization_check", check)
    run_cli(capsys, "flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1",
            "--t", t, "--steps", "100")
    assert seen == [window]


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
    ("flow", "--n", "3", "--spectrum", "1,2,3", "--hamiltonian", "2,1", "--steps", "0"),
    ("orbit", "--n", "3", "--spectrum", "1,2,nan"),
    ("verify-classical", "--n", "2", "--points", "0"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--pairs", "0", "--check", "residue-form"),
    ("verify-quantum", "--n", "2", "--trials", "0"),
    ("orbit", "--n", "3", "--spectrum", "1,2,1e300"),
    ("flow", "--n", "3", "--spectrum", "1,2,1e300", "--hamiltonian", "2,1"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--tolerance", "chart=abc"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--lam0", "xyz"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--lam0", "nan"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--tolerance", "chrat=1"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--tolerance", "chart=nan"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--tolerance", "chart=-1"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--tolerance", "chart=0"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--tolerance", "chart"),
    ("verify-classical", "--n", "2", "--tolerance", "chart=1e-3"),
    ("flow", "--n", "2", "--spectrum", "1,2", "--hamiltonian", "1,1",
     "--tolerance", "linearization=inf"),
    ("verify-classical", "--n", "2", "--seed", "-1"),
    ("verify-quantum", "--n", "2", "--seed", "-1"),
    ("orbit", "--n", "2", "--spectrum", "1,2", "--seed", "-1"),
    ("flow", "--n", "2", "--spectrum", "1,2", "--hamiltonian", "1,1", "--seed", "-1"),
    ("verify-classical", "--n", "2", "--family", "mf", "--shift-matrix", "diag:1/0,1"),
    ("verify-classical", "--n", "2", "--family", "mf", "--shift-matrix", "diag:1e400,1"),
], ids=["t-zero", "t-nan", "t-inf", "steps-zero", "spectrum-nan", "points-zero",
        "pairs-zero", "trials-zero", "orbit-spectrum-overflow", "flow-spectrum-overflow",
        "tolerance-not-a-number", "lam0-not-a-number", "lam0-nan", "tolerance-unknown-name",
        "tolerance-nan", "tolerance-negative", "tolerance-zero", "tolerance-no-value",
        "tolerance-not-read-by-command", "tolerance-inf", "classical-seed-negative",
        "quantum-seed-negative", "orbit-seed-negative", "flow-seed-negative",
        "shift-zero-denominator", "shift-float-overflow"])
def test_bad_values_are_config_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "configuration error" in err


def test_check_chart_is_an_argparse_error():
    # chart and tower always run, so --check offers only the checks beyond
    # them: chart ends in argparse's usage error, exit 2 and no traceback,
    # in a fresh gz-tower process
    proc = _fresh("-c", "from gztower import cli; cli.entry()",
                  "orbit", "--n", "2", "--spectrum", "1,2", "--check", "chart")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# report hygiene
# ---------------------------------------------------------------------------

def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


@pytest.mark.parametrize("argv", [
    ("orbit", "--n", "2", "--spectrum", "1,-1", "--seed", "5",
     "--check", "residue-form", "--pairs", "4"),
    ("orbit", "--n", "3", "--spectrum=1,-1+0.5j,0.5-1j", "--seed", "2", "--check", "all"),
    ("flow", "--n", "3", "--spectrum=1,-1+0.5j,0.5-1j", "--seed", "2",
     "--hamiltonian", "2,1", "--steps", "50"),
    ("verify-classical", "--n", "3", "--family", "mf"),
    ("verify-classical", "--n", "3", "--family", "gz-corner"),
    ("verify-quantum", "--n", "3"),
], ids=["orbit-n2-residue-form", "orbit-n3-all", "flow-n3", "classical-mf-n3",
        "classical-gz-corner-n3", "quantum-n3"])
def test_reports_are_deterministic(tmp_path, capsys, argv):
    traj = tmp_path / "traj.jsonl"
    extra = ("--trajectory", str(traj)) if argv[0] == "flow" else ()
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        outs.append(_strip_timestamp(out) + (traj.read_text() if extra else ""))
    assert outs[0] == outs[1]


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


# every RunConfig field with its default; each pinned config below differs
# from it only where its argv sets a value
DEFAULT_CONFIG = {
    "allow_large": False, "checks": [], "family": None, "hamiltonian": None, "lam0": None,
    "output": None, "pairs": 20, "points": 5, "seed": 0, "shift_matrix": None,
    "side": "both", "spectrum": None, "steps": 1000, "t_final": 1.0, "tolerances": {},
    "trajectory": None, "trials": 12,
}


def test_report_embeds_full_config(capsys):
    _, out, _ = run_cli(capsys, "verify-classical", "--n", "2", "--family", "gz",
                        "--seed", "9")
    assert parse_report(out)["config"] == {
        **DEFAULT_CONFIG, "command": "verify-classical", "n": 2, "seed": 9, "family": "gz",
        "shift_matrix": "random-rational", "tolerances": {"trivial": 1e-05}}


@pytest.mark.parametrize("argv, config", [
    (["flow", "--n", "2", "--spectrum", "1,2+0.5j", "--hamiltonian", "2,1", "--t", "0.5",
      "--steps", "10", "--lam0", "0.3+0.1j", "--tolerance", "linearization=0.002",
      "--seed", "4", "--trajectory", "traj.jsonl"],
     {"command": "flow", "n": 2, "seed": 4, "hamiltonian": [2, 1], "lam0": [0.3, 0.1],
      "spectrum": [[1.0, 0.0], [2.0, 0.5]], "steps": 10, "t_final": 0.5,
      "tolerances": {"linearization": 0.002, "regularity": 1e-06},
      "trajectory": "traj.jsonl"}),
    (["orbit", "--n", "2", "--spectrum", "1,2", "--check", "residue-form",
      "--check", "action-angle", "--pairs", "3", "--tolerance", "chart=2e-5", "--seed", "5"],
     {"command": "orbit", "n": 2, "seed": 5, "checks": ["residue-form", "action-angle"],
      "pairs": 3, "spectrum": [[1.0, 0.0], [2.0, 0.0]],
      "tolerances": {"action_angle": 0.0001, "chart": 2e-05, "residue": 0.0001}}),
], ids=["flow", "orbit"])
def test_geometry_reports_embed_full_config(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.setenv("GZTOWER_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert parse_report(out)["config"] == {**DEFAULT_CONFIG, **config}


def test_a_default_config_reads_empty_checks_and_tolerances():
    assert RunConfig("verify-quantum", 3).to_json() == {
        **DEFAULT_CONFIG, "command": "verify-quantum", "n": 3}


RECORDS = {
    "RunConfig": lambda: RunConfig("verify-quantum", 3),
    "FamilySpec": lambda: families.FamilySpec("gz-principal", 2),
    "CommutingFamily": lambda: families.build_family(families.FamilySpec("gz-principal", 2)),
    "CommutationReport": lambda: families.verify_commutes(
        families.build_family(families.FamilySpec("gz-principal", 2))),
    "TrivialReport": lambda: families.verify_trivial_numeric(2, 1),
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
    _, report = cli._COMMANDS[argv[0]](config)
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

