"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


@pytest.mark.parametrize("workload", ["exact", "geometry"])
def test_cli_inputs_repeat_for_a_seed(workload):
    first = list(islice(gen.cli_passes(workload, 7), 5))
    assert first == list(islice(gen.cli_passes(workload, 7), 5))
    assert first != list(islice(gen.cli_passes(workload, 8), 5))
    assert len({tuple(ops) for ops in first}) == 5


def test_battery_inputs_repeat_for_a_seed():
    first = list(islice(gen.battery_passes(3), 4))
    assert first == list(islice(gen.battery_passes(3), 4))
    assert first[1] == first[0] and first[2] != first[0]


def test_pass_count_follows_the_arguments_alone():
    assert [run.pass_count(w, 30, False) for w in run.WORKLOADS] == [2, 4, 55]
    assert [run.pass_count(w, 30, True) for w in run.WORKLOADS] == [2, 2, 27]
    assert run.pass_count("exact", 1, False) == 2


def test_spectra_are_separated_and_survive_the_argv():
    import numpy as np

    values = gen.spectrum(np.random.default_rng(1), 5)
    assert min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]) >= gen.SPECTRUM_GAP
    arg = gen.spectrum_arg(values)
    assert arg.startswith("--spectrum=")
    assert [complex(x) for x in arg.split("=", 1)[1].split(",")] == values


def _gz5_report() -> dict:
    return {
        "schema": "gz-tower/1", "command": "verify-classical", "status": "ok",
        "timestamp": "t",
        "commutation": {"pairs": 300, "max_nonzero_terms": 0, "status": "ok", "witness": None},
        "independence": {"ranks": [25], "expected": 25, "status": "ok"},
        "trivial": {"points": 1, "pairs": 300, "max_abs_bracket": 1e-9,
                    "tolerance": 1e-5, "status": "ok"},
    }


def _verdict(report, code=0):
    return check.check_cli("classical-gz5", code, json.dumps(report), "")


def test_checker_accepts_a_consistent_report():
    assert _verdict(_gz5_report()).kind == "ok"


def test_checker_flags_a_flipped_status():
    report = _gz5_report()
    report["status"] = "violation"
    assert _verdict(report, code=1).kind == "bad-report"
    report = _gz5_report()
    report["trivial"]["status"] = "violation"      # deviation is below tolerance
    assert _verdict(report, code=1).kind == "bad-report"


def test_checker_flags_a_wrong_pair_count():
    report = _gz5_report()
    report["commutation"]["pairs"] = 299
    verdict = _verdict(report)
    assert verdict.kind == "bad-report"
    assert any("pairs" in p for p in verdict.problems)


def test_checker_flags_a_missing_report():
    failed = check.check_cli("flow5", 1, "", "check failed: tau[4,1] jumped by 6.2\n")
    assert failed.kind == "no-report"
    crashed = check.check_cli("flow5", 1, "", "Traceback ...\nZeroDivisionError\n")
    assert crashed.kind == "crash"
    assert check.check_cli("flow5", None, "", "").kind == "timeout"


def test_checker_accepts_a_consistent_violation():
    report = _gz5_report()
    report["trivial"].update(max_abs_bracket=1e-3, status="violation")
    report["status"] = "violation"
    assert _verdict(report, code=1).kind == "violation"


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["a", 6.0, 7.0, 3],     # a recursive call below d
        ["c", 20.0, 21.0, -1],  # a second root
    ]
    out = summarize(spans)
    assert out["calls"] == {"a": 2, "b": 1, "c": 2, "d": 1}
    assert out["busy_s"] == {"a": 10.0, "b": 3.0, "c": 2.0, "d": 4.0}
    assert out["self_s"] == {"a": 3.0 + 1.0, "b": 2.0, "c": 2.0, "d": 3.0}
    assert out["child_calls"] == {"a>b": 1, "b>c": 1, "a>d": 1, "d>a": 1}
    assert sum(out["self_s"].values()) == 10.0 + 1.0


def test_tracer_wraps_names_in_importing_modules_and_restores_them():
    from gztower import families, poisson

    original = poisson.bracket
    assert families.bracket is original
    tracer = Tracer()
    tracer.install()
    try:
        assert families.bracket is poisson.bracket is not original
        fam = families.build_family(families.FamilySpec("gz-principal", 2, "both"))
        families.verify_commutes(fam)
    finally:
        tracer.uninstall()
    assert families.bracket is poisson.bracket is original
    summary = tracer.summary()
    assert summary["calls"]["poisson.bracket"] == summary["counters"]["families.verify_commutes.pairs"]
    assert summary["child_calls"]["families.verify_commutes>poisson.bracket"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
