"""The per-point memo of OrbitPoint: what it shares, and what it saves.

Every check that takes a point reads the level data (and the margin from
it), the chart derivatives, the divisor gradients and the tower from the
point's memo, so the checks on one point compute each of them once.  The
memo must not change any result, what it shares with callers must be
read-only, and it must not keep its point alive."""

import gc
import json
import weakref

import numpy as np
import pytest

from _tracking import chart_thetas, eager_point
from gztower import orbits, polytools, tower
from gztower.cli import main
from gztower.orbits import (
    OrbitPoint,
    OrbitTangent,
    random_spectrum,
    regularity_margin,
    sample_orbit,
)
from test_cli import FLOW5, ORBIT5

_SPECTRUM = [1.0, -1.0 + 0.5j, 0.5 - 1.0j, 2.0 + 0.3j]


def _pairs(n, seed):
    rng = np.random.default_rng(seed)
    draw = lambda: OrbitTangent(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return [(draw(), draw()) for _ in range(6)]


def _chart(pt):
    chart = orbits.gz_forward(pt)
    return chart.to_json(), orbits.chart_residuals(chart, pt).to_json()


# each check that takes a point, as JSON-ready output
CHECKS = {
    "gz_forward": _chart,
    "gz_forward_cols": lambda pt: [t.tolist() for t in chart_thetas(pt.levels(), pt.u)],
    "gamma_only": lambda pt: [g.tolist() for g in pt.levels().gamma],
    "margin": lambda pt: pt.margin(),
    "verify_canonical_chart": lambda pt: orbits.verify_canonical_chart(pt).to_json(),
    "residue_form_check": lambda pt: orbits.residue_form_check(pt, _pairs(pt.n, 3)).to_json(),
    "build_tower": lambda pt: tower.build_tower(pt).to_json(),
    "build_tower_lam0": lambda pt: tower.build_tower(pt, lam0=7.5 - 1j).to_json(),
    "action_angle_bracket_table": lambda pt: tower.action_angle_bracket_table(pt).to_json(),
    "hamiltonian_flow": lambda pt: [u.tolist() for u in tower.hamiltonian_flow(
        pt, (3, 2), steps=50, sample_every=10).points],
    "trajectory_records": lambda pt: tower.trajectory_records(pt, (2, 1), steps=50, samples=5),
    "linearization_check": lambda pt: tower.linearization_check(pt, (3, 1)).to_json(),
}


def _dump(value):
    return json.dumps(value, sort_keys=True, default=lambda z: [z.real, z.imag])


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_a_filled_memo_gives_the_fresh_result(name):
    warm = sample_orbit(_SPECTRUM, seed=4)
    for check in CHECKS.values():
        check(warm)
    fresh = OrbitPoint(u=warm.u, spectrum=warm.spectrum)
    assert not fresh._memo
    assert _dump(CHECKS[name](warm)) == _dump(CHECKS[name](fresh))


_LEVELS = "levels"


def test_the_memo_is_per_instance():
    pt = sample_orbit(_SPECTRUM, seed=4)
    assert set(pt._memo) == {_LEVELS}
    for check in CHECKS.values():
        check(pt)
    assert len(pt._memo) > 1
    assert OrbitPoint(pt.u, pt.spectrum)._memo == {}
    created = OrbitPoint.create(pt.u, spectrum=pt.spectrum)
    assert set(created._memo) == {_LEVELS} and created.margin() == pt.margin()


@pytest.mark.parametrize("N", [1, 2, 5, 8])
def test_the_margin_of_a_point_is_the_margin_of_its_matrix(N):
    # bit for bit: both read the roots of one level_data call
    rng = np.random.default_rng(N)
    for seed in range(5):
        pt = sample_orbit(random_spectrum(N, rng), seed=seed)
        assert regularity_margin(pt.u) == pt.margin() >= 1e-6


def _arrays(value):
    """Every ndarray in value, through tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


def test_the_point_and_the_shared_arrays_are_read_only():
    u = sample_orbit(_SPECTRUM, seed=4).u.copy()
    pt = OrbitPoint(u=u, spectrum=np.array(_SPECTRUM))
    u[0, 0] += 1.0                  # the point holds its own copy
    assert pt.u[0, 0] != u[0, 0]
    with pytest.raises(AttributeError):
        pt.u = u
    with pytest.raises(AttributeError):
        del pt._memo
    lv = pt.levels()
    (dg, _), (de, _) = pt.punctures(), pt.divisors()
    c, a = pt.c_at_gamma(), pt.a_at_gamma()
    orbits.verify_canonical_chart(pt)
    orbits.residue_form_check(pt, _pairs(pt.n, 3))
    tower.action_angle_bracket_table(pt)
    tower.linearization_check(pt, (3, 1))
    # the whole memo, whichever check added an entry: each entry but the
    # base point holds arrays, and every array it holds is read-only
    tower_keys = [key for key in pt._memo if isinstance(key, tuple) and key[0] == "tower"]
    assert len(tower_keys) == 1 and {
        "levels", "punctures", "divisors", ("c_at_gamma", True), ("c_at_gamma", False),
        "a_at_gamma", "base_point"} | set(tower_keys) == set(pt._memo)
    shared = [pt.u, pt.spectrum]
    for key, entry in pt._memo.items():
        arrays = list(_arrays(entry))
        assert arrays or key == "base_point"
        shared += arrays
    # and the layouts that every point of a size shares
    for layout in (orbits._chart_layout(pt.n), tower._action_angle_layout(pt.n)):
        arrays = list(_arrays(layout))
        assert len(arrays) == len(layout) - 1
        shared += arrays
    shared += orbits.gz_forward(pt).gamma
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    with pytest.raises(AttributeError):
        lv.gamma = []
    assert pt.levels() is lv and pt.punctures()[0] is dg and pt.divisors()[0] is de
    assert pt.c_at_gamma() is c and pt.a_at_gamma() is a


def test_the_default_base_point_is_found_once_per_point(monkeypatch):
    # build_tower without lam0 reads the base point (an eigvals of u) from
    # the memo, as it reads the descriptor
    calls = []
    base = tower.default_base_point
    monkeypatch.setattr(tower, "default_base_point", lambda pt: calls.append(pt) or base(pt))
    pt = sample_orbit(_SPECTRUM, seed=4)
    first = tower.build_tower(pt)
    assert tower.build_tower(pt) is first
    assert tower.build_tower(pt, lam0=first.base_point) is first
    assert calls == [pt]


def test_reports_do_not_share_the_memo_conditioning():
    pt = sample_orbit(_SPECTRUM, seed=4)
    report = orbits.verify_canonical_chart(pt)
    report.conditioning["min_level_gap"] = -1.0
    assert pt.conditioning()["min_level_gap"] > 0.0
    assert pt.conditioning() is not pt.conditioning()


def test_a_filled_memo_does_not_keep_its_point_alive():
    # no memo entry refers back to the point, so without the cyclic
    # collector, as in a gz-tower process, the point and its memo go with
    # the point's last reference
    enabled = gc.isenabled()
    gc.disable()
    try:
        pt = sample_orbit(_SPECTRUM, seed=4)
        for check in CHECKS.values():
            check(pt)
        assert {"levels", ("c_at_gamma", False), "divisors"} <= set(pt._memo)
        ref = weakref.ref(pt)
        del pt
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# how often one report runs the level kernel
# ---------------------------------------------------------------------------

def _kernel_runs(monkeypatch, capsys, argv):
    """(draws of sample_orbit, the minors whose roots each run of
    orbits._level_roots finds, calls of the one-minor helpers of polytools)
    in one report; a draw is a margin check."""
    events, minors = [], []
    counted = lambda fn, name: lambda *a, **k: (events.append(name), fn(*a, **k))[1]
    sample = orbits.sample_orbit
    kernel = orbits._level_roots

    def counted_kernel(*args, **kwargs):
        coeffs, roots = kernel(*args, **kwargs)
        events.append("kernel")
        minors.append(len(roots))
        return coeffs, roots

    def counted_sample(*args, **kwargs):
        events.append("sample")
        pt = sample(*args, **kwargs)
        events.append("sampled")
        return pt

    monkeypatch.setattr(orbits, "_level_roots", counted_kernel)
    monkeypatch.setattr(OrbitPoint, "margin", counted(OrbitPoint.margin, "margin"))
    monkeypatch.setattr(orbits, "sample_orbit", counted_sample)
    monkeypatch.setattr(orbits, "regularity_margin",
                        counted(orbits.regularity_margin, "regularity_margin"))
    monkeypatch.setattr(polytools, "lambda_minor_det",
                        counted(polytools.lambda_minor_det, "one-minor"))
    assert main(argv) == 0
    capsys.readouterr()
    sampling = events[events.index("sample"):events.index("sampled")]
    draws = sampling.count("margin")
    # each draw is a new point, whose margin runs the kernel once
    assert draws >= 1 and sampling.count("kernel") == draws
    assert events.count("regularity_margin") == 0
    return draws, minors, events.count("one-minor")


@pytest.mark.parametrize("argv", [ORBIT5, FLOW5], ids=["orbit5", "flow5"])
def test_one_report_runs_the_level_kernel_once_per_data(monkeypatch, capsys, tmp_path, argv):
    # the level data of the last draw is the point's, and neither report
    # adds a run: the margin, the tower and the action gradient all read the
    # point's, and the sweep's cols control needs no roots of its minors
    if argv[0] == "flow":
        argv = argv + ["--trajectory", str(tmp_path / "t.jsonl")]
    draws, minors, one_minor = _kernel_runs(monkeypatch, capsys, argv)
    N = int(argv[argv.index("--n") + 1])
    assert minors == [2 * N - 1] * draws
    assert one_minor == 0


def _same_arrays(got, want):
    assert len(got) == len(want)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
def test_the_cols_data_share_the_rows_punctures_bit_for_bit(N):
    # the sweep's cols control adds the log-minors of its C_n at the rows
    # punctures alone: the gradients of gamma and the log-minors of A_(n-1)
    # are one entry for both orientations, and all equal an eager
    # computation bit for bit
    pt = sample_orbit(random_spectrum(N, np.random.default_rng(N)), seed=N)
    c = pt.c_at_gamma(False)
    eager = eager_point(pt.u, False)
    for got, want in zip(pt.punctures(), eager.punctures()):
        _same_arrays(got, want)
    for got, want in ((c, eager.c_at_gamma(False)), (pt.a_at_gamma(), eager.a_at_gamma())):
        _same_arrays([x for pair in got for x in pair], [x for pair in want for x in pair])
    # the cols C_n are other minors than the rows ones
    assert not any(np.array_equal(x, y) for (x, _), (y, _) in zip(c, pt.c_at_gamma()))
    assert "levels" in pt._memo and ("c_at_gamma", True) in pt._memo


def test_every_cols_array_is_read_only():
    # the cols log-minors first, on a fresh point: they build the level data
    # they are taken at, which stay read-only as well
    pt = OrbitPoint(u=sample_orbit(_SPECTRUM, seed=4).u, spectrum=np.array(_SPECTRUM))
    c = pt.c_at_gamma(False)
    lv, (dg, g_conditions), a = pt.levels(), pt.punctures(), pt.a_at_gamma()
    shared = [*lv.a, *lv.gamma, *lv.c, *lv.e, *dg, *g_conditions]
    shared += [x for pair in c + a for x in pair]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    assert pt.c_at_gamma(False) is c


def _count_minor_gradients(monkeypatch):
    """The roots flag of every call of orbits._minor_gradients, one stack each."""
    calls = []
    grads = orbits._minor_gradients
    monkeypatch.setattr(orbits, "_minor_gradients",
                        lambda *a, roots: calls.append(roots) or grads(*a, roots=roots))
    return calls


def test_theta_and_the_residue_form_share_the_c_log_minors(monkeypatch):
    # both take d log C_n at the punctures of A_n; the chart derivatives of
    # a point compute them once, whichever check runs first
    calls = _count_minor_gradients(monkeypatch)
    pt = sample_orbit(_SPECTRUM, seed=4)
    N = pt.n
    orbits.residue_form_check(pt, _pairs(N, 3))
    # the roots of A_1..A_N and C_1..C_(N-1), then the log-minors of A_n at
    # e, of C_n at gamma and of A_n at the level below's gamma
    assert calls.count(True) == 2 * N - 1
    assert calls.count(False) == (N - 1) + (N - 1) + (N - 2)
    calls.clear()
    orbits._theta_gradients(pt)
    # theta adds only d log A_(n-1) at the punctures of A_n, n = 2..N-1
    assert calls == [False] * (N - 2)
    calls.clear()
    fresh = OrbitPoint(u=pt.u, spectrum=pt.spectrum)
    orbits.verify_canonical_chart(fresh)
    before = len(calls)
    orbits.residue_form_check(fresh, _pairs(N, 3))
    # the residue form, second, adds the log-minors of A_n alone
    assert calls[before:] == [False] * ((N - 1) + (N - 2))
    shared = [a for pair in fresh.c_at_gamma() for a in pair]
    assert len(shared) == 2 * (N - 1)
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@pytest.mark.parametrize("N, stacks", [(3, 5), (5, 11)])
def test_the_sweep_takes_each_log_minor_once(monkeypatch, N, stacks):
    # rows takes d log C_n and d log A_(n-1) at the punctures of A_n; cols
    # takes its own C_n and shares the A_(n-1) of rows: 3N - 4 stacks for
    # 3N - 4 distinct minors at their points; both orientations read the
    # very same gradients of gamma and log-minors of A_(n-1)
    calls = _count_minor_gradients(monkeypatch)
    read = {"punctures": [], "a_at_gamma": []}
    for name, got in read.items():
        method = getattr(OrbitPoint, name)
        monkeypatch.setattr(OrbitPoint, name,
                            lambda self, method=method, got=got: got.append(method(self)) or got[-1])
    pt = sample_orbit(random_spectrum(N, np.random.default_rng(N)), seed=N)
    report = orbits.verify_canonical_chart(pt)
    assert report.status == "ok" and [v["convention"] for v in report.variants] == ["rows", "cols"]
    assert calls.count(False) == stacks == 3 * N - 4
    for got in read.values():
        assert len(got) >= 2 and all(x is got[0] for x in got)
    assert len(pt.a_at_gamma()) == N - 2


@pytest.mark.parametrize("check, stacks", [
    (lambda pt: pt.conditioning(), lambda N: 2 * N - 1),
    (lambda pt: tower.action_angle_bracket_table(pt), lambda N: N - 1)],
    ids=["conditioning", "action_angle_bracket_table"])
def test_the_root_conditions_take_no_log_minor(monkeypatch, check, stacks):
    # conditioning reads the root conditions of gamma and e, the 2N - 1 root
    # stacks, and the action-angle table the gradients of e alone, N - 1:
    # on a fresh point neither takes a log-minor at fixed lam
    N = 5
    pt = sample_orbit(random_spectrum(N, np.random.default_rng(N)), seed=N)
    fresh = OrbitPoint(u=pt.u, spectrum=pt.spectrum)
    calls = _count_minor_gradients(monkeypatch)
    check(fresh)
    assert calls.count(False) == 0
    assert calls.count(True) == stacks(N)
