"""What the package imports, and when.

The package may import only the standard library and its declared
dependency, numpy (pyproject.toml); anything else installed on a developer's
machine, such as scipy, is not there for users.  Importing the package or
its CLI loads no layer, each subcommand loads only the layers it runs, the
exact algebra (poisson, families, quantum), verify-classical and
verify-quantum load neither numpy nor dataclasses (nor inspect, which
dataclasses imports), orbit and flow load numpy but neither dataclasses,
since every record of the package is a NamedTuple, nor numpy.random or
numpy.fft, no process loads datetime, fractions, decimal or cmath that its
work does not need, and the public
names resolve lazily to their home modules' objects."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gztower"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gztower"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_stdlib_and_numpy(path):
    outside = {name for name in _imported_modules(path) if name.split(".")[0] not in ALLOWED}
    assert not outside, f"{path.name} imports undeclared {sorted(outside)}"


def test_the_check_sees_an_undeclared_import(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text("import numpy as np\nfrom scipy.linalg import eig\n")
    assert list(_imported_modules(module)) == ["numpy", "scipy.linalg"]
    assert "scipy" not in ALLOWED


# ---------------------------------------------------------------------------
# which layers a process loads, and which of numpy, dataclasses and inspect;
# pytest has imported every layer already, so each case runs in a fresh
# interpreter
# ---------------------------------------------------------------------------

LAYERS = {"poisson", "families", "quantum", "polytools", "orbits", "tower"}
WATCHED = ("numpy", "dataclasses", "inspect")
NUMPY = {"numpy", "inspect"}    # numpy imports inspect, and no layer imports dataclasses


def _fresh(code, *argv):
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=PACKAGE.parent,
                          capture_output=True, text=True, timeout=300)


def _loaded(code, watched=WATCHED):
    """The layers a fresh interpreter holds after code, and which of the
    watched modules it holds."""
    loaded = ("print(json.dumps([sorted(m.split('.', 1)[1] for m in sys.modules"
              f" if m.startswith('gztower.')), [m for m in {watched!r} if m in sys.modules]]))")
    proc = _fresh(f"import json, sys\n{code}\n{loaded}")
    assert proc.returncode == 0, proc.stderr
    layers, held = json.loads(proc.stdout.splitlines()[-1])
    return set(layers) & LAYERS, set(held)


def _run_main(argv):
    return ("import contextlib, io\nfrom gztower import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")


def test_the_check_sees_dataclasses_and_inspect():
    assert _loaded("import dataclasses") == (set(), {"dataclasses", "inspect"})
    assert _loaded("import inspect") == (set(), {"inspect"})


@pytest.mark.parametrize("code", ["import gztower", "import gztower.cli",
                                  "import gztower; gztower.__version__"])
def test_importing_the_package_or_cli_loads_no_layer(code):
    assert _loaded(code) == (set(), set())


@pytest.mark.parametrize("code, layers", [
    ("import gztower.poisson", {"poisson"}),
    ("import gztower.quantum", {"poisson", "quantum"}),
    ("import gztower.families", {"poisson", "families"}),
    ("from gztower import bracket, qdet", {"poisson", "quantum"}),
], ids=["poisson", "quantum", "families", "public-names"])
def test_the_exact_algebra_loads_no_numpy(code, layers):
    assert _loaded(code) == (layers, set())


@pytest.mark.parametrize("argv, layers, watched", [
    (["verify-classical", "--n", "2", "--points", "1"], {"families", "poisson"}, set()),
    (["verify-quantum", "--n", "2", "--trials", "1"], {"quantum", "poisson"}, set()),
    (["orbit", "--n", "2", "--spectrum", "1,2", "--check", "all"],
     {"orbits", "polytools", "tower"}, NUMPY),
    (["flow", "--n", "2", "--spectrum", "0.5,-1+0.5j", "--hamiltonian", "1,1",
      "--t", "0.1", "--steps", "100"], {"orbits", "polytools", "tower"}, NUMPY),
], ids=["verify-classical", "verify-quantum", "orbit", "flow"])
def test_each_subcommand_loads_exactly_its_layers(argv, layers, watched):
    # no subcommand loads numpy.fft, since circle_coeffs interpolates by a
    # direct DFT, nor numpy.random, since orbit (the residue-form tangents
    # of --check all among them) and flow draw from gztower._pcg64
    assert _loaded(_run_main(argv), WATCHED + ("numpy.fft", "numpy.random")) == (layers, watched)


CLASSICAL = {family: ["verify-classical", "--n", "3", "--points", "2", "--family", family]
             for family in ("gz", "gz-corner", "mf", "trivial")}


@pytest.mark.parametrize("family", CLASSICAL)
def test_verify_classical_loads_no_numpy(family):
    assert _loaded(_run_main(CLASSICAL[family])) == ({"families", "poisson"}, set())


# the standard library a check needs: no gztower module imports datetime or
# cmath, and only the exact layers and the mf shift parser import fractions
# (which imports decimal); numpy imports datetime itself

LEAN = ("datetime", "fractions", "decimal", "cmath")


def test_the_check_sees_fractions_and_decimal():
    assert _loaded("import fractions", LEAN) == (set(), {"fractions", "decimal"})


@pytest.mark.parametrize("code", ["import gztower", "import gztower.cli"])
def test_importing_the_package_or_cli_loads_no_datetime_fractions_or_cmath(code):
    assert _loaded(code, LEAN)[1] == set()


@pytest.mark.parametrize("argv", [
    ["orbit", "--n", "2", "--spectrum", "1,2", "--check", "all"],
    ["flow", "--n", "2", "--spectrum", "0.5,-1+0.5j", "--hamiltonian", "1,1",
     "--t", "0.1", "--steps", "100"],
], ids=["orbit", "flow"])
def test_orbit_and_flow_load_no_fractions_decimal_or_cmath(argv):
    assert _loaded(_run_main(argv), ("fractions", "decimal", "cmath"))[1] == set()


@pytest.mark.parametrize("argv", [*CLASSICAL.values(), ["verify-quantum", "--n", "2", "--trials", "1"]],
                         ids=[f"verify-classical-{f}" for f in CLASSICAL] + ["verify-quantum"])
def test_the_exact_checks_load_no_datetime_or_cmath(argv):
    assert _loaded(_run_main(argv), ("datetime", "cmath"))[1] == set()


def test_a_public_name_loads_only_its_home_layers():
    assert _loaded("from gztower import bracket") == ({"poisson"}, set())
    assert _loaded("import gztower; gztower.OrbitPoint") == ({"orbits", "polytools"}, NUMPY)


@pytest.mark.parametrize("argv, code, err, error", [
    (["verify-quantum", "--n", "7"], 2,
     "configuration error: N=7 PBW verification is expensive; pass --allow-large to proceed\n",
     None),
    (["orbit", "--n", "3", "--spectrum=1,2,1e300"], 2,
     "configuration error: spectrum too large: the characteristic minors of u "
     "leave floating-point range\n", None),
    # lam0 on a puncture: build_tower raises PathThroughPunctureError, and
    # the report ends as a violation that names it
    (["orbit", "--n", "2", "--spectrum", "1,2", "--lam0", "1"], 1, "orbit: violation\n",
     {"kind": "path-through-puncture", "time": None, "level": 2,
      "message": "integration endpoint 1+0j within 1e-08 of puncture 1, 1+9.36861e-17j"}),
], ids=["size-guard", "orbit-error", "tower-error"])
def test_layer_errors_keep_their_exit_code_and_message(argv, code, err, error):
    # a configuration error writes no report; a stopped check writes one
    proc = _fresh("from gztower.cli import entry; entry()", *argv)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert (json.loads(proc.stdout)["error"] if proc.stdout else None) == error


# ---------------------------------------------------------------------------
# the public names
# ---------------------------------------------------------------------------

EXPORTS = {
    "poisson": ["CanonicalPoint", "PoissonPoly", "bracket", "canonical_bracket",
                "evaluate", "evaluate_at", "random_canonical_point", "u_as_canonical",
                "utilde_as_canonical"],
    "families": ["CommutingFamily", "FamilySpec", "build_family", "char_minor",
                 "independence_rank", "verify_commutes", "verify_trivial_numeric"],
    "quantum": ["NCPoly", "diffop_realization_check", "qdet", "verify_quantum_commutes"],
    "orbits": ["GZChart", "OrbitPoint", "OrbitTangent", "gz_forward",
               "kk_bracket", "residue_form_check", "sample_orbit",
               "verify_canonical_chart"],
    "tower": ["TowerDescriptor", "TowerLevel", "action_angle_bracket_table",
              "angle_variables", "build_tower", "differentials", "hamiltonian_flow",
              "linearization_check"],
}
PUBLIC = [name for names in EXPORTS.values() for name in names]


def test_the_export_list_is_pinned():
    import gztower

    assert gztower.__all__ == PUBLIC
    assert gztower.__version__ == "0.1.0"


@pytest.mark.parametrize("home", EXPORTS)
def test_each_public_name_is_its_home_modules_object(home):
    import gztower

    module = importlib.import_module(f"gztower.{home}")
    for name in EXPORTS[home]:
        assert getattr(gztower, name) is getattr(module, name), name


def test_star_import_and_dir_list_every_public_name():
    import gztower

    namespace = {}
    exec("from gztower import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert set(PUBLIC) <= set(dir(gztower))


def test_an_unknown_name_raises_attribute_error():
    import gztower

    with pytest.raises(AttributeError, match="no_such_name"):
        gztower.no_such_name
    assert not hasattr(gztower, "bracket_")
