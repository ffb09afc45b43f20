"""Gelfand-Zetlin integrable structure on T*GL(N).

Exact commuting families from characteristic minors, the quantum commuting
subalgebra via quantum determinants, canonical charts on coadjoint orbits,
and the associated action-angle / spectral-tower geometry, with exact
symbolic checks where possible and independent numerical oracles elsewhere.

Importing the package loads none of its layers.  Each public name below is
imported from its home module on first use (PEP 562), so a process that
only runs the exact algebra never loads the numeric geometry, and the other
way round.  The exact algebra (poisson, families, quantum) imports no numpy
either: only the numeric oracles of poisson that take a CanonicalPoint load
it, when they first run.
"""

import importlib

__version__ = "0.1.0"

# public name -> home module; __all__, __dir__ and __getattr__ all read it
_EXPORTS = {
    **dict.fromkeys([
        "CanonicalPoint", "PoissonPoly", "bracket", "canonical_bracket", "evaluate",
        "evaluate_at", "random_canonical_point", "u_as_canonical",
        "utilde_as_canonical"], "poisson"),
    **dict.fromkeys([
        "CommutingFamily", "FamilySpec", "build_family", "char_minor",
        "independence_rank", "verify_commutes", "verify_trivial_numeric"], "families"),
    **dict.fromkeys([
        "NCPoly", "diffop_realization_check", "qdet", "quantum_family",
        "verify_quantum_commutes"], "quantum"),
    **dict.fromkeys([
        "GZChart", "OrbitPoint", "OrbitTangent", "gz_forward",
        "kk_bracket", "residue_form_check", "sample_orbit",
        "verify_canonical_chart"], "orbits"),
    **dict.fromkeys([
        "TowerDescriptor", "TowerLevel", "action_angle_bracket_table",
        "angle_variables", "build_tower", "differentials", "hamiltonian_flow",
        "linearization_check"], "tower"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
