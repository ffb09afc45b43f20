"""Seeded inputs for the benchmark workloads.

Every input comes from the benchmark's own ``numpy`` generator, seeded with
the workload seed, so the same seed always gives the same argv lists and the
program only ever sees the generated values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SPECTRUM_GAP = 0.35     # minimal pairwise distance, as in orbits.random_spectrum
SPECTRUM_BOX = 1.5      # real and imaginary parts drawn from [-box, box]
TRAJECTORY = ".bench_out/trajectory.jsonl"


@dataclass(frozen=True)
class Op:
    """One CLI report: a metric name (``classical-gz5`` ...) and its argv."""

    name: str
    argv: tuple[str, ...]


def cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def spectrum(rng: np.random.Generator, n: int) -> list[complex]:
    """n complex values, pairwise at least SPECTRUM_GAP apart, six decimals."""
    while True:
        re = np.round(rng.uniform(-SPECTRUM_BOX, SPECTRUM_BOX, n), 6)
        im = np.round(rng.uniform(-SPECTRUM_BOX, SPECTRUM_BOX, n), 6)
        values = [complex(a, b) for a, b in zip(re, im)]
        if min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]) >= SPECTRUM_GAP:
            return values


def spectrum_arg(values: list[complex]) -> str:
    # "--spectrum=<list>" keeps a leading minus sign from reading as an option.
    return "--spectrum=" + ",".join(f"{z.real:.6f}{z.imag:+.6f}j" for z in values)


def _exact_pass(rng: np.random.Generator) -> list[Op]:
    return [
        Op("classical-gz5", ("verify-classical", "--family", "gz", "--n", "5",
                             "--points", "1", "--seed", str(cli_seed(rng)))),
        Op("classical-mf4", ("verify-classical", "--family", "mf", "--n", "4",
                             "--shift-matrix", "random-rational",
                             "--seed", str(cli_seed(rng)))),
        Op("quantum4", ("verify-quantum", "--n", "4", "--allow-large",
                        "--seed", str(cli_seed(rng)))),
    ]


def _geometry_pass(rng: np.random.Generator) -> list[Op]:
    return [
        Op("orbit5", ("orbit", "--n", "5", "--check", "all",
                      spectrum_arg(spectrum(rng, 5)), "--seed", str(cli_seed(rng)))),
        Op("flow5", ("flow", "--n", "5", "--hamiltonian", "4,3", "--steps", "1000",
                     spectrum_arg(spectrum(rng, 5)), "--seed", str(cli_seed(rng)),
                     "--trajectory", TRAJECTORY)),
    ]


CLI_PASSES = {"exact": _exact_pass, "geometry": _geometry_pass}


def cli_passes(workload: str, seed: int):
    """Endless lists of Ops, one list per pass."""
    rng = np.random.default_rng(seed)
    while True:
        yield CLI_PASSES[workload](rng)


@dataclass(frozen=True)
class BatteryInputs:
    """Seeded inputs of one battery pass (N=3)."""

    mf_shift: tuple            # exact rational shift matrix
    rank_point_seed: int
    trivial_seed: int
    diffop_seed: int
    spectrum: tuple[complex, ...]
    orbit_seed: int
    residue_seed: int


def battery_passes(seed: int):
    """Endless BatteryInputs, one per pass; pass 1 repeats pass 0 (the warm-up)."""
    rng = np.random.default_rng(seed)

    def draw() -> BatteryInputs:
        shift = tuple(tuple(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                            for _ in range(3)) for _ in range(3))
        return BatteryInputs(mf_shift=shift, rank_point_seed=cli_seed(rng),
                             trivial_seed=cli_seed(rng), diffop_seed=cli_seed(rng),
                             spectrum=tuple(spectrum(rng, 3)), orbit_seed=cli_seed(rng),
                             residue_seed=cli_seed(rng))

    first = draw()
    yield first
    yield first
    while True:
        yield draw()
