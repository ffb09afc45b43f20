"""The plain-Python normal stream against numpy.random.default_rng.

gztower._pcg64 must give default_rng(seed).standard_normal bit for bit, so
that the geometry layers sample the points numpy's generator samples without
loading numpy.random.  Golden values pin the stream itself: should a numpy
release change its stream, these fail rather than every report reseeding
silently."""

import math

import numpy as np
import pytest

from gztower import _pcg64
from gztower._pcg64 import standard_normal_stream
from gztower.orbits import sample_orbit


def _numpy_draws(seed, count):
    return np.random.default_rng(seed).standard_normal(count)


def test_the_first_draws_equal_numpy_for_seeds_0_to_2999():
    differ = [seed for seed in range(3000)
              if not np.array_equal(standard_normal_stream(seed).standard_normal((60,)),
                                    _numpy_draws(seed, 60))]
    assert differ == []


@pytest.mark.parametrize("seed", [2**31 - 2, 2**32 + 5, 2**64 + 7, 2**128 + 1, 2**200 + 3],
                         ids=["31-bit", "two-words", "three-words", "five-words", "seven-words"])
def test_long_seeds_equal_numpy(seed):
    # words past the pool's fourth are mixed in after the pool is full
    assert np.array_equal(standard_normal_stream(seed).standard_normal((60,)), _numpy_draws(seed, 60))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError), ("1", TypeError)],
                         ids=["negative", "float", "string"])
def test_a_seed_that_is_no_integer_at_least_0_is_refused(seed, error):
    # as default_rng refuses a negative seed; a float or a string is no seed here
    with pytest.raises(error):
        standard_normal_stream(seed)


def test_the_raw_outputs_equal_numpys_pcg64():
    rng = standard_normal_stream(42)
    raw = np.random.PCG64(42).random_raw(1000)
    assert [rng._next64() for _ in range(1000)] == [int(x) for x in raw]


def test_shapes_fill_in_c_order():
    block = standard_normal_stream(7).standard_normal((3, 4))
    assert block.shape == (3, 4) and block.dtype == np.float64
    assert np.array_equal(block, np.random.default_rng(7).standard_normal((3, 4)))


class _CountingMath:
    """The math module, counting the calls of the ziggurat's two slow paths:
    log1p only on the tail (layer 0), exp only on a wedge."""

    prod = staticmethod(math.prod)

    def __init__(self):
        self.tail = self.wedge = 0

    def log1p(self, x):
        self.tail += 1
        return math.log1p(x)

    def exp(self, x):
        self.wedge += 1
        return math.exp(x)


def test_200000_draws_take_every_path_and_equal_numpy(monkeypatch):
    counting = _CountingMath()
    monkeypatch.setattr(_pcg64, "math", counting)
    draws = standard_normal_stream(1).standard_normal((200_000,))
    assert counting.tail > 0 and counting.wedge > 0
    assert np.array_equal(draws, _numpy_draws(1, 200_000))
    assert (draws[-1], draws.min(), draws.max(), int(abs(draws).argmax())) == (
        -0.04415526720711728, -4.199743508838311, 4.406353522522504, 30266)
    # the tail starts at r: some draws lie beyond it on both sides
    assert draws.min() < -_pcg64._R < _pcg64._R < draws.max()


@pytest.mark.parametrize("seed, first", [
    (0, [0.1257302210933933, -0.1321048632913019, 0.6404226504432821]),
    (1, [0.345584192064786, 0.8216181435011584, 0.33043707618338714]),
    (2**200 + 3, [0.9141671157827425, 1.3493057891498157, 0.3621260350549284]),
], ids=["seed-0", "seed-1", "seven-words"])
def test_golden_values(seed, first):
    assert standard_normal_stream(seed).standard_normal((3,)).tolist() == first


def test_sample_orbit_takes_int_numpy_int_and_generator_seeds_alike():
    spectrum = [1, 2, 3, 4]
    u = sample_orbit(spectrum, seed=3).u
    assert np.array_equal(sample_orbit(spectrum, seed=np.int64(3)).u, u)
    assert np.array_equal(sample_orbit(spectrum, seed=np.random.default_rng(3)).u, u)
