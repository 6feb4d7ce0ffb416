"""Campaign statistics against the installed NumPy: the pure-Python sum, mean and
ddof=1 spread must equal ``np.sum``, ``np.mean`` and ``np.std(ddof=1)`` bit for bit."""
from __future__ import annotations

import random

import pytest

from ncgames.experiments import _mean_sd, _sum

np = pytest.importorskip("numpy")

LENGTHS = (*range(1, 1001), 8191, 8192, 8193, 20_000, 100_000)


def uniform(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(-1e3, 1e3) for _ in range(n)]


def campaign_like(rng: random.Random, n: int) -> list[float]:
    denom = rng.randint(1, 60)  # covered percent of a graph with `denom` nodes
    return [100.0 * rng.randint(0, denom) / denom for _ in range(n)]


def small_integers(rng: random.Random, n: int) -> list[float]:
    return [float(rng.randint(0, 9)) for _ in range(n)]


@pytest.mark.parametrize("values", [uniform, campaign_like, small_integers])
def test_sum_mean_and_spread_match_numpy_bit_for_bit(values):
    rng = random.Random(values.__name__)
    for n in LENGTHS:
        xs = values(rng, n)
        arr = np.array(xs)
        mean, spread = _mean_sd(xs)
        assert _sum(xs) == float(np.sum(arr)), n
        assert mean == float(np.mean(arr)), n
        if n > 1:
            assert spread == float(np.std(arr, ddof=1)), n
        else:
            assert spread == 0.0
