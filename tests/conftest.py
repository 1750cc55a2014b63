"""Shared fixtures and independent oracles.

Oracle functions here deliberately avoid the package's own numerics: plain
Python loops, math.fsum, math.log.  They are the reference side of every
dual-route check.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from hypentropy import HyperbolicDistribution, Case


def oracle_shannon(p) -> float:
    return -math.fsum(v * math.log(v) for v in p if v > 0.0)


def oracle_extropy(p) -> float:
    return -math.fsum((1.0 - v) * math.log(1.0 - v) for v in p if v < 1.0)


def oracle_renyi(p, q: float) -> float:
    return math.log(math.fsum(v ** q for v in p if v > 0.0)) / (1.0 - q)


def oracle_hartley(p) -> float:
    return math.log(len(p))


def oracle_collision(p) -> float:
    return -math.log(math.fsum(v * v for v in p))


def oracle_renyi_extropy(p, q: float) -> float:
    n = len(p)
    total = math.log(math.fsum((1.0 - v) ** q for v in p))
    return (n - 1.0) * (total - math.log(n - 1.0)) / (1.0 - q)


def random_full(rng: np.random.Generator, n: int) -> HyperbolicDistribution:
    """Random case-full hyperbolic distribution (flat Dirichlet projections)."""
    p1 = rng.dirichlet(np.ones(n))
    p2 = rng.dirichlet(np.ones(n))
    return HyperbolicDistribution(p1, p2, Case.FULL)


def traced_peak(call, *args) -> int:
    """The ``tracemalloc`` peak, in bytes, of one ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class CountingArray(np.ndarray):
    """An array that counts the ufunc calls it takes part in, by name, and
    lists the exponents it is raised to, one per row of a power pass."""

    calls: dict = {}
    exponents: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CountingArray.calls[ufunc.__name__] = \
            CountingArray.calls.get(ufunc.__name__, 0) + 1
        if ufunc is np.power:
            CountingArray.exponents += np.ravel(inputs[1]).tolist()
        plain = tuple(np.asarray(x) for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


@pytest.fixture
def fixture_b() -> HyperbolicDistribution:
    """The two-state distribution used throughout the worked examples."""
    return HyperbolicDistribution(
        np.array([0.5, 0.5]), np.array([0.25, 0.75]), Case.FULL
    )
