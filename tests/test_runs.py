"""Arrays as runs: ``run_sum`` has the bits of numpy's ``.sum()`` of the
repeated array, and a measure or norm of a runs distribution has the bits of
the dense one."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypentropy import HyperbolicNumber, RealDistribution, SweepConfig, \
    lesche_norm, stability_sweep
from hypentropy.measures import MEASURES, evaluate, pairwise_sum
from hypentropy.runs import Runs, _plan, run_sum

LEAF = 2 ** 15
# Counts at each edge of numpy's summation: the 8-wide unrolled loop, the
# 128-element block, and the 2**15 leaf of ``pairwise_sum``.
EDGE_COUNTS = (1, 7, 8, 9, 127, 128, 129, LEAF - 1, LEAF, LEAF + 1)
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -1e-310, math.inf, -math.inf, math.nan)


def _bits(v) -> bytes:
    """The bits of a float, with every NaN as one: which NaN operand an
    addition of two NaNs returns is up to the compiler, not numpy's tree."""
    return np.float64(math.nan if math.isnan(v) else v).tobytes()


values = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.builds(lambda sign, e: sign * 10.0 ** e,
              st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)),
)
counts = st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(1, 10 ** 6))


class TestRunSum:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(runs=st.lists(st.tuples(values, counts), min_size=1, max_size=6))
    def test_bits_of_the_repeated_sum(self, runs):
        v, c = (list(t) for t in zip(*runs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = np.repeat(v, c).sum()
        assert _bits(run_sum(v, c)) == _bits(want)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(runs=st.lists(
        st.tuples(values, st.one_of(
            st.integers(0, 20),
            # Ends next to a multiple of 8 or of the 128-element block.
            st.sampled_from([7, 8, 9, 119, 120, 121, 127, 128, 129]))),
        min_size=8, max_size=40))
    def test_bits_of_blocks_across_many_runs(self, runs):
        # Short runs put many run boundaries inside one block, so the
        # accumulators and tails of a block are of several runs each.
        v, c = (list(t) for t in zip(*runs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = np.repeat(v, c).sum()
        assert _bits(run_sum(v, c)) == _bits(want)

    @pytest.mark.parametrize("n", [2, 10 ** 6, 10 ** 12, 10 ** 20, 10 ** 300])
    def test_one_run_of_n_copies(self, n):
        # The tree is about 1,000 levels deep at 1e300, with no recursion.
        assert run_sum([0.25], [n]) == pytest.approx(n / 4, rel=1e-12)

    def test_empty_and_zero_counts(self):
        assert _bits(run_sum([], [])) == _bits(np.float64(0.0))
        assert _bits(run_sum([1.5, 2.0, 0.25], [3, 0, 200])) \
            == _bits(np.repeat([1.5, 2.0, 0.25], [3, 0, 200]).sum())


class TestPlanCache:
    """``run_sum`` compiles one plan per counts tuple into a bounded cache."""

    def test_cache_is_bounded(self):
        _plan.cache_clear()
        size = _plan.cache_info().maxsize
        for n in range(2, size + 50):
            run_sum([0.5, 0.25], [1, n])
        info = _plan.cache_info()
        assert (info.currsize, info.misses) == (size, size + 48)

    def test_one_plan_per_counts_tuple_of_a_sweep(self, monkeypatch):
        seen = set()

        def recording(values, counts):
            seen.add(tuple(counts))
            return run_sum(values, counts)

        for module in ("runs", "measures"):
            monkeypatch.setattr(f"hypentropy.{module}.run_sum", recording)
        config = SweepConfig(
            families=("CertaintySpread", "UniformSpike"),
            n_grid=(10 ** 4, 10 ** 5, 10 ** 6), delta_grid=(1e-3, 1e-2),
            measures=[("shannon", None), ("strong_shannon_hyp", None),
                      ("renyi", HyperbolicNumber(2.0, 2.0))])
        _plan.cache_clear()
        first = stability_sweep(config)
        info = _plan.cache_info()
        assert {(1, 10 ** 4 - 1), (1, 10 ** 6 - 1)} <= seen
        assert info.misses == len(seen)
        assert repr(stability_sweep(config)) == repr(first)
        assert _plan.cache_info().misses == info.misses


class TestRuns:
    def test_array_protocol(self):
        r = Runs([0.5, 0.0, 0.25], [1, 3, 2])
        dense = r.dense()
        assert dense.tolist() == [0.5, 0.0, 0.0, 0.0, 0.25, 0.25]
        assert (r.size, r.ndim, r.min(), r.max()) == (6, 1, 0.0, 0.5)
        assert r.sum() == dense.sum()
        assert (1.0 - r).dense().tolist() == (1.0 - dense).tolist()
        assert r[r > 0.0].dense().tolist() == dense[dense > 0.0].tolist()

    def test_size_past_int64(self):
        assert Runs([1e-20], [10 ** 20]).size == 10 ** 20

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(runs=st.lists(st.tuples(values, values, st.integers(1, 300)),
                         min_size=1, max_size=4))
    def test_pairwise_sum_of_two_runs(self, runs):
        a, b, c = zip(*runs)
        ra, rb = Runs(a, c), Runs(b, c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = pairwise_sum(lambda x, y: np.abs(x - y), ra, rb)
            want = np.abs(ra.dense() - rb.dense()).sum()
        assert _bits(got) == _bits(want)

    def test_pairwise_sum_needs_one_set_of_counts(self):
        with pytest.raises(ValueError):
            pairwise_sum(np.subtract, Runs([1.0, 2.0], [1, 3]),
                         Runs([1.0, 2.0], [2, 2]))


ALPHA = HyperbolicNumber(0.5, 3.7)


def _probabilities(seed: int, counts: list[int]) -> Runs:
    """Random run values, some 0, that make a probability vector over
    ``counts``."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(len(counts)))
    w[rng.random(w.size) < 0.3] = 0.0
    if not w.any():
        w[0] = 1.0
    return Runs(w / np.dot(w, counts), counts)


class TestKernelsOnRuns:
    """Every closed-form measure and the L1 norm read a runs distribution
    as its dense array, bit for bit."""

    @pytest.mark.parametrize("n", [2, 9, 1000, 70_001])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_as_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.choice(np.arange(1, n), min(n, 4) - 1,
                                  replace=False))
        counts = np.diff([0, *cuts, n]).tolist()
        P, Q = (_probabilities(s, counts) for s in (seed, seed + 100))
        runs, dense = RealDistribution(P), RealDistribution(P.dense())
        for name, m in MEASURES.items():
            if m.kernel is not None:
                order = ALPHA if m.check else None
                assert repr(evaluate(name, runs, order)) \
                    == repr(evaluate(name, dense, order)), name
        assert lesche_norm(runs, RealDistribution(Q)) \
            == lesche_norm(dense, RealDistribution(Q.dense()))
