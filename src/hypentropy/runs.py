"""Arrays given as runs of equal values, and numpy's float sum over them.

An analytic perturbation family takes only two values, so its N-element
distribution is two runs: (values, counts) with counts summing to N.
``run_sum`` gives the bits of numpy's ``.sum()`` of the whole array by a
plan of O(R log N) float additions, built once per counts tuple and cached,
so a measure or a norm of such a distribution builds no N-element array,
and N is limited by the float range rather than by memory.
"""

from __future__ import annotations

import bisect
import itertools
from functools import lru_cache, reduce
from operator import add, itemgetter
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Runs", "run_sum"]

# numpy sums at most this many elements with its unrolled loop; a longer
# stretch is split in two.
_BLOCK = 128


class Runs:
    """A 1-D float array as runs: ``values[i]`` repeated ``counts[i]`` times.

    It offers what the measure kernels and ``RealDistribution`` ask of an
    array: ``size``, ``ndim``, ``min``, ``max``, ``sum`` (the bits of the
    whole array's numpy sum), ``x - runs`` for a scalar x, and the
    comparison ``runs > x`` whose mask, one entry per run, selects runs by
    ``runs[mask]``; ``np.asarray(runs)`` is the N-element array.  Counts
    are Python ints, so ``size`` may pass 2**63; values are a read-only copy.
    """

    __slots__ = ("values", "counts", "size")
    ndim = 1

    def __init__(self, values: Iterable[float], counts: Iterable[int]):
        self.values = np.array(values, dtype=float)
        self.values.flags.writeable = False
        self.counts = tuple(counts)
        self.size = sum(self.counts)

    def dense(self) -> np.ndarray:
        """The N-element array, ``np.repeat(values, counts)``."""
        return np.repeat(self.values, self.counts)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.dense()

    def min(self) -> np.floating:
        return self.values.min()

    def max(self) -> np.floating:
        return self.values.max()

    def sum(self) -> np.float64:
        return run_sum(self.values, self.counts)

    def __rsub__(self, x: float) -> "Runs":
        return Runs(x - self.values, self.counts)

    def __gt__(self, x: float) -> np.ndarray:
        return self.values > x

    def __getitem__(self, keep: np.ndarray) -> "Runs":
        return Runs(self.values[keep], itertools.compress(self.counts, keep))


def _block_sum(x: list[float]) -> float:
    """numpy's sum of at most ``_BLOCK`` elements: under 8 in order from
    -0.0; otherwise 8 strided accumulators, combined as a tree, then the
    tail in order."""
    n = len(x)
    if n < 8:
        return reduce(add, x, -0.0)
    m = n - n % 8
    r = [reduce(add, x[j:m:8]) for j in range(8)]
    return reduce(add, x[m:],
                  ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _copies_sum(v: float, n: int) -> float:
    """``_block_sum([v] * n)``, its 8 equal accumulators summed once."""
    if n < 8:
        return reduce(add, [v] * n, -0.0)
    r = v
    for _ in range(n // 8 - 1):
        r += v
    return reduce(add, [v] * (n % 8),
                  ((r + r) + (r + r)) + ((r + r) + (r + r)))


# Plan steps: (_ADD, j, k) adds the results of steps j and k, (_COPIES, i, n)
# sums n copies of run i, and (_CROSSING, get, None) sums ``get(values)``.
_ADD, _COPIES, _CROSSING = range(3)


@lru_cache(maxsize=256)
def _plan(counts: tuple[int, ...]) -> tuple[tuple, ...]:
    """The steps that sum runs with these counts along numpy's tree.

    A stretch of n > 128 elements is split at h = n // 2 rounded down to a
    multiple of 8, and the sums of its two halves are added; a shorter one
    is summed by ``_block_sum``.  A stretch inside run i depends on (i, n)
    alone and gets one step; at most R - 1 stretches per level cross a run
    boundary.  The tree is 1,000 levels deep at N = 1e308, so it is walked
    with a stack.
    """
    ends = list(itertools.accumulate(counts))
    steps: list[tuple] = []
    memo: dict[tuple, int] = {}  # stretch key -> the step that sums it
    done: list[int] = []  # the steps of the stretches summed so far
    # (start, n): sum that stretch; (key,): add the top two of ``done``.
    todo: list[tuple] = [(0, ends[-1])] if ends and ends[-1] else []
    while todo:
        task = todo.pop()
        if len(task) == 1:
            key, right = task[0], done.pop()
            step = (_ADD, done.pop(), right)
        else:
            start, n = task
            i = bisect.bisect_right(ends, start)
            # A stretch that crosses a run boundary is met once, at its place.
            key = (i, n) if start + n <= ends[i] else (start, n, None)
            if key in memo:
                done.append(memo[key])
                continue
            if n > _BLOCK:
                h = n // 2 - n // 2 % 8
                todo += [(key,), (start + h, n - h), (start, h)]
                continue
            if len(key) == 2:
                step = (_COPIES, i, n)
            else:
                get = itemgetter(*[bisect.bisect_right(ends, j)
                                   for j in range(start, start + n)])
                step = (_CROSSING, get, None)
        memo[key] = len(steps)
        done.append(len(steps))
        steps.append(step)
    return tuple(steps)


def run_sum(values: Sequence[float], counts: Sequence[int]) -> np.float64:
    """``np.repeat(values, counts).sum()``, bit for bit, without the array.

    numpy adds its identity 0.0 to the array's pairwise sum: the program
    ``_plan(counts)``, built once per counts tuple, run on the values.
    """
    x = np.asarray(values, dtype=float).tolist()
    r: list[float] = []
    for kind, a, b in _plan(tuple(map(int, counts))):
        r.append(r[a] + r[b] if kind == _ADD else _copies_sum(x[a], b)
                 if kind == _COPIES else _block_sum(a(x)))
    return np.float64(0.0 + r[-1] if r else 0.0)
