"""Arrays given as runs of equal values, and numpy's float sum over them.

An analytic perturbation family takes only two values, so its N-element
distribution is two runs: (values, counts) with counts summing to N.
``run_sum`` gives the bits of numpy's ``.sum()`` of the whole array from the
runs in O(R log N) float additions, so a measure or a norm of such a
distribution builds no N-element array, and N is limited by the float range
rather than by memory.
"""

from __future__ import annotations

import bisect
import itertools
from functools import reduce
from operator import add
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


def run_sum(values: Sequence[float], counts: Sequence[int]) -> np.float64:
    """``np.repeat(values, counts).sum()``, bit for bit, without the array.

    numpy adds its identity 0.0 to the pairwise sum of the whole array: a
    stretch of n > 128 elements is split at h = n // 2 rounded down to a
    multiple of 8, and the sums of its two halves are added; a shorter one
    is summed by ``_block_sum``.  A stretch inside one run is a function of
    (run, length) alone and is summed once; the stretches that cross a run
    boundary number at most R - 1 per level of the tree.  The tree is
    walked with an explicit stack, as it is 1,000 levels deep at N = 1e308.
    """
    x = np.asarray(values, dtype=float).tolist()
    ends = list(itertools.accumulate(int(c) for c in counts))
    total = ends[-1] if ends else 0
    if not total:
        return np.float64(0.0)
    memo: dict[tuple[int, int], float] = {}
    sums: list[float] = []
    # (start, n): sum that stretch; (key,): add the two sums on top of
    # ``sums``, and memoize the result under key unless it is None.
    todo: list[tuple] = [(0, total)]
    while todo:
        task = todo.pop()
        if len(task) == 1:
            right = sums.pop()
            sums[-1] += right
            if task[0] is not None:
                memo[task[0]] = sums[-1]
            continue
        start, n = task
        stop = start + n
        i = bisect.bisect_right(ends, start)
        key = (i, n) if stop <= ends[i] else None
        if key in memo:
            sums.append(memo[key])
        elif n > _BLOCK:
            h = n // 2
            h -= h % 8
            todo += [(key,), (start + h, n - h), (start, h)]
        elif key is not None:
            memo[key] = _copies_sum(x[i], n)
            sums.append(memo[key])
        else:
            part, pos = [], start
            while pos < stop:
                k = min(ends[i], stop) - pos
                part += [x[i]] * k
                pos, i = pos + k, i + 1
            sums.append(_block_sum(part))
    return np.float64(0.0 + sums[0])
