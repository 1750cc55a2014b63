"""Arrays given as runs of equal values, and numpy's float sum over them.

An analytic perturbation family takes only two values, so its N-element
distribution is two runs: (values, counts) with counts summing to N.
``run_sum`` gives the bits of numpy's ``.sum()`` of the whole array by a
plan built once per counts tuple and cached: numpy sums each distinct leaf
of at most 128 elements, gathered from the run values, and the O(R log N)
leaf sums are added along numpy's pairwise tree.  So a measure or a norm of
such a distribution builds no N-element array, and N is limited by the
float range rather than by memory.
"""

from __future__ import annotations

import bisect
import itertools
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Runs", "run_sum"]

# numpy sums at most this many elements in one leaf loop; a longer stretch
# is split in two.
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


def _leaf_sum(x: np.ndarray, runs: np.ndarray) -> float:
    """numpy's sum of the leaf whose elements are of the runs ``runs``: its
    own loop on exactly those elements."""
    return float(np.add.reduce(x[runs]))


# Plan steps: (_ADD, j, k) adds the results of steps j and k, and
# (_LEAF, runs, None) sums a leaf by ``_leaf_sum(values, runs)``.
_ADD, _LEAF = range(2)


@lru_cache(maxsize=256)
def _plan(counts: tuple[int, ...]) -> tuple[tuple, ...]:
    """The steps that sum runs with these counts along numpy's tree.

    A stretch of n > 128 elements is split at h = n // 2 rounded down to a
    multiple of 8, and the sums of its two halves are added.  A shorter one
    is a leaf, recorded as the run of each of its elements, found on Python
    ints, as a start may pass 2**63.  A leaf inside run i depends on (i, n)
    alone and gets one step; a run boundary lies inside at most one leaf,
    so at most R - 1 leaves cross one, and each gets its own.  The tree is
    1,000 levels deep at N = 1e308, so it is walked with a stack.
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
            runs: list[int] = []
            while len(runs) < n:
                runs += [i] * (min(ends[i] - start, n) - len(runs))
                i += 1
            step = (_LEAF, np.array(runs, dtype=np.intp), None)
        memo[key] = len(steps)
        done.append(len(steps))
        steps.append(step)
    return tuple(steps)


def run_sum(values: Sequence[float], counts: Sequence[int]) -> np.float64:
    """``np.repeat(values, counts).sum()``, bit for bit, without the array.

    The program ``_plan(counts)``, built once per counts tuple, is run on
    the values: numpy sums each leaf, and the leaf sums are added as Python
    floats along numpy's tree.  numpy adds its identity 0.0 to each leaf,
    which can change only the sign of a zero, and to the whole sum, which
    sets that sign as numpy's does.  A leaf that overflows or meets inf and
    -inf gives inf or nan silently, as the additions between leaves do.
    """
    x = np.asarray(values, dtype=float)
    r: list[float] = []
    with np.errstate(invalid="ignore", over="ignore"):
        for kind, a, b in _plan(tuple(map(int, counts))):
            r.append(r[a] + r[b] if kind == _ADD else _leaf_sum(x, a))
    return np.float64(0.0 + r[-1] if r else 0.0)
