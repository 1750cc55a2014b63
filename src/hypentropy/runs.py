"""Arrays given as runs of equal values, and numpy's float sum over them.

An analytic perturbation family takes only two values, so its N-element
distribution is two runs: (values, counts) with counts summing to N.
``run_sum`` gives the bits of numpy's ``.sum()`` of the whole array by a
plan of O(R log N) float additions, built once per counts tuple and cached,
so a measure or a norm of such a distribution builds no N-element array,
and N is limited by the float range rather than by memory.  Even a block
that crosses a run boundary is summed from its runs, not its elements.
"""

from __future__ import annotations

import bisect
import itertools
from functools import lru_cache, reduce
from itertools import repeat
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


def _fold(x: list[float], seq: tuple, r: float) -> float:
    """``r`` with ``x[i]`` added ``k`` times for each (i, k) of ``seq``, one
    addition at a time, in order."""
    for i, k in seq:
        r = reduce(add, repeat(x[i], k), r)
    return r


def _block_sum(x: list[float], spec: tuple) -> float:
    """numpy's sum of a block of at most ``_BLOCK`` elements, from its spec
    (sequences, picks, tail), each part of which is run-length (run, repeat)
    pairs.  A block under 8 elements is one sequence added in order from
    -0.0, and its picks are None.  Otherwise the picks name the sequence of
    each of the 8 strided accumulators, which are combined as a tree before
    the tail is added in order; equal accumulators are one sequence, folded
    once.  An accumulator may start from -0.0, since -0.0 + v is v."""
    seqs, picks, tail = spec
    r = [_fold(x, seq, -0.0) for seq in seqs]
    if picks is None:
        return r[0]
    r0, r1, r2, r3, r4, r5, r6, r7 = [r[j] for j in picks]
    return _fold(x, tail, ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))


def _copies_sum(v: float, n: int) -> float:
    """numpy's sum of n copies of v, n at most ``_BLOCK``: its 8 equal
    accumulators summed once."""
    if n < 8:
        return reduce(add, repeat(v, n), -0.0)
    r = reduce(add, repeat(v, n // 8 - 1), v)
    return reduce(add, repeat(v, n % 8),
                  ((r + r) + (r + r)) + ((r + r) + (r + r)))


def _block_spec(ends: list[int], start: int, n: int) -> tuple:
    """The ``_block_sum`` spec of the n elements from ``start`` of runs that
    end at ``ends``, built from the runs, not element by element."""
    i = bisect.bisect_right(ends, start)
    pieces = []  # (run, lo, hi): the block's elements lo..hi-1 are of run
    lo = 0
    while lo < n:
        hi = min(ends[i] - start, n)
        if hi > lo:
            pieces.append((i, lo, hi))
            lo = hi
        i += 1

    def seq(first: int, stop: int, step: int) -> tuple:
        # The elements first, first + step, ... below stop, as run lengths.
        return tuple((run, k) for run, lo, hi in pieces
                     if (k := len(range(first, min(hi, stop), step))
                         - len(range(first, lo, step))) > 0)

    if n < 8:
        return (seq(0, n, 1),), None, ()
    m = n - n % 8
    # Accumulator j sums the elements j, j + 8, ...: its sequence changes
    # only at a j where a piece starts, modulo 8 (the first starts at 0).
    cuts = {lo % 8 for _, lo, _ in pieces}
    accumulators = []
    for j in range(8):
        if j in cuts:
            acc = seq(j, m, 8)
        accumulators.append(acc)
    seqs = list(dict.fromkeys(accumulators))
    return tuple(seqs), tuple(map(seqs.index, accumulators)), seq(m, n, 1)


# Plan steps: (_ADD, j, k) adds the results of steps j and k, (_COPIES, i, n)
# sums n copies of run i, and (_CROSSING, spec, None) sums a block that
# crosses a run boundary by ``_block_sum(values, spec)``.
_ADD, _COPIES, _CROSSING = range(3)


@lru_cache(maxsize=256)
def _plan(counts: tuple[int, ...]) -> tuple[tuple, ...]:
    """The steps that sum runs with these counts along numpy's tree.

    A stretch of n > 128 elements is split at h = n // 2 rounded down to a
    multiple of 8, and the sums of its two halves are added.  A shorter one
    inside run i is n copies of its value, which depend on (i, n) alone and
    get one step; at most R - 1 stretches per level cross a run boundary,
    and each is recorded as the ``_block_spec`` of its runs.  The tree is
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
            if len(key) == 2:
                step = (_COPIES, i, n)
            else:
                step = (_CROSSING, _block_spec(ends, start, n), None)
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
                 if kind == _COPIES else _block_sum(x, a))
    return np.float64(0.0 + r[-1] if r else 0.0)
