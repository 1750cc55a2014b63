"""Seeded xoshiro256** generator.

A self-contained, named 64-bit PRNG so that generated probability vectors
reproduce bit-identically from a seed, independent of the host library
version.  Seeding expands a single 64-bit seed through splitmix64, the
standard companion initializer.

Long draws (``randoms(n)`` and ``words(n)`` with n >= ``_BLOCK_MIN``) give
the identical stream through jump-ahead lanes.  The state transition is
linear over GF(2) (Blackman & Vigna, ACM TOMS 2021), so with A the 256 x 256
bit matrix of one step, the state k*m steps on is s @ A^(k*m).  The draw is
split into lanes of m = 2^a steps; lane k starts at s @ A^(k*m), all lanes
step together in numpy ``uint64``, and the outputs are read lane by lane.
The lane step works in place on the (4, lanes) state through a scratch array
made once per draw, so the step loop allocates nothing.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = ["Xoshiro256StarStar", "splitmix64_stream", "derive_seed"]

_MASK = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def splitmix64_stream(seed: int):
    """Infinite splitmix64 stream used for state expansion and seed derivation."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def derive_seed(seed: int, *tokens: object) -> int:
    """Deterministically derive a sub-seed from a base seed and hashable tokens.

    Used by sweeps so every cell gets an independent stream while the whole
    experiment stays reproducible from one seed.
    """
    h = seed & _MASK
    sm = splitmix64_stream(h)
    for token in tokens:
        for byte in repr(token).encode():
            h = (h ^ byte) ^ next(sm)
            h = (h * 0x100000001B3) & _MASK
    return h


# Draws of at least this many values take the jump-ahead block path.  Below
# it, scalar stepping costs less than the per-lane set-up: block vs scalar
# medians on a 2-CPU host with BLAS on one thread were 201 vs 210 us at
# n = 200, 191 vs 252 us at n = 256 and 446 vs 1181 us at n = 1000.
_BLOCK_MIN = 256

_WORDS = np.dtype("<u8")


# Shift amounts of the step's two left shifts: s1 << 17 and s3 << 45.
_SHIFTS = np.array([[17], [45]], dtype=np.uint64)


def _stepper(s: np.ndarray):
    """A function making one xoshiro256** transition of every column of s
    (shape (4, k)) in place.

    The row views and a (2, k) scratch are made once here, so a step is five
    in-place ufunc calls and allocates nothing.  Pairs of rows move together:
    s2, s3 ^= s0, s1; then s0, s1 ^= s3, s2; the bits of s3 << 45 and s3 >> 19
    are disjoint, so the rotation's OR is an XOR.
    """
    low, high, odd = s[0:2], s[2:4], s[1::2]
    crossed, s3 = s[3:1:-1], s[3]
    scratch = np.empty_like(high)

    def step() -> None:
        np.bitwise_xor(high, low, out=high)
        np.left_shift(odd, _SHIFTS, out=scratch)
        np.bitwise_xor(low, crossed, out=low)
        np.right_shift(s3, 19, out=s3)
        np.bitwise_xor(high, scratch, out=high)

    return step


def _to_bits(words: np.ndarray) -> np.ndarray:
    """(k, 4) state words -> (k, 256) 0/1 bits, bit i of word w at 64*w + i."""
    return np.unpackbits(np.ascontiguousarray(words, dtype=_WORDS).view(np.uint8),
                         axis=1, bitorder="little")


def _to_words(bits: np.ndarray) -> np.ndarray:
    """Inverse of ``_to_bits``: (k, 256) bits -> (k, 4) state words."""
    return np.packbits(bits, axis=1, bitorder="little").view(_WORDS)


def _gf2_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of 0/1 matrices over GF(2).

    The float32 product is exact, since every sum counts at most 256 ones;
    its parity is read through an integer cast, as float ``% 2`` is far
    slower.
    """
    prod = x.astype(np.float32) @ y.astype(np.float32)
    return (prod.astype(np.int16) & 1).astype(np.uint8)


@functools.cache
def _jump_matrix(j: int) -> np.ndarray:
    """A^(2^j) as a read-only ``uint8`` 0/1 matrix: s @ A^(2^j) jumps 2^j steps.

    Row i of A is the state reached in one step from the i-th unit state.
    """
    if j == 0:
        basis = _to_words(np.eye(256, dtype=np.uint8)).T.copy()
        _stepper(basis)()
        power = _to_bits(basis.T)
    else:
        half = _jump_matrix(j - 1)
        power = _gf2_matmul(half, half)
    power.flags.writeable = False
    return power


def _block_words(state: list[int], n: int) -> tuple[np.ndarray, list[int]]:
    """The next n outputs from ``state``, via lanes, and the state after them.

    The outputs come as a (lanes, m) ``uint64`` view, lane by lane, of which
    the first n in row order are the draws.
    """
    n = operator.index(n)
    # Lanes of m <= sqrt(n - 1) steps: few Python-level steps, each over
    # many lanes.
    a = ((n - 1).bit_length() - 1) // 2
    m = 1 << a
    lanes = -(-n // m)
    # Lane k starts k*m steps on; each doubling round jumps the lanes built
    # so far by their count times m.
    bits = np.empty((lanes, 256), dtype=np.uint8)
    bits[0] = _to_bits(np.array([state], dtype=_WORDS))[0]
    built, j = 1, a
    while built < lanes:
        more = min(built, lanes - built)
        bits[built:built + more] = _gf2_matmul(bits[:more], _jump_matrix(j))
        built, j = built + more, j + 1
    s = _to_words(bits).T.copy()
    advance = _stepper(s)
    # The last lane makes only the steps the draw still needs; its state
    # after them is the generator's state after n draws.
    last = n - (lanes - 1) * m
    s1_seen = np.empty((m, lanes), dtype=np.uint64)
    for step in range(m):
        s1_seen[step] = s[1]
        advance()
        if step + 1 == last:
            end = [int(w) for w in s[:, -1]]
    # The output rotl(5 * s1, 7) * 9, in place.
    x = s1_seen
    x *= np.uint64(5)
    high = x >> np.uint64(57)
    x <<= np.uint64(7)
    x |= high
    del high
    x *= np.uint64(9)
    return x.T, end


class Xoshiro256StarStar:
    """xoshiro256** by Blackman and Vigna (2018)."""

    def __init__(self, seed: int):
        sm = splitmix64_stream(seed)
        self._s = [next(sm) for _ in range(4)]

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def words(self, n: int) -> list[int]:
        """The next n outputs as Python ints, the same as n calls of
        ``next_u64``."""
        if n < _BLOCK_MIN:
            return [self.next_u64() for _ in range(n)]
        x, self._s = _block_words(self._s, n)
        return x.reshape(-1)[:n].tolist()

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randoms(self, n: int) -> np.ndarray:
        """n uniform doubles, the same as n calls of ``random``."""
        if n < _BLOCK_MIN:
            return np.array([self.random() for _ in range(n)], dtype=float)
        x, self._s = _block_words(self._s, n)
        # words >> 11, scaled by 2^-53; the scaling writes the lanes out one
        # after another.
        x >>= np.uint64(11)
        out = np.empty(x.shape)
        np.multiply(x, 1.0 / (1 << 53), out=out)
        return out.reshape(-1)[:n]

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive (rejection-free modulo bias is
        negligible for the small ranges used here)."""
        return lo + self.next_u64() % (hi - lo + 1)
