"""Deterministic, portable random number generation.

Weight initialization, data splitting, fold assignment, and the synthetic
flow generator all draw from a single fixed algorithm so that a given seed
reproduces results bit-for-bit on any platform and in any implementation:

* stream generator: xoshiro256++ (Blackman/Vigna), 64-bit outputs;
* seeding: the four state words are the first four outputs of splitmix64
  run on the user seed;
* doubles: the top 53 bits of an output, scaled by 2**-53, give a uniform
  value in [0, 1);
* bounded integers: rejection sampling on the 64-bit output (no modulo
  bias);
* shuffling: Fisher-Yates from the last element down;
* normals: Box-Muller on consecutive uniform pairs, cosine value returned
  first, sine value cached for the next call.

Derived seeds (for per-fold training, for example) come from
:func:`derive_seed`, a splitmix64-style mix over the argument sequence.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DOUBLE_SCALE = 2.0 ** -53


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    return state, _mix64(state)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def derive_seed(*parts: int) -> int:
    """Combine integers into one 64-bit seed; order-sensitive and stable."""
    h = _GOLDEN
    for part in parts:
        h = _mix64((h + _GOLDEN + (part & _MASK64)) & _MASK64)
    return h


def float_bits(x: float) -> int:
    """IEEE-754 bit pattern of a double, as an unsigned integer."""
    return int(np.float64(x).view(np.uint64))


class Rng:
    """xoshiro256++ stream seeded through splitmix64."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state, word = _splitmix64_next(state)
            words.append(word)
        if not any(words):
            words[0] = _GOLDEN  # xoshiro state must not be all zero
        self._s = words
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def uniform_matrix(self, rows: int, cols: int, low: float, high: float) -> np.ndarray:
        """Matrix of i.i.d. uniforms; row-major fill order is part of the contract."""
        out = np.empty(rows * cols, dtype=np.float64)
        span = high - low
        for i in range(out.size):
            out[i] = low + span * ((self.next_u64() >> 11) * _DOUBLE_SCALE)
        return out.reshape(rows, cols)

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            u1 = 1.0 - self.random()  # (0, 1], keeps log() finite
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mean + std * z

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
