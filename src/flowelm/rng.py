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

Bulk consumers (:meth:`Rng.draws`, :meth:`Rng.randbelow_each`,
:meth:`Rng.uniform_matrix`, :meth:`Rng.shuffle`) may take their outputs n
at a time; the stream, and so every value, is the one ``next_u64`` gives one
call at a time. Above a crossover the n outputs come from lanes that numpy
advances together: the state update is linear over GF(2), so a jump of L
steps is a 256 x 256 bit matrix, and lane p starts L steps after lane p - 1.

Derived seeds (for per-fold training, for example) come from
:func:`derive_seed`, a splitmix64-style mix over the argument sequence.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DOUBLE_SCALE = 2.0 ** -53
# Below this many outputs draws() loops next_u64, since each lane step and
# each jump is a fixed run of numpy calls: on a 2-core VM (numpy 2.4, best of
# 21) 750 outputs took 0.93 ms looped and 0.98 ms in lanes, 1 000 took 1.28
# and 1.13 ms, 2 000 took 2.6 and 1.6 ms.
_LANES_FROM = 1000
_SWAP_BLOCK = 4096  # shuffle() makes Python ints of its swap indices this many at a time, not all at once

_U64 = np.uint64
_BIT = np.arange(64, dtype=np.uint64)


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


def _advance(s0, s1, s2, s3, steps: int, out=None) -> None:
    """Step xoshiro256++ lanes in place: s0..s3 hold one state word of each
    lane; row k of out, when given, receives each lane's k-th output.

    Only uint64 arrays and np.uint64 constants meet, so every numpy version's
    promotion rules keep the arithmetic in uint64 (which wraps mod 2**64).
    """
    tmp, t = np.empty_like(s0), np.empty_like(s0)
    for k in range(steps):
        if out is not None:
            row = out[k]
            np.add(s0, s3, out=tmp)
            np.left_shift(tmp, _U64(23), out=row)
            np.right_shift(tmp, _U64(41), out=tmp)
            row |= tmp
            row += s0
        np.left_shift(s1, _U64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.right_shift(s3, _U64(19), out=tmp)
        s3 <<= _U64(45)
        s3 |= tmp


def _jump_columns(steps: int) -> np.ndarray:
    """The 256 x 4 matrix whose row i is the state `steps` steps after the
    unit state with only bit i set (bit i % 64 of word i // 64)."""
    units = np.zeros((4, 256), dtype=np.uint64)
    for w in range(4):
        units[w, 64 * w : 64 * (w + 1)] = _U64(1) << _BIT
    _advance(*units, steps)
    return np.ascontiguousarray(units.T)


def _jump(columns: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The state of four uint64 words after the jump `columns` encodes: the
    XOR of the columns that the state's set bits select."""
    bits = ((state[:, None] >> _BIT) & _U64(1)).astype(bool).reshape(-1)
    return np.bitwise_xor.reduce(columns[bits], axis=0)


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

    def draws(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array, leaving the state where n
        calls of next_u64() would."""
        if n < _LANES_FROM:
            return np.fromiter((self.next_u64() for _ in range(n)), dtype=np.uint64, count=n)
        steps = math.isqrt(n)
        lanes = n // steps + 1
        columns = _jump_columns(steps)
        starts = np.empty((4, lanes), dtype=np.uint64)  # one row per state word, one column per lane
        starts[:, 0] = np.array(self._s, dtype=np.uint64)
        for p in range(1, lanes):
            starts[:, p] = _jump(columns, starts[:, p - 1])
        # output p * steps + k is lane p's k-th; the state after n outputs is
        # lane n // steps after n % steps steps
        last, rest = divmod(n, steps)
        out = np.empty((steps, lanes), dtype=np.uint64)
        _advance(*starts, rest, out[:rest])
        self._s = starts[:, last].tolist()
        _advance(*starts[:, :last], steps - rest, out[rest:, :last])
        return out.T.reshape(-1)[:n]

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def uniform_matrix(self, rows: int, cols: int, low: float, high: float) -> np.ndarray:
        """Matrix of i.i.d. uniforms; row-major fill order is part of the contract.

        Entry i is low + (high - low) * ((u >> 11) * 2**-53) for the i-th
        output u, rounded as that scalar formula rounds it in float64.
        """
        u = self.draws(rows * cols)
        out = (u >> _U64(11)).astype(np.float64)
        out *= _DOUBLE_SCALE
        out *= high - low
        out += low
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

    def randbelow_each(self, bounds: np.ndarray) -> np.ndarray:
        """randbelow(b) for each bound b of a uint64 array, in order, as one
        uint64 array: a rejected output is consumed and the same bound takes
        the next one. Each rejection costs a pass over the bounds left, and
        a bound b rejects with probability below b / 2**64."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        if (bounds == 0).any():
            raise ValueError("randbelow() requires n >= 1")
        # randbelow accepts u < 2**64 - 2**64 % b; 2**64 % b is (2**64 - b) % b
        highest = ~((~bounds + _U64(1)) % bounds)
        out = np.empty_like(bounds)
        done, u = 0, self.draws(bounds.size)
        while done < bounds.size:
            if u.size < bounds.size - done:
                u = np.concatenate((u, self.draws(bounds.size - done - u.size)))
            rejected = np.flatnonzero(u > highest[done:])
            taken = rejected[0] if rejected.size else u.size
            np.remainder(u[:taken], bounds[done : done + taken], out=out[done : done + taken])
            done += taken
            u = u[taken + 1 :]
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, its bounded draws taken at once."""
        n = len(items)
        swaps = self.randbelow_each(np.arange(2, n + 1, dtype=np.uint64)[::-1])
        for start in range(0, n - 1, _SWAP_BLOCK):
            for i, j in zip(range(n - 1 - start, 0, -1), swaps[start : start + _SWAP_BLOCK].tolist()):
                items[i], items[j] = items[j], items[i]
