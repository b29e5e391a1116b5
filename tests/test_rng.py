import math

import numpy as np
import pytest

from flowelm.rng import _LANES_FROM, Rng, derive_seed, float_bits


def test_same_seed_same_stream():
    a = [Rng(42).next_u64() for _ in range(1)]
    first = Rng(42)
    second = Rng(42)
    assert [first.next_u64() for _ in range(100)] == [second.next_u64() for _ in range(100)]
    assert a[0] == Rng(42).next_u64()


def test_different_seeds_differ():
    assert [Rng(1).next_u64() for _ in range(4)] != [Rng(2).next_u64() for _ in range(4)]


def test_random_in_unit_interval():
    rng = Rng(7)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_uniform_matrix_range_and_determinism():
    m1 = Rng(5).uniform_matrix(8, 6, -1.0, 1.0)
    m2 = Rng(5).uniform_matrix(8, 6, -1.0, 1.0)
    assert np.array_equal(m1, m2)
    assert (m1 >= -1.0).all() and (m1 <= 1.0).all()


def test_shuffle_is_a_permutation():
    rng = Rng(11)
    items = list(range(200))
    rng.shuffle(items)
    assert sorted(items) == list(range(200))
    assert items != list(range(200))


def test_randbelow_bounds():
    rng = Rng(3)
    draws = [rng.randbelow(7) for _ in range(500)]
    assert set(draws) == set(range(7))


def test_normal_moments_roughly_standard():
    rng = Rng(13)
    xs = np.array([rng.normal() for _ in range(20000)])
    assert abs(xs.mean()) < 0.05
    assert abs(xs.std() - 1.0) < 0.05


def test_derive_seed_stable_and_order_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(0) != derive_seed(0, 0)
    assert 0 <= derive_seed(123, 456) < 2**64


def test_float_bits_round_trip_identity():
    for x in (0.0, 1.0, -1.5, 3.14159, 1e-300):
        assert float_bits(x) == int(np.float64(x).view(np.uint64))


# Sizes on both sides of the lane crossover: n < _LANES_FROM takes the scalar loop;
# 2550 is 50 * 51 (isqrt 50), so its last lane draws nothing.
_LANE_SIZES = [0, 1, _LANES_FROM - 1, _LANES_FROM, _LANES_FROM + 1, 2550, 20_000, 100_003]


@pytest.mark.parametrize("n", _LANE_SIZES)
def test_draws_equal_next_u64_one_at_a_time(n):
    bulk, single = Rng(n), Rng(n)
    drawn = bulk.draws(n)
    assert drawn.dtype == np.uint64 and drawn.shape == (n,)
    assert drawn.tolist() == [single.next_u64() for _ in range(n)]
    assert bulk.next_u64() == single.next_u64()


@pytest.mark.parametrize("n", [40, _LANES_FROM + 7])
@pytest.mark.parametrize("first, step", [(2**63, 1), (2**64 - 1, -1)])
def test_bounded_draws_equal_randbelow_through_rejections(n, first, step):
    """Bounds just above 2**63 reject about half of all outputs, and each
    rejected output must be consumed as randbelow consumes it; bounds just
    below 2**64 reach the top of the uint64 range."""
    bounds = [first + step * k for k in range(n)]
    bounds[::5] = [3] * len(bounds[::5])
    bulk, single = Rng(n), Rng(n)
    assert bulk.randbelow_each(np.array(bounds, dtype=np.uint64)).tolist() == [single.randbelow(b) for b in bounds]
    assert bulk.next_u64() == single.next_u64()


@pytest.mark.parametrize("rows, cols", [(3, 5), (_LANES_FROM // 8 + 1, 8), (46, 1024)])
def test_uniform_matrix_bits_equal_the_scalar_formula(rows, cols):
    single = Rng(17)
    expected = [-0.5 + 2.25 * ((single.next_u64() >> 11) * 2.0**-53) for _ in range(rows * cols)]
    drawn = Rng(17).uniform_matrix(rows, cols, -0.5, 1.75)
    assert drawn.shape == (rows, cols)
    assert drawn.reshape(-1).view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


def reference_stream(seed, n):
    """xoshiro256++ written from its definition, seeded by splitmix64."""
    mask = 2**64 - 1
    state, words = seed & mask, []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    s0, s1, s2, s3 = words

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & mask

    out = []
    for _ in range(n):
        out.append((rotl((s0 + s3) & mask, 23) + s0) & mask)
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = rotl(s3, 45)
    return out


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_scalar_loop_follows_the_reference_stream(seed):
    """next_u64, random, normal and short draws share one scalar step; pin it
    against the algorithm as published, not against itself."""
    expected = reference_stream(seed, 300)
    rng = Rng(seed)
    assert [rng.next_u64() for _ in range(3)] == expected[:3]
    assert rng.draws(200).tolist() == expected[3:203]
    assert rng.random() == (expected[203] >> 11) * 2.0**-53
    u1, u2 = ((u >> 11) * 2.0**-53 for u in expected[204:206])
    r = math.sqrt(-2.0 * math.log(1.0 - u1))
    assert [rng.normal(), rng.normal()] == [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    assert rng.next_u64() == expected[206]
