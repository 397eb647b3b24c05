import numpy as np
import pytest

from qpswf.errors import BadIndex
from qpswf.rng import CounterRng, splitmix64

# reference outputs of the standard finalizer for seed 0, counters 0..2
REFERENCE = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_reference_stream():
    got = splitmix64(0, np.arange(3, dtype=np.uint64))
    assert [int(v) for v in got] == REFERENCE


def test_counter_rng_is_reproducible():
    a = CounterRng(12345).uniform(16)
    b = CounterRng(12345).uniform(16)
    assert np.array_equal(a, b)
    # draws depend only on (seed, index), not call slicing
    c1 = CounterRng(7)
    first = c1.uniform(4)
    second = c1.uniform(4)
    c2 = CounterRng(7)
    both = c2.uniform(8)
    assert np.array_equal(np.concatenate([first, second]), both)


def test_streams_are_independent():
    a = CounterRng(9, stream=0).uniform(8)
    b = CounterRng(9, stream=1).uniform(8)
    assert not np.array_equal(a, b)


def test_uniform_range_and_normal_moments():
    u = CounterRng(3).uniform(20_000)
    assert np.all(u >= 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 0.01
    z = CounterRng(4).normal(40_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_frozen_first_draws():
    u = CounterRng(1).uniform(4)
    expect = [0.36818951565166946, 0.9435642308648544,
              0.04525699773739167, 0.7774369184800852]
    assert np.allclose(u, expect, rtol=0, atol=0)


@pytest.mark.parametrize("n", [1, 7, 8, 1001])
def test_normal_entries_are_entries_of_normal(n):
    # odd and even n, entries from both the cos half and the sin half, after earlier draws
    idx = np.unique(np.r_[0, n - 1, n // 2, (n + 1) // 2 - 1, np.arange(0, n, 3)])
    a, b = CounterRng(11, stream=2), CounterRng(11, stream=2)
    assert np.array_equal(a.uniform(5), b.uniform(5))
    assert np.array_equal(a.normal(3), b.normal(3))
    full = a.normal(n)
    assert np.array_equal(b.normal_entries(n, idx), full[idx])
    # any index shape; the stream advances as normal(n) advances it
    assert np.array_equal(b.normal_entries(n, idx[::-1].reshape(-1, 1)), a.normal(n)[idx[::-1], None])
    assert np.array_equal(b.normal_entries(n, []), a.normal(n)[:0])
    assert np.array_equal(a.uniform(3), b.uniform(3))


@pytest.mark.parametrize("idx", [[-1], [8], [0, 8]])
def test_normal_entries_outside_the_draw_rejected(idx):
    with pytest.raises(BadIndex):
        CounterRng(1).normal_entries(8, idx)
