import numpy as np
import pytest

from qpswf.quaternion import (I, J, K, ONE, Quaternion, q_conj, q_modulus,
                              q_mul, qarr, qarr_conj, qarr_left_mul,
                              qarr_modulus, qarr_mul, qarr_right_mul)
from qpswf.rng import CounterRng


def test_unit_multiplication_table():
    assert q_mul(I, J) == K
    assert q_mul(J, K) == I
    assert q_mul(K, I) == J
    for unit in (I, J, K):
        assert q_mul(unit, unit) == Quaternion(-1.0)
    assert q_mul(q_mul(I, J), K) == Quaternion(-1.0)


def test_anticommutation():
    for a, b in ((I, J), (J, K), (I, K)):
        assert q_mul(a, b) == -q_mul(b, a)


def test_identity_and_hand_expansion():
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert q_mul(q, ONE) == q
    assert q_mul(ONE, q) == q
    # (1+i)(1+j) = 1 + i + j + ij = 1 + i + j + k
    assert q_mul(Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0)) == Quaternion(1, 1, 1, 1)


def test_conj_and_modulus():
    assert q_conj(I) == -I
    assert q_modulus(Quaternion(1, 1, 1, 1)) == pytest.approx(2.0)
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    qqbar = q_mul(q, q_conj(q))
    assert qqbar.x == qqbar.y == qqbar.z == 0.0
    assert qqbar.w == pytest.approx(q_modulus(q) ** 2, rel=1e-15)


def _random_qarr(rng, n):
    return rng.normal_field((n, 4))


def test_hamilton_algebra_bulk():
    rng = CounterRng(101)
    a = _random_qarr(rng, 10_000)
    b = _random_qarr(rng, 10_000)
    c = _random_qarr(rng, 10_000)
    ab_c = qarr_mul(qarr_mul(a, b), c)
    a_bc = qarr_mul(a, qarr_mul(b, c))
    scale = np.abs(ab_c).max()
    assert np.abs(ab_c - a_bc).max() <= 1e-12 * scale
    assert np.abs(qarr_modulus(qarr_mul(a, b))
                  - qarr_modulus(a) * qarr_modulus(b)).max() <= 1e-12 * scale


def _left_matrix(a):
    """The real 4x4 matrix of b -> a b, written from i^2 = j^2 = k^2 = ijk = -1."""
    w, x, y, z = a
    return np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]])


def test_array_scalar_consistency():
    rng = CounterRng(102)
    a = _random_qarr(rng, 50)
    b = _random_qarr(rng, 50)
    prod = qarr_mul(a, b)
    for row in (0, 17, 49):
        expect = _left_matrix(a[row]) @ b[row]
        assert np.allclose(prod[row], expect, atol=1e-15)
        assert q_mul(Quaternion.from_array(a[row]),
                     Quaternion.from_array(b[row])) == Quaternion.from_array(prod[row])
    assert np.allclose(qarr_conj(a)[:, 1:], -a[:, 1:])


def test_fixed_side_multiplication():
    rng = CounterRng(103)
    a = _random_qarr(rng, 20)
    q = Quaternion(0.5, 0.5, 0.5, 0.5)
    left = qarr_left_mul(q, a)
    right = qarr_right_mul(a, q)
    for row in (0, 19):
        assert np.allclose(left[row], _left_matrix(q.as_array()) @ a[row], atol=1e-15)
        assert np.allclose(right[row], _left_matrix(a[row]) @ q.as_array(), atol=1e-15)
    # non-commutative in general
    assert not np.allclose(left, right)


def test_qarr_builder_broadcasts():
    w = np.ones((3, 2))
    arr = qarr(w, 2.0, -1.0, 0.5)
    assert arr.shape == (3, 2, 4)
    assert np.all(arr[..., 1] == 2.0)
