"""Quaternion scalars and vectorized quaternion array algebra.

A quaternion w + i*x + j*y + k*z is stored as four real components.
Array-valued quaternion fields use numpy arrays whose last axis has
length 4 in component order (w, x, y, z); all array helpers broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Quaternion:
    """One hypercomplex scalar with anticommuting units i, j, k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return q_mul(self, other)
        f = float(other)
        return Quaternion(self.w * f, self.x * f, self.y * f, self.z * f)

    # real scalars commute; quaternion*quaternion never reaches __rmul__
    __rmul__ = __mul__

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def modulus(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Quaternion":
        a = np.asarray(a, dtype=float)
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def q_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b (non-commutative)."""
    return Quaternion.from_array(qarr_mul(a.as_array(), b.as_array()))


def q_conj(q: Quaternion) -> Quaternion:
    return q.conj()


def q_modulus(q: Quaternion) -> float:
    return q.modulus()


# ---------------------------------------------------------------------------
# array algebra on (..., 4) component stacks


def qarr(w, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    """Stack real component fields into a quaternion array."""
    w = np.asarray(w, dtype=float)
    parts = [w] + [np.broadcast_to(np.asarray(c, dtype=float), w.shape) for c in (x, y, z)]
    return np.stack(parts, axis=-1)


def qarr_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise Hamilton product of two quaternion arrays (broadcasting)."""
    aw, ax, ay, az = (a[..., c] for c in range(4))
    bw, bx, by, bz = (b[..., c] for c in range(4))
    return np.stack(
        (
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ),
        axis=-1,
    )


def qarr_conj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qarr_modulus_sq(a: np.ndarray) -> np.ndarray:
    return np.einsum("...c,...c->...", a, a)


def qarr_modulus(a: np.ndarray) -> np.ndarray:
    return np.sqrt(qarr_modulus_sq(a))


def qarr_left_mul(q: Quaternion, a: np.ndarray) -> np.ndarray:
    """q * a pointwise for a fixed quaternion q."""
    return qarr_mul(q.as_array(), a)


def qarr_right_mul(a: np.ndarray, q: Quaternion) -> np.ndarray:
    """a * q pointwise for a fixed quaternion q."""
    return qarr_mul(a, q.as_array())
