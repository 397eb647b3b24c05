"""Sampled quaternion fields on uniform 2D grids, quadrature, and inner products.

Grid-level integrals use the product trapezoid rule.  A centered square
region integrates with the rule restricted to the region, whose edges must
be nodes: nodes strictly inside carry full weight, nodes on the region
boundary carry half weight per axis.  The region mask used by masking
operators is the closed square, which keeps masking idempotent and energy
additivity exact on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, GridMismatch, RegionOutOfGrid, ZeroSignal
from .quaternion import Quaternion, qarr, qarr_conj, qarr_modulus_sq, qarr_mul

# node-coordinate comparisons tolerate this fraction of one step
_NODE_TOL = 1e-9

# norms below this are treated as zero signals
_ZERO_FLOOR = 1e-150


def _row_blocks(rows: int, row_nbytes: int, nbytes: int):
    """Slices of range(rows), max(1, nbytes // row_nbytes) rows each: callers pass the bytes
    of the tables they keep, so no block takes more memory than those tables."""
    step = max(1, nbytes // row_nbytes)
    return (slice(i, min(i + step, rows)) for i in range(0, rows, step))


@dataclass(frozen=True, slots=True)
class GridAxis:
    """Uniform sampling axis: samples are start + n*step, n in [0, count)."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not (self.step > 0):
            raise BadParameters(f"axis step must be > 0, got {self.step}")
        if self.count < 2:
            raise BadParameters(f"axis count must be >= 2, got {self.count}")

    def samples(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.count, self.step)
        w[0] = w[-1] = self.step / 2
        return w

    @property
    def stop(self) -> float:
        return self.start + self.step * (self.count - 1)

    @staticmethod
    def symmetric(halfwidth: float, count: int) -> "GridAxis":
        if count < 2:
            raise BadParameters("count must be >= 2")
        step = 2 * halfwidth / (count - 1)
        return GridAxis(-halfwidth, step, count)


@dataclass(frozen=True, slots=True)
class Region:
    """Integration/masking region: [-h, h] x [-h, h], or the whole grid when h is None."""

    halfwidth: float = None

    def __post_init__(self):
        if self.halfwidth is not None and not (self.halfwidth > 0):
            raise BadParameters("square halfwidth must be > 0")

    @staticmethod
    def full() -> "Region":
        return Region()

    @staticmethod
    def square(halfwidth: float) -> "Region":
        return Region(halfwidth)


def _axis_region_mask(ax: GridAxis, h: float) -> np.ndarray:
    """Node membership of the closed interval [-h, h]; RegionOutOfGrid if it leaves the axis."""
    x = ax.samples()
    tol = _NODE_TOL * ax.step
    if x[0] > -h + tol or x[-1] < h - tol:
        raise RegionOutOfGrid(f"region [-{h}, {h}] exceeds axis [{x[0]}, {x[-1]}]")
    return np.abs(x) <= h + tol


def _axis_region_weights(ax: GridAxis, h: float) -> np.ndarray:
    """Trapezoid weights of [-h, h] on the axis nodes; RegionOutOfGrid unless -h and h are
    each a node, since an edge between nodes has no trapezoid rule on the axis."""
    inside, x, tol = _axis_region_mask(ax, h), ax.samples(), _NODE_TOL * ax.step
    if not max(np.abs(x - edge).min() for edge in (-h, h)) <= tol:
        raise RegionOutOfGrid(f"region edges -{h} and {h} are not both nodes of the axis "
                              f"[{x[0]}, {x[-1]}] of step {ax.step}")
    w = np.where(inside, ax.step, 0.0)
    w[inside & (np.abs(np.abs(x) - h) <= tol)] = ax.step / 2
    return w


@dataclass(frozen=True)
class QSignal:
    """Quaternion-valued field sampled on a uniform 2D grid.

    values has shape (ax_x.count, ax_y.count, 4), row-major with the x
    index first.
    """

    ax_x: GridAxis
    ax_y: GridAxis
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.ax_x.count, self.ax_y.count, 4):
            raise BadParameters(
                f"values shape {v.shape} != ({self.ax_x.count}, {self.ax_y.count}, 4)")
        object.__setattr__(self, "values", v)

    def same_grid(self, other: "QSignal") -> bool:
        return self.ax_x == other.ax_x and self.ax_y == other.ax_y

    def with_values(self, values: np.ndarray) -> "QSignal":
        return QSignal(self.ax_x, self.ax_y, values)

    def component(self, c: int) -> np.ndarray:
        return self.values[..., c]

    def norm(self) -> float:
        return float(np.sqrt(energy(self, Region.full())))

    @staticmethod
    def zeros(ax_x: GridAxis, ax_y: GridAxis) -> "QSignal":
        return QSignal(ax_x, ax_y, np.zeros((ax_x.count, ax_y.count, 4)))

    @staticmethod
    def from_components(ax_x: GridAxis, ax_y: GridAxis, w, x=None, y=None, z=None) -> "QSignal":
        w = np.broadcast_to(np.asarray(w, dtype=float), (ax_x.count, ax_y.count))
        return QSignal(ax_x, ax_y, qarr(w, *(0.0 if c is None else c for c in (x, y, z))))


def _region_weights(f: QSignal, region: Region) -> np.ndarray:
    """The product trapezoid rule of the region on f's grid."""
    if region.halfwidth is None:
        wx, wy = f.ax_x.trapezoid_weights(), f.ax_y.trapezoid_weights()
    else:
        wx = _axis_region_weights(f.ax_x, region.halfwidth)
        wy = _axis_region_weights(f.ax_y, region.halfwidth)
    return np.outer(wx, wy)


def region_mask(f: QSignal, region: Region) -> np.ndarray:
    """Boolean node membership of the closed region."""
    if region.halfwidth is None:
        return np.ones((f.ax_x.count, f.ax_y.count), dtype=bool)
    mx = _axis_region_mask(f.ax_x, region.halfwidth)
    my = _axis_region_mask(f.ax_y, region.halfwidth)
    return np.outer(mx, my)


def inner_product(f: QSignal, g: QSignal, region: Region = None) -> Quaternion:
    """Left quaternionic inner product <f, g> = integral of f * conj(g)."""
    if not f.same_grid(g):
        raise GridMismatch("signals sampled on different grids")
    region = region or Region.full()
    w = _region_weights(f, region)
    prod = qarr_mul(f.values, qarr_conj(g.values))
    comps = np.einsum("ij,ijc->c", w, prod)
    return Quaternion(*comps)


def scalar_inner_product(f: QSignal, g: QSignal, region: Region = None) -> float:
    """Scalar part of the left inner product; symmetric in f and g."""
    if not f.same_grid(g):
        raise GridMismatch("signals sampled on different grids")
    region = region or Region.full()
    w = _region_weights(f, region)
    # Sc(f * conj(g)) is the 4-component dot product
    return float(np.einsum("ij,ijc,ijc->", w, f.values, g.values))


def energy(f: QSignal, region: Region = None) -> float:
    """Quadrature of |f|^2 over the region."""
    region = region or Region.full()
    w = _region_weights(f, region)
    return float(np.einsum("ij,ij->", w, qarr_modulus_sq(f.values)))


def angle(f: QSignal, g: QSignal) -> float:
    """Angle arccos(Sc<f,g> / (||f|| ||g||)) in [0, pi]."""
    nf = f.norm()
    ng = g.norm()
    if nf <= _ZERO_FLOOR or ng <= _ZERO_FLOOR:
        raise ZeroSignal("angle undefined for (near-)zero signals")
    c = scalar_inner_product(f, g) / (nf * ng)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))
