import numpy as np
import pytest

from qpswf.errors import (BadParameters, GridMismatch, RegionOutOfGrid,
                          ZeroSignal)
from qpswf.grid import (GridAxis, QSignal, Region, angle, energy,
                        inner_product, region_mask, scalar_inner_product)
from qpswf.quaternion import Quaternion
from qpswf.rng import CounterRng

AX = GridAxis.symmetric(2.0, 65)


def _random_signal(seed, ax=AX):
    rng = CounterRng(seed)
    return QSignal(ax, ax, rng.normal_field((ax.count, ax.count, 4)))


def test_axis_validation():
    with pytest.raises(BadParameters):
        GridAxis(0.0, -0.1, 10)
    with pytest.raises(BadParameters):
        GridAxis(0.0, 0.1, 1)
    ax = GridAxis.symmetric(1.0, 11)
    assert ax.samples()[0] == -1.0
    assert ax.samples()[-1] == pytest.approx(1.0)
    assert ax.trapezoid_weights().sum() == pytest.approx(2.0)


def test_inner_product_self_normalized():
    f = _random_signal(1)
    nrm = f.norm()
    f = f.with_values(f.values / nrm)
    ip = inner_product(f, f)
    assert ip.w == pytest.approx(1.0, abs=1e-12)
    assert abs(ip.x) < 1e-14 and abs(ip.y) < 1e-14 and abs(ip.z) < 1e-14


def test_inner_product_disjoint_supports():
    a = np.zeros((AX.count, AX.count, 4))
    b = np.zeros_like(a)
    a[:10, :, 0] = 1.0
    b[40:, :, 2] = 1.0
    ip = inner_product(QSignal(AX, AX, a), QSignal(AX, AX, b))
    assert ip == Quaternion()


def test_inner_product_constants_by_hand():
    # <const (1+i), const 1> over a unit-area region = 1 + i
    ax = GridAxis(0.0, 0.05, 21)  # [0, 1]
    f = QSignal.from_components(ax, ax, 1.0, 1.0)
    g = QSignal.from_components(ax, ax, 1.0)
    ip = inner_product(f, g)
    assert ip.w == pytest.approx(1.0, rel=1e-12)
    assert ip.x == pytest.approx(1.0, rel=1e-12)
    assert abs(ip.y) < 1e-15 and abs(ip.z) < 1e-15


def test_inner_product_conjugate_reversal():
    f, g = _random_signal(2), _random_signal(3)
    fg = inner_product(f, g).conj()
    gf = inner_product(g, f)
    scale = max(fg.modulus(), 1e-300)
    assert np.allclose(gf.as_array(), fg.as_array(), rtol=0, atol=1e-13 * scale)


def test_grid_mismatch():
    other = GridAxis.symmetric(2.0, 33)
    with pytest.raises(GridMismatch):
        inner_product(_random_signal(1), _random_signal(1, other))


def test_scalar_inner_product():
    ax = GridAxis(0.0, 0.1, 11)
    one = QSignal.from_components(ax, ax, 1.0)
    i_const = QSignal.from_components(ax, ax, 0.0, 1.0)
    assert scalar_inner_product(one, i_const) == 0.0
    # Sc<(1+i),(1-i)> = Sc((1+i)(1+i)) = 0 over unit area
    f = QSignal.from_components(ax, ax, 1.0, 1.0)
    g = QSignal.from_components(ax, ax, 1.0, -1.0)
    assert scalar_inner_product(f, g) == pytest.approx(0.0, abs=1e-14)
    h = _random_signal(4)
    assert scalar_inner_product(h, h) == pytest.approx(energy(h), rel=1e-13)


def test_scalar_linearity_real_scalars():
    f, g = _random_signal(5), _random_signal(6)
    lhs = inner_product(f.with_values(2.5 * f.values), g)
    rhs = inner_product(f, g)
    for comp in "wxyz":
        assert getattr(lhs, comp) == pytest.approx(2.5 * getattr(rhs, comp), rel=1e-12)


def test_cauchy_schwarz_chain():
    rng = CounterRng(7)
    for _ in range(20):
        f = _random_signal(int(rng.uniform(1)[0] * 1e6))
        g = _random_signal(int(rng.uniform(1)[0] * 1e6))
        sc = abs(scalar_inner_product(f, g))
        full = inner_product(f, g).modulus()
        assert sc <= full * (1 + 1e-12)
        assert full <= f.norm() * g.norm() * (1 + 1e-12)


def test_angle():
    f = _random_signal(8)
    assert angle(f, f) == pytest.approx(0.0, abs=1e-7)
    assert angle(f, f.with_values(-f.values)) == pytest.approx(np.pi, abs=1e-7)
    ax = GridAxis(0.0, 0.1, 11)
    one = QSignal.from_components(ax, ax, 1.0)
    i_const = QSignal.from_components(ax, ax, 0.0, 1.0)
    assert angle(one, i_const) == pytest.approx(np.pi / 2, abs=1e-14)
    with pytest.raises(ZeroSignal):
        angle(one, QSignal.zeros(ax, ax))


def test_energy_basics():
    z = QSignal.zeros(AX, AX)
    assert energy(z) == 0.0
    f = _random_signal(9)
    f = f.with_values(f.values / f.norm())
    assert energy(f) == pytest.approx(1.0, rel=1e-12)


def test_energy_region_out_of_grid():
    f = _random_signal(10)
    with pytest.raises(RegionOutOfGrid):
        energy(f, Region.square(3.0))


def test_quadrature_tiling_consistency():
    # partitioning the node set leaves the full-grid quadrature unchanged
    f = _random_signal(11)
    total = energy(f)
    nx = AX.count
    parts = 0.0
    for si in (slice(0, nx // 2), slice(nx // 2, nx)):
        for sj in (slice(0, nx // 2), slice(nx // 2, nx)):
            masked = np.zeros_like(f.values)
            masked[si, sj] = f.values[si, sj]
            parts += energy(f.with_values(masked))
    assert parts == pytest.approx(total, rel=1e-12)


def test_masking_energy_additivity():
    f = _random_signal(12)
    mask = region_mask(f, Region.square(1.0))[..., None]
    inside = f.with_values(f.values * mask)
    outside = f.with_values(f.values * (1 - mask))
    assert scalar_inner_product(inside, outside) == 0.0
    assert energy(inside) + energy(outside) == pytest.approx(energy(f), rel=1e-12)


def test_region_quadrature_halves_boundary():
    # region rule: interior nodes full weight, boundary nodes half weight
    ones = QSignal.from_components(AX, AX, 1.0)
    # [-1,1]^2 has area 4
    assert energy(ones, Region.square(1.0)) == pytest.approx(4.0, rel=1e-12)


def _gaussian(count):
    ax = GridAxis.symmetric(4.0, count)
    x = ax.samples()
    return QSignal.from_components(ax, ax, np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 2))


@pytest.mark.parametrize("count", [31, 1027])
def test_region_edge_between_nodes_rejected(count):
    # on [-4, 4] with 31 or 1027 nodes, +-1 falls between nodes: a full step of weight on
    # the nodes inside is first-order wrong (xi^2 reads 0.66548 on 31^2 and 0.71151 on
    # 1027^2; the true value is 0.710145)
    f = _gaussian(count)
    with pytest.raises(RegionOutOfGrid):
        energy(f, Region.square(1.0))
    with pytest.raises(RegionOutOfGrid):
        inner_product(f, f, Region.square(1.0))


def test_region_edge_on_nodes_is_the_trapezoid_rule():
    # with 33 nodes +-1 are nodes: half weight there, a full step inside
    f = _gaussian(33)
    x, step = f.ax_x.samples(), f.ax_x.step
    w = np.where(np.abs(x) < 1 - step / 2, step, 0.0) + np.where(np.abs(np.abs(x) - 1) < step / 2,
                                                                  step / 2, 0.0)
    want = float(np.einsum("ij,ij->", np.outer(w, w), (f.values ** 2).sum(axis=-1)))
    assert energy(f, Region.square(1.0)) == pytest.approx(want, rel=1e-15)
    assert energy(f, Region.square(1.0)) / energy(f) == pytest.approx(0.70286056, rel=1e-8)
