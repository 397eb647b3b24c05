import numpy as np
import pytest

from qpswf.concentration import band_limit
from qpswf.errors import NonUniformGrid, WindowTooSmall, ZeroSignal
from qpswf.grid import GridAxis, QSignal, energy
from qpswf.qft import (dual_frequency_axes, dual_frequency_axis, forward_qft, inverse_qft,
                       mask_spectrum, modulate, parseval_check,
                       q_modulus_field, sinc_bandlimit_kernel, spectral_energy,
                       spectrum_from_complex_components)
from qpswf.quaternion import qarr_modulus_sq, qarr_mul
from qpswf.rng import CounterRng
from qpswf.signals import random_bandlimited_grid_spectrum

AX = GridAxis.symmetric(4.0, 129)


def _axes():
    return dual_frequency_axes(QSignal.zeros(AX, AX))


def _random_bandlimited(seed, w_half=1.0):
    ax_u, ax_v = _axes()
    g = random_bandlimited_grid_spectrum(ax_u, ax_v, w_half, CounterRng(seed))
    spec = spectrum_from_complex_components(ax_u, ax_v, g)
    return inverse_qft(spec, AX, AX), spec


def test_zero_signal_zero_spectrum():
    ax_u, ax_v = _axes()
    spec = forward_qft(QSignal.zeros(AX, AX), ax_u, ax_v)
    assert np.all(spec.combined == 0.0)
    assert all(np.all(spec.component(c) == 0.0) for c in range(4))
    f = inverse_qft(spec, AX, AX)
    assert np.all(f.values == 0.0)


def test_real_gaussian_spectrum_structure():
    x = AX.samples()
    g = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 2)
    f = QSignal.from_components(AX, AX, g)
    ax_u, ax_v = _axes()
    spec = forward_qft(f, ax_u, ax_v)
    fc = spec.component(0)
    # even real input: all sine-quadrature parts vanish
    assert np.abs(fc[..., 1:]).max() < 1e-13 * np.abs(fc[..., 0]).max()
    assert fc[..., 0].max() > 0


def test_roundtrip_bandlimited():
    f, spec = _random_bandlimited(21)
    spec2 = forward_qft(f, spec.ax_u, spec.ax_v)
    scale = np.abs(spec.combined).max()
    assert np.abs(spec2.combined - spec.combined).max() <= 1e-8 * scale
    f2 = inverse_qft(spec2, AX, AX)
    assert np.abs(f2.values - f.values).max() <= 1e-8 * np.abs(f.values).max()


def test_symmetric_representation_invariant():
    f, spec = _random_bandlimited(22)
    spec2 = forward_qft(f, spec.ax_u, spec.ax_v)
    i, j = np.eye(4)[1], np.eye(4)[2]
    f0, f1, f2, f3 = (spec2.component(c) for c in range(4))
    assembled = f0 + qarr_mul(i, f1) + qarr_mul(f2, j) + qarr_mul(qarr_mul(i, f3), j)
    assert np.abs(assembled - spec2.combined).max() < 1e-15


def test_q_modulus_field():
    ax_u, ax_v = _axes()
    zero = forward_qft(QSignal.zeros(AX, AX), ax_u, ax_v)
    assert np.all(q_modulus_field(zero) == 0.0)
    # real signal: Q-density reduces to |F(f0)|^2
    x = AX.samples()
    g = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2))
    spec = forward_qft(QSignal.from_components(AX, AX, g), ax_u, ax_v)
    dens = q_modulus_field(spec)
    only0 = qarr_modulus_sq(spec.component(0))
    assert np.abs(dens - only0).max() < 1e-14 * dens.max()


def test_parseval_bandlimited_and_gaussian():
    f, _ = _random_bandlimited(23)
    assert parseval_check(f) <= 1e-8
    x = AX.samples()
    g = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2 * 0.5 ** 2))
    vals = np.stack([g, 0.3 * g, -0.2 * g, 0.1 * g], axis=-1)
    assert parseval_check(QSignal(AX, AX, vals)) <= 1e-8


def test_parseval_window_certification():
    # white nodal noise has spectral content out to the window edge
    rng = CounterRng(24)
    f = QSignal(AX, AX, rng.normal_field((AX.count, AX.count, 4)))
    with pytest.raises(WindowTooSmall):
        parseval_check(f)
    with pytest.raises(ZeroSignal):
        parseval_check(QSignal.zeros(AX, AX))


@pytest.mark.parametrize("transpose", [False, True])
def test_parseval_window_per_axis(transpose):
    # smooth in x, (-1)^n in y: all spectral energy sits at the v Nyquist edge,
    # outside the inner 80% of the v window although inside 0.8 u_stop
    ax_x, ax_y = GridAxis.symmetric(4.0, 129), GridAxis.symmetric(4.0, 33)
    x = ax_x.samples()
    vals = np.exp(-x ** 2)[:, None] * (-1.0) ** np.arange(ax_y.count)[None, :]
    f = (QSignal.from_components(ax_y, ax_x, vals.T) if transpose
         else QSignal.from_components(ax_x, ax_y, vals))
    with pytest.raises(WindowTooSmall):
        parseval_check(f)


def test_component_needs_symmetric_axes():
    f, spec = _random_bandlimited(29)
    shifted = GridAxis(spec.ax_u.start + spec.ax_u.step, spec.ax_u.step, spec.ax_u.count)
    off = forward_qft(f, shifted, spec.ax_v)
    assert np.abs(off.combined[:-1] - spec.combined[1:]).max() \
        <= 1e-12 * np.abs(spec.combined).max()
    with pytest.raises(NonUniformGrid):
        off.component(0)
    with pytest.raises(NonUniformGrid):
        q_modulus_field(off)


def test_forward_linearity_real_scalars():
    f, spec = _random_bandlimited(25)
    ax_u, ax_v = spec.ax_u, spec.ax_v
    a = forward_qft(f.with_values(1.75 * f.values), ax_u, ax_v)
    b = forward_qft(f, ax_u, ax_v)
    assert np.abs(a.combined - 1.75 * b.combined).max() \
        <= 1e-12 * np.abs(b.combined).max()


def test_modulate_basics():
    f, _ = _random_bandlimited(26)
    same = modulate(f, 0.0)
    assert np.abs(same.values - f.values).max() == 0.0
    shifted = modulate(f, 3.7)
    assert energy(shifted) == pytest.approx(energy(f), rel=1e-12)
    assert np.abs(qarr_modulus_sq(shifted.values)
                  - qarr_modulus_sq(f.values)).max() < 1e-13


def test_modulation_shift_identity():
    f, spec = _random_bandlimited(27)
    ax_u, ax_v = spec.ax_u, spec.ax_v
    k = 3
    r = k * ax_u.step
    spec_mod = forward_qft(modulate(f, r), ax_u, ax_v)
    # F(e^{irx} f)(u, v) = F(f)(u - r, v): compare on the overlap
    lhs = spec_mod.combined[k:, :, :]
    rhs = forward_qft(f, ax_u, ax_v).combined[:-k, :, :]
    assert np.abs(lhs - rhs).max() <= 1e-6 * np.abs(rhs).max()


def test_sinc_kernel_values():
    w = 1.3
    assert sinc_bandlimit_kernel(0.0, 0.0, w) == pytest.approx((w / np.pi) ** 2)
    assert sinc_bandlimit_kernel(np.pi / w, 0.37, w) == pytest.approx(0.0, abs=1e-15)


def test_sinc_kernel_quadrature_oracle():
    # direct 2D quadrature of (1/4pi^2) int_W e^{iu dx} e^{jv dy} du dv
    w_half = 1.0
    nodes, wts = np.polynomial.legendre.leggauss(64)
    u = w_half * nodes
    wu = w_half * wts
    for dx, dy in ((0.0, 0.0), (0.3, -0.8), (1.7, 2.9), (np.pi, 0.1)):
        cu, su = np.cos(u * dx), np.sin(u * dx)
        cv, sv = np.cos(u * dy), np.sin(u * dy)
        # e^{iu dx} e^{jv dy} = (cu + i su)(cv + j sv); scalar part = cu*cv
        scalar = np.einsum("a,b,a,b->", wu, wu, cu, cv) / (4 * np.pi ** 2)
        icomp = np.einsum("a,b,a,b->", wu, wu, su, cv) / (4 * np.pi ** 2)
        jcomp = np.einsum("a,b,a,b->", wu, wu, cu, sv) / (4 * np.pi ** 2)
        kcomp = np.einsum("a,b,a,b->", wu, wu, su, sv) / (4 * np.pi ** 2)
        expect = sinc_bandlimit_kernel(dx, dy, w_half)
        assert scalar == pytest.approx(expect, abs=1e-10)
        assert abs(icomp) < 1e-10 and abs(jcomp) < 1e-10 and abs(kcomp) < 1e-10


def test_element_spectrum_band_support(basis36):
    # the grid window clips the eigenfunction tails, so leakage outside the
    # band is only certified up to that tail energy
    psi = basis36[0].values
    ax_u, ax_v = dual_frequency_axes(psi)
    spec = forward_qft(psi, ax_u, ax_v)
    total = spectral_energy(spec)
    inside = spectral_energy(spec, basis36.w_half)
    out_frac = (total - inside) / total
    tail_energy = max(0.0, 1.0 - energy(psi))
    assert out_frac <= tail_energy + 1e-6


def test_mask_spectrum():
    f, spec = _random_bandlimited(28, w_half=2.0)
    full = forward_qft(f, spec.ax_u, spec.ax_v)
    masked = mask_spectrum(full, 1.0)
    keep = full.band_mask(1.0)
    assert np.all(masked.combined[~keep] == 0.0)
    assert np.abs(masked.combined[keep] - full.combined[keep]).max() == 0.0
    with pytest.raises(WindowTooSmall):
        mask_spectrum(full, 1e6)


def test_dual_axis_properties():
    ax_u = dual_frequency_axes(QSignal.zeros(AX, AX))[0]
    span = AX.step * (AX.count - 1)
    assert ax_u.step == pytest.approx(2 * np.pi / span, rel=1e-15)
    assert ax_u.start == pytest.approx(-ax_u.stop)
    with pytest.raises(WindowTooSmall):
        dual_frequency_axes(QSignal.zeros(AX, AX), count=4 * AX.count + 1)
    bad_v = GridAxis(0.0, 0.1, 11)
    f = QSignal.zeros(AX, AX)
    with pytest.raises(NonUniformGrid):
        forward_qft(f, ax_u, bad_v)


def _dense_qft(vals, src_x, src_y, dst_x, dst_y, sign):
    """(1/2pi) sum w_x w_y e^{sign i x u} q(x, y) e^{sign j y v} by dense matmuls.

    Each of the 16 (left, component, right) terms is one real kernel product
    times the quaternion unit it carries; no FFT and no symplectic split.
    """
    def kernels(src, dst):
        arg = np.outer(dst.samples(), src.samples())
        w = src.trapezoid_weights()[None, :]
        return np.cos(arg) * w, sign * np.sin(arg) * w

    units = np.eye(4)  # 1, i, j, k
    (cl, sl), (cr, sr) = kernels(src_x, dst_x), kernels(src_y, dst_y)
    out = np.zeros((dst_x.count, dst_y.count, 4))
    for c in range(4):
        for kl, ul in ((cl, units[0]), (sl, units[1])):
            for kr, ur in ((cr, units[0]), (sr, units[2])):
                unit = qarr_mul(qarr_mul(ul, units[c]), ur)
                out += (kl @ vals[..., c] @ kr.T)[..., None] * unit
    return out / (2 * np.pi)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


# grid counts (nx, ny) and frequency count: odd, even (FFT length 99),
# sub-window, non-square
@pytest.mark.parametrize("nx,ny,count", [(129, 129, None), (100, 100, None),
                                         (129, 129, 31), (65, 33, None)])
def test_fft_qft_matches_dense_oracle(nx, ny, count):
    ax_x, ax_y = GridAxis.symmetric(4.0, nx), GridAxis.symmetric(3.0, ny)
    ax_u, ax_v = dual_frequency_axis(ax_x, count), dual_frequency_axis(ax_y, count)
    f = QSignal(ax_x, ax_y, CounterRng(40 + nx + ny).normal_field((nx, ny, 4)))
    spec = forward_qft(f, ax_u, ax_v)
    assert _rel(spec.combined, _dense_qft(f.values, ax_x, ax_y, ax_u, ax_v, -1)) <= 1e-12
    q_oracle = 0.0
    for c in range(4):
        only_c = np.zeros_like(f.values)
        only_c[..., 0] = f.component(c)
        oracle = _dense_qft(only_c, ax_x, ax_y, ax_u, ax_v, -1)
        assert _rel(spec.component(c), oracle) <= 1e-12
        # qft forward on a file holding f_c alone gives F(f_c)
        assert _rel(forward_qft(QSignal(ax_x, ax_y, only_c), ax_u, ax_v).combined,
                    spec.component(c)) <= 1e-12
        q_oracle += qarr_modulus_sq(oracle)
    assert _rel(q_modulus_field(spec), q_oracle) <= 1e-12
    back = inverse_qft(spec, ax_x, ax_y)
    oracle = _dense_qft(spec.combined, ax_u, ax_v, ax_x, ax_y, +1)
    assert _rel(back.values, oracle) <= 1e-12
    # the band square at W = 1 and at the Nyquist edge of the window
    for w_half in (1.0, min(ax_u.stop, ax_v.stop)):
        keep = spec.band_mask(w_half)[..., None]
        oracle = _dense_qft(spec.combined * keep, ax_u, ax_v, ax_x, ax_y, +1)
        assert _rel(band_limit(f, w_half, ax_u, ax_v).values, oracle) <= 1e-12


def test_band_limit_is_masked_qft_roundtrip():
    f = QSignal(AX, AX, CounterRng(44).normal_field((AX.count, AX.count, 4)))
    ax_u, ax_v = _axes()
    via_qft = inverse_qft(mask_spectrum(forward_qft(f, ax_u, ax_v), 1.0), AX, AX)
    assert _rel(band_limit(f, 1.0).values, via_qft.values) <= 1e-12


def test_off_lattice_axes_rejected():
    f = QSignal(AX, AX, CounterRng(45).normal_field((AX.count, AX.count, 4)))
    ax_u, ax_v = _axes()
    off = GridAxis(ax_u.start * 1.01, ax_u.step * 1.01, ax_u.count)
    with pytest.raises(NonUniformGrid):
        forward_qft(f, off, ax_v)
    with pytest.raises(NonUniformGrid):
        band_limit(f, 1.0, off, ax_v)
    spec = forward_qft(f, ax_u, ax_v)
    with pytest.raises(NonUniformGrid):
        inverse_qft(spec, GridAxis(AX.start, AX.step * 1.01, AX.count), AX)
