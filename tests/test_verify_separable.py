"""The separable eigen-form checks against the 2D grid forms they replace.

verify_lowpass, verify_finite_qft and verify_allpass compose each residual
from 1D mode vectors.  The references below form the same residuals on the
full 2D grids, sample by sample, the way the library did before the checks
became separable; both must agree to 1e-6 relative (1e-16 absolute, the
long-double noise floor of the smallest residuals).
"""

import numpy as np
import pytest

from qpswf.grid import GridAxis
from qpswf.prolate import (DEFAULT_COEFF, _separable_norm, build_qpswf_basis,
                           sinc_kernel_ld, verify_allpass, verify_finite_qft,
                           verify_lowpass)
from qpswf.quaternion import Quaternion, q_mul
from qpswf.rng import CounterRng

_LD = np.longdouble


def _agrees(new, ref):
    return abs(new - ref) <= 1e-6 * ref + 1e-16


def _above_floor(basis):
    return [el for el in basis.items if el.above_floor]


def _tensor_residual(ax_term, ay_term, bx_term, by_term, w):
    """|| a_x (x) a_y - b_x (x) b_y ||_w / || a_x (x) a_y ||_w on the 2D grid."""
    diff = ax_term[:, None] * ay_term[None, :] - bx_term[:, None] * by_term[None, :]
    ref = ax_term[:, None] * ay_term[None, :]
    w2 = w[:, None] * w[None, :]
    return float(np.sqrt((w2 * diff * diff).sum() / (w2 * ref * ref).sum()))


def _sandwich_consts(q):
    """q, i q, q j, i q j: the constants of the finite-QFT sandwich."""
    i, j = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)
    return [c.as_array().astype(_LD)
            for c in (q, q_mul(i, q), q_mul(q, j), q_mul(i, q_mul(q, j)))]


def _ref_lowpass(el, kern):
    b = el.basis1d
    kx = kern @ (b._w_ld * b._phi_ld[el.m])
    ky = kern @ (b._w_ld * b._phi_ld[el.n])
    lam2d = b._lam_ld[el.m] * b._lam_ld[el.n]
    return _tensor_residual(lam2d * b._phi_ld[el.m], b._phi_ld[el.n], kx, ky, b._w_ld)


def _ref_finite_qft(el, ker):
    b = el.basis1d
    w = b._w_ld

    def fit(k):
        phi = b._phi_ld[k]
        integral = ker @ (w * phi)
        return integral, (w * phi * integral).sum() / (w * phi * phi).sum() * phi

    consts = _sandwich_consts(el.coeff)

    def sandwich(ax_c, ay_c):
        terms = (np.real(ax_c)[:, None] * np.real(ay_c)[None, :],
                 np.imag(ax_c)[:, None] * np.real(ay_c)[None, :],
                 np.real(ax_c)[:, None] * np.imag(ay_c)[None, :],
                 np.imag(ax_c)[:, None] * np.imag(ay_c)[None, :])
        return sum(t[..., None] * c[None, None, :] for t, c in zip(terms, consts))

    (ix, px), (iy, py) = fit(el.m), fit(el.n)
    computed = sandwich(ix, iy)
    diff = computed - sandwich(px, py)
    w2 = w[:, None] * w[None, :]
    return float(np.sqrt(np.einsum("pq,pqc,pqc->", w2, diff, diff)
                         / np.einsum("pq,pqc,pqc->", w2, computed, computed)))


def _ref_allpass(el, h):
    b = el.basis1d
    ax = GridAxis.symmetric(h, 257)
    xs = ax.samples().astype(_LD)
    wt = ax.trapezoid_weights().astype(_LD)
    phix, phiy = b.extend_ld(el.m, xs), b.extend_ld(el.n, xs)
    kern = sinc_kernel_ld(xs[:, None] - xs[None, :], b.w_half)
    return _tensor_residual(phix, phiy, kern @ (wt * phix), kern @ (wt * phiy), wt)


def test_lowpass_matches_grid_form(basis36):
    b = basis36.basis1d
    kern = sinc_kernel_ld(b._x_ld[:, None] - b._x_ld[None, :], b.w_half)
    for el in _above_floor(basis36):
        new = verify_lowpass(el)
        ref = _ref_lowpass(el, kern)
        assert _agrees(new, ref), (el.m, el.n, new, ref)


# the default amplitude gives orthonormal sandwich constants; with
# (1 + k)/sqrt(2) they are not (<q, i q j> = 1), so the Gram of the
# constants matters
COEFFS = pytest.mark.parametrize("coeff", [DEFAULT_COEFF, Quaternion(2 ** -0.5, 0, 0, 2 ** -0.5)],
                                 ids=["default", "one_plus_k"])


@COEFFS
def test_separable_norm_matches_grid_norm(coeff):
    # generic factors: the eigen-checks' own terms are nearly orthogonal
    # (parity, e_k orthogonal to phi_k), which would hide a wrong Gram of the
    # constants; each constant also appears twice, as in verify_finite_qft
    rng = CounterRng(7)
    consts = np.stack(_sandwich_consts(coeff) * 2)
    a, b = (rng.normal_field((8, 40)).astype(_LD) for _ in range(2))
    w = 0.5 + rng.normal_field((40,)).astype(_LD) ** 2
    grid = np.einsum("ix,iy,ic->xyc", a, b, consts)
    ref = np.sqrt(np.einsum("x,y,xyc,xyc->", w, w, grid, grid))
    assert abs(_separable_norm(consts, list(a), list(b), w) - ref) <= 1e-15 * ref
    scalars = rng.normal_field((8,)).astype(_LD)
    grid = np.einsum("ix,iy,i->xy", a, b, scalars)
    ref = np.sqrt(np.einsum("x,y,xy,xy->", w, w, grid, grid))
    assert abs(_separable_norm(scalars, list(a), list(b), w) - ref) <= 1e-15 * ref


@COEFFS
def test_finite_qft_matches_grid_form(basis36, coeff):
    b = basis36.basis1d
    cr = _LD(b.w_half) / _LD(b.t_half)
    ker = np.exp(1j * (cr * b._x_ld[:, None] * b._x_ld[None, :]).astype(np.clongdouble))
    basis = build_qpswf_basis(b, len(basis36), coeff=coeff)
    for el in _above_floor(basis):
        new, ref = verify_finite_qft(el).residual, _ref_finite_qft(el, ker)
        assert _agrees(new, ref), (el.m, el.n, new, ref)


@pytest.mark.parametrize("h", [2.0, 4.0, 6.0])
def test_allpass_matches_grid_form(basis36, h):
    for el in _above_floor(basis36):
        new, ref = verify_allpass(el, window_halfwidth=h).residual, _ref_allpass(el, h)
        assert _agrees(new, ref), (el.m, el.n, new, ref)
