"""Two-sided quaternionic Fourier transform on sampled grids.

The transform of f = f0 + i f1 + j f2 + k f3 is assembled from one
standard complex 2D DFT per real component: trapezoid quadratures of the
continuous integrals (with their 1/2pi factors), evaluated by FFT on the
dual lattice.  A spatial step h and a frequency step du are accepted when
h * du * L = 2*pi for an integer L, as for every axis dual_frequency_axis
makes (any odd count, from odd or even grids); other axes raise
NonUniformGrid.  With du = 2*pi / (x-span) the sampled kernels are
discretely orthogonal: roundtrips and the Q-modulus Parseval identity hold
to rounding for signals whose spectra live strictly inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, NonUniformGrid, WindowTooSmall, ZeroSignal
from .grid import GridAxis, QSignal, Region, energy
from .quaternion import qarr_left_mul_complex

_SYM_TOL = 1e-9
_LATTICE_TOL = 1e-12  # relative distance of 2*pi/(step product) from an integer


def _check_symmetric(ax: GridAxis, name: str):
    if abs(ax.start + ax.stop) > _SYM_TOL * ax.step:
        raise NonUniformGrid(f"{name} axis must be symmetric about 0")


@dataclass(frozen=True)
class SpectrumQ:
    """Two-sided QFT of a quaternion signal.

    combined is the quaternion spectrum F(f); components[c] is the
    quaternion spectrum F(f_c) of the c-th real component, satisfying
    combined = F(f0) + i F(f1) + F(f2) j + i F(f3) j at every node.
    """

    ax_u: GridAxis
    ax_v: GridAxis
    combined: np.ndarray
    components: np.ndarray  # shape (4, Mu, Mv, 4)

    def __post_init__(self):
        mu, mv = self.ax_u.count, self.ax_v.count
        if self.combined.shape != (mu, mv, 4):
            raise BadParameters("combined has wrong shape")
        if self.components.shape != (4, mu, mv, 4):
            raise BadParameters("components have wrong shape")

    def band_mask(self, w_half: float) -> np.ndarray:
        tol = _SYM_TOL * min(self.ax_u.step, self.ax_v.step)
        mu = np.abs(self.ax_u.samples()) <= w_half + tol
        mv = np.abs(self.ax_v.samples()) <= w_half + tol
        return np.outer(mu, mv)


def dual_frequency_axis(ax: GridAxis, count: int = None) -> GridAxis:
    """Frequency axis with du = 2*pi/span, symmetric, odd count.

    With this spacing the weighted exponential kernels are discretely
    orthogonal on the spatial grid, so inverse(forward(f)) is exact for
    window-interior spectra.  count defaults to the spatial count (its
    edge then sits at the Nyquist frequency pi/step).
    """
    span = ax.step * (ax.count - 1)
    du = 2 * np.pi / span
    if count is None:
        count = ax.count if ax.count % 2 == 1 else ax.count - 1
    if count % 2 == 0 or count < 3:
        raise BadParameters("frequency axis count must be odd and >= 3")
    half = (count - 1) // 2
    if half * du > np.pi / ax.step * (1 + _SYM_TOL):
        raise WindowTooSmall("requested frequency window exceeds the Nyquist limit")
    return GridAxis(-half * du, du, count)


def dual_frequency_axes(f: QSignal, count: int = None) -> tuple[GridAxis, GridAxis]:
    return dual_frequency_axis(f.ax_x, count), dual_frequency_axis(f.ax_y, count)


def _lattice_length(src: GridAxis, dst: GridAxis) -> int:
    """The integer L with src.step * dst.step * L = 2*pi."""
    period = 2 * np.pi / (src.step * dst.step)
    n = round(period)
    if n < 1 or abs(period - n) > _LATTICE_TOL * period:
        raise NonUniformGrid(f"axis steps {src.step:.6g}, {dst.step:.6g} are not a dual lattice")
    return n


def _fold(z: np.ndarray, n: int, axis: int = -1) -> np.ndarray:
    """Sum the samples along axis into n periodic bins (index mod n)."""
    z = np.moveaxis(z, axis, -1)
    bins = np.zeros(z.shape[:-1] + (n,), dtype=z.dtype)
    for k in range(0, z.shape[-1], n):
        bins[..., :min(n, z.shape[-1] - k)] += z[..., k:k + n]
    return np.moveaxis(bins, -1, axis)


def _lattice_dft(vals: np.ndarray, src: GridAxis, dst: GridAxis, sign: int,
                 axis: int) -> np.ndarray:
    """sum_a w_a vals_a e^{sign i s_a t_b} along axis by one length-L FFT.

    With ds dt L = 2*pi, s_a t_b = s0 t_b + a ds t0 + 2*pi a b / L: the
    a-phase goes on the weighted samples, which fold mod L (the half-weight
    ends of a dual axis share a bin), the FFT supplies 2*pi a b / L, and the
    s0 t_b phase goes on the bins gathered mod L.
    """
    n = _lattice_length(src, dst)
    pre = np.exp(sign * 1j * src.step * dst.start * np.arange(src.count))
    z = np.moveaxis(vals, axis, -1) * (src.trapezoid_weights() * pre)
    bins = np.fft.fft(_fold(z, n)) if sign < 0 else np.fft.ifft(_fold(z, n), norm="forward")
    out = bins[..., np.arange(dst.count) % n] * np.exp(sign * 1j * src.start * dst.samples())
    return np.moveaxis(out, -1, axis)


def _band_bins(ax: GridAxis, ax_f: GridAxis, w_half: float) -> np.ndarray:
    """Weights of the band |u| <= w_half on ax_f in the FFT bins of ax (bin k: u = k du)."""
    _check_symmetric(ax_f, "frequency")
    keep = np.abs(ax_f.samples()) <= w_half + _SYM_TOL * ax_f.step
    bins = _fold(ax_f.trapezoid_weights() * keep, _lattice_length(ax, ax_f))
    return np.roll(bins, -(ax_f.count // 2))


def forward_qft(f: QSignal, ax_u: GridAxis, ax_v: GridAxis) -> SpectrumQ:
    """Two-sided QFT with kernel e^{-iux} (left), e^{-jvy} (right), factor 1/2pi."""
    g = np.stack([_lattice_dft(_lattice_dft(f.component(c), f.ax_x, ax_u, -1, 0),
                               f.ax_y, ax_v, -1, 1) for c in range(4)])
    return spectrum_from_complex_components(ax_u, ax_v, g)


def _assemble_symmetric(comps: np.ndarray) -> np.ndarray:
    """F(f0) + i F(f1) + F(f2) j + i F(f3) j from component spectra."""
    a, b, c, d = (np.moveaxis(q, -1, 0) for q in comps)  # (w, x, y, z) parts
    return np.stack((a[0] - b[1] - c[2] + d[3], a[1] + b[0] - c[3] - d[2],
                     a[2] - b[3] + c[0] - d[1], a[3] + b[2] + c[1] + d[0]), axis=-1)


def spectrum_from_complex_components(ax_u: GridAxis, ax_v: GridAxis,
                                     g: np.ndarray) -> SpectrumQ:
    """Build a SpectrumQ from complex classical spectra of the four components.

    g has shape (4, Mu, Mv): values of integral f_c e^{-i(ux+vy)} dx dy for
    each real component.  Hermitian symmetry g(-u,-v) = conj g(u,v) is
    required for the components to describe real fields; the v axis must be
    symmetric about 0.
    """
    _check_symmetric(ax_v, "frequency v")
    g = np.asarray(g, dtype=complex)
    comps = np.empty((4, 4, ax_u.count, ax_v.count))  # quaternion parts outermost
    for c, (gc, gf) in enumerate(zip(g, g[:, :, ::-1])):  # gf: v -> -v
        comps[c] = gc.real + gf.real, gc.imag + gf.imag, gc.imag - gf.imag, gf.real - gc.real
    comps /= 4 * np.pi
    comps = np.moveaxis(comps, 1, -1)
    return SpectrumQ(ax_u, ax_v, _assemble_symmetric(comps), comps)


def inverse_qft(spec: SpectrumQ, ax_x: GridAxis, ax_y: GridAxis) -> QSignal:
    """Inverse two-sided QFT: kernel e^{+iux} (left), e^{+jvy} (right), factor 1/2pi."""
    return inverse_qft_combined(QSignal(spec.ax_u, spec.ax_v, spec.combined), ax_x, ax_y)


def inverse_qft_combined(combined: QSignal, ax_x: GridAxis, ax_y: GridAxis) -> QSignal:
    """inverse_qft of the quaternion spectrum alone, held on its (u, v) axes."""
    ax_u, ax_v = combined.ax_x, combined.ax_y

    def over_u(c):
        return _lattice_dft(combined.values[..., c], ax_u, ax_x, +1, 0)

    # symplectic split Q = A + B j (A, B complex in i); with e^{jvy} = cos + j sin,
    # (A + B j)(cos + j sin) = (A cos - B sin) + (A sin + B cos) j, where the
    # cos and sin sums come from e^{+ivy} (p) and e^{-ivy} (m)
    ap, am, bp, bm = (_lattice_dft(z, ax_v, ax_y, s, 1) for z in
                      (over_u(0) + 1j * over_u(1), over_u(2) + 1j * over_u(3)) for s in (1, -1))
    x = (ap + am + 1j * (bp - bm)) / (4 * np.pi)
    y = (bp + bm - 1j * (ap - am)) / (4 * np.pi)
    return QSignal(ax_x, ax_y, np.stack((x.real, x.imag, y.real, y.imag), axis=-1))


def q_modulus_field(spec: SpectrumQ) -> np.ndarray:
    """Pointwise Q-modulus energy density sum_c |F(f_c)|^2."""
    return np.einsum("cijq,cijq->ij", spec.components, spec.components)


def spectral_energy(spec: SpectrumQ, w_half: float = None) -> float:
    """Trapezoid quadrature of the Q-modulus density, optionally masked to |u|,|v| <= w_half."""
    q = q_modulus_field(spec)
    w2 = np.outer(spec.ax_u.trapezoid_weights(), spec.ax_v.trapezoid_weights())
    if w_half is not None:
        w2 = w2 * spec.band_mask(w_half)
    return float(np.einsum("ij,ij->", w2, q))


def parseval_check(f: QSignal, tail_budget: float = 1e-10) -> float:
    """Relative discrepancy between grid energy and spectral Q-modulus energy.

    The frequency window must capture the spectrum: the Q-modulus energy in
    the outer 20% annulus of the window is required to stay below
    tail_budget of the total, otherwise WindowTooSmall is raised.
    """
    ef = energy(f, Region.full())
    if ef <= 0:
        raise ZeroSignal("parseval_check requires a nonzero signal")
    ax_u, ax_v = dual_frequency_axes(f)
    spec = forward_qft(f, ax_u, ax_v)
    e_spec = spectral_energy(spec)
    inner = spectral_energy(spec, 0.8 * ax_u.stop)
    if e_spec - inner > tail_budget * e_spec:
        raise WindowTooSmall(
            f"spectral tail {e_spec - inner:.3e} exceeds budget {tail_budget:.1e} x {e_spec:.3e}")
    return abs(ef - e_spec) / ef


def modulate(f: QSignal, r: float) -> QSignal:
    """Pointwise left multiplication by e^{i r x}; preserves |f| at every node."""
    x = f.ax_x.samples()
    ct = np.cos(r * x)[:, None]
    st = np.sin(r * x)[:, None]
    return f.with_values(qarr_left_mul_complex(ct, st, f.values))


def _sinc_factor(d, w_half):
    d = np.asarray(d, dtype=float)
    safe = np.where(np.abs(d) < 1e-14, 1.0, d)
    return np.where(np.abs(d) < 1e-14, w_half / np.pi, np.sin(w_half * safe) / (np.pi * safe))


def sinc_bandlimit_kernel(dx, dy, w_half: float):
    """Separable low-pass kernel sin(W dx)/(pi dx) * sin(W dy)/(pi dy)."""
    if not w_half > 0:
        raise BadParameters("band half-width must be > 0")
    return _sinc_factor(dx, w_half) * _sinc_factor(dy, w_half)


def mask_spectrum(spec: SpectrumQ, w_half: float) -> SpectrumQ:
    """Zero the spectrum (combined and components) outside the closed band square."""
    if w_half > min(spec.ax_u.stop, spec.ax_v.stop) * (1 + _SYM_TOL):
        raise WindowTooSmall("band exceeds the sampled frequency window")
    m = spec.band_mask(w_half)
    combined = spec.combined * m[..., None]
    comps = spec.components * m[None, ..., None]
    return SpectrumQ(spec.ax_u, spec.ax_v, combined, comps)
