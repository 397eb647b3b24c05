"""Two-sided quaternionic Fourier transform on sampled grids.

Both directions split q = A + B j (A, B complex in i) and run standard
complex DFTs: trapezoid quadratures of the continuous integrals (with their
1/2pi factors), evaluated by FFT on the dual lattice.  A spatial step h and
a frequency step du are accepted when h * du * L = 2*pi for an integer L,
as for every axis dual_frequency_axis makes (any odd count, from odd or
even grids); other axes raise NonUniformGrid.  With du = 2*pi / (x-span)
the sampled kernels are discretely orthogonal: roundtrips and the Q-modulus
Parseval identity hold to rounding for signals whose spectra live strictly
inside the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, NonUniformGrid, WindowTooSmall, ZeroSignal
from .grid import GridAxis, QSignal, Region, _row_blocks, energy
from .quaternion import qarr, qarr_modulus_sq, qarr_mul

_SYM_TOL = 1e-9
_LATTICE_TOL = 1e-12  # relative distance of 2*pi/(step product) from an integer
_TAIL_BUDGET = 1e-10  # parseval_check: largest spectral energy fraction outside 0.8 x the window


def _check_symmetric(ax: GridAxis, name: str):
    if abs(ax.start + ax.stop) > _SYM_TOL * ax.step:
        raise NonUniformGrid(f"{name} axis must be symmetric about 0")


def _parity_part(z: np.ndarray, p: int, ax_u: GridAxis, ax_v: GridAxis) -> np.ndarray:
    """The part of z(u, v) of parity p (bit 0: odd in u, bit 1: odd in v), by reflection."""
    _check_symmetric(ax_u, "frequency u")
    _check_symmetric(ax_v, "frequency v")
    h = z - z[::-1] if p & 1 else z + z[::-1]
    return (h - h[:, ::-1] if p & 2 else h + h[:, ::-1]) / 4


@dataclass(frozen=True)
class SpectrumQ:
    """Two-sided QFT combined = F(f) = F(f0) + i F(f1) + F(f2) j + i F(f3) j.

    Part p of F(f_c) has parity p (see _parity_part); i on the left and j on
    the right only permute and sign parts, so component(c) recovers F(f_c).
    """

    ax_u: GridAxis
    ax_v: GridAxis
    combined: np.ndarray

    def __post_init__(self):
        if self.combined.shape != (self.ax_u.count, self.ax_v.count, 4):
            raise BadParameters("combined has wrong shape")

    def component(self, c: int) -> np.ndarray:
        """F(f_c): part p is (-1)^popcount(c & p) times the parity-p part of part c ^ p of F(f)."""
        out = np.empty_like(self.combined)
        for p in range(4):
            sign = -1 if bin(c & p).count("1") % 2 else 1
            out[..., p] = sign * _parity_part(self.combined[..., c ^ p], p, self.ax_u, self.ax_v)
        return out

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
    """Sum the samples along axis into n periodic bins (index mod n), in place.

    Returns the first n samples along axis, a view of z that holds the bins
    (z is overwritten); an axis shorter than n is zero-padded into a new array.
    """
    m = z.shape[axis]
    if m < n:
        pad = [(0, 0)] * z.ndim
        pad[axis] = (0, n - m)
        return np.pad(z, pad)
    lead = (slice(None),) * (axis % z.ndim)
    for k in range(n, m, n):
        z[lead + (slice(0, min(n, m - k)),)] += z[lead + (slice(k, k + n),)]
    return z[lead + (slice(0, n),)]


def _lattice(src: GridAxis, dst: GridAxis, s: int):
    """(n, pre, bins, post): sum_a w_a z_a e^{s i s_a t_b} is post_b times bin bins_b of the
    n-point FFT of w pre z folded mod n.

    With ds dt n = 2*pi and t0 = k0 dt + r (k0 an integer),
    s_a t_b = s0 t_b + a ds r + 2*pi a (k0 + b) / n: the a-phase pre goes on the
    samples, which fold mod n (the half-weight ends of a dual axis share a
    bin), the FFT bin -s (k0 + b) mod n supplies 2*pi a (k0 + b) / n, and the
    s0 t_b phase post goes on the gathered bins.  pre is None when dst starts
    on its step lattice (r = 0, as every symmetric odd axis does).
    """
    n = _lattice_length(src, dst)
    k0 = round(dst.start / dst.step)
    r = dst.start - k0 * dst.step
    pre = np.exp(s * 1j * src.step * r * np.arange(src.count)) if r else None
    bins = -s * (k0 + np.arange(dst.count)) % n
    return n, pre, bins, np.exp(s * 1j * src.start * dst.samples())


def _band_bins(ax: GridAxis, ax_f: GridAxis, w_half: float) -> np.ndarray:
    """Weights of the band |u| <= w_half on ax_f in the FFT bins of ax (bin k: u = k du)."""
    _check_symmetric(ax_f, "frequency")
    keep = np.abs(ax_f.samples()) <= w_half + _SYM_TOL * ax_f.step
    bins = _fold(ax_f.trapezoid_weights() * keep, _lattice_length(ax, ax_f))
    return np.roll(bins, -(ax_f.count // 2))


def _blocks(n: int):
    """Slices of range(n) of isqrt(n) rows each, the four-step FFT's balanced split: a block's
    temporaries are about 1/sqrt(n) of the bins the transform keeps."""
    return _row_blocks(n, 1, math.isqrt(n))


def _combine(out: np.ndarray, u: np.ndarray, v: np.ndarray, sign: int) -> np.ndarray:
    """out = X + Y j with X = u + v and Y = -s i (u - v); u is overwritten.

    With p and m the e^{+ivy} and e^{-ivy} sums of A and of B, u = pA + s i pB
    and v = mA - s i mB give X = (pA + mA) + s i (pB - mB) and
    Y = (pB + mB) - s i (pA - mA): with cos = (p + m) / 2 and sin = (p - m) / 2i,
    twice (A cos - s B sin) + (s A sin + B cos) j.
    """
    x, y = np.moveaxis(out.view(np.complex128), -1, 0)
    np.add(u, v, out=x)
    u -= v
    np.multiply(u, -sign * 1j, out=y)
    return out


def _two_sided(read, src_x: GridAxis, src_y: GridAxis, dst_x: GridAxis, dst_y: GridAxis,
               sign: int, out: np.ndarray = None):
    """(1/2pi) sum w_x w_y e^{s i x u} q(x, y) e^{s j y v} over the src grid, on the dst grid.

    q = A + B j with A = q0 + i q1, B = q2 + i q3: e^{s i x u} commutes with A
    and B, and e^{s j v y} = cos + s j sin needs the e^{+ivy} sums of
    A + s i B and the e^{-ivy} sums of A - s i B (u and v of _combine).  The
    source comes through read(rows), open_qgrid's reader, a block of x-rows at
    a time.  The y-pass FFTs each block's two sums and keeps their bins, already
    gathered into the output columns and phased: two complex arrays the size of
    the samples, and all that is kept.  The x-pass then runs along their axis 0
    in place; this is Bailey's four-step FFT on each sum.  Returns an iterator
    of the output's x-row blocks, each gathered, phased and combined as it is
    drawn (into out's rows when out is given); the whole source has been read
    and transformed before it returns.
    """
    n_x, pre_x, bins_x, post_x = _lattice(src_x, dst_x, sign)
    ys = [_lattice(src_y, dst_y, s) for s in (1, -1)]
    nx, m = src_x.count, src_y.count
    kept = [np.empty((max(nx, n_x), dst_y.count), complex) for _ in ys]
    for rows in _blocks(nx):
        q = np.ascontiguousarray(read(rows.stop - rows.start), dtype=np.float64)
        for (n, pre, bins, post), s, keep in zip(ys, (sign, -sign), kept):
            # A + s i B = (q0 - s q3) + i (q1 + s q2), the trapezoid weights over the
            # steps put on the end columns only
            add, sub = (np.add, np.subtract) if s > 0 else (np.subtract, np.add)
            z = np.empty((len(q), m), complex)
            sub(q[..., 0], q[..., 3], out=z.real)
            add(q[..., 1], q[..., 2], out=z.imag)
            if pre is not None:
                z *= pre
            z[:, 0] *= 0.5
            z[:, m - 1] *= 0.5
            z = _fold(z, n, 1)
            np.fft.fft(z, axis=1, out=z)
            np.take(z, bins, axis=1, out=keep[rows], mode="wrap")
            keep[rows] *= post
    for z in kept:
        z[nx:] = 0
        if pre_x is not None:
            z[:nx] *= pre_x[:, None]
        z[0] *= 0.5
        z[nx - 1] *= 0.5
        z = _fold(z, n_x, 0)
        np.fft.fft(z, axis=0, out=z)
    post_x = (post_x * (src_x.step * src_y.step / (4 * np.pi)))[:, None]

    def blocks():
        for rows in _blocks(dst_x.count):
            u, v = (np.take(z, bins_x[rows], axis=0) for z in kept)
            u *= post_x[rows]
            v *= post_x[rows]
            block = np.empty((len(u), dst_y.count, 4)) if out is None else out[rows]
            yield _combine(block, u, v, sign)

    return blocks()


def _in_memory(values: np.ndarray, src_x: GridAxis, src_y: GridAxis, dst_x: GridAxis,
               dst_y: GridAxis, sign: int) -> np.ndarray:
    """_two_sided of an array in memory: its rows read as views, its output one array."""
    out = np.empty((dst_x.count, dst_y.count, 4))
    start = 0

    def read(rows):
        nonlocal start
        start += rows
        return values[start - rows:start]

    for _ in _two_sided(read, src_x, src_y, dst_x, dst_y, sign, out):
        pass
    return out


def forward_qft(f: QSignal, ax_u: GridAxis, ax_v: GridAxis) -> SpectrumQ:
    """Two-sided QFT with kernel e^{-iux} (left), e^{-jvy} (right), factor 1/2pi."""
    return SpectrumQ(ax_u, ax_v, _in_memory(f.values, f.ax_x, f.ax_y, ax_u, ax_v, -1))


def spectrum_from_complex_components(ax_u: GridAxis, ax_v: GridAxis,
                                     g: np.ndarray) -> SpectrumQ:
    """Build a SpectrumQ from complex classical spectra of the four components.

    g has shape (4, Mu, Mv): values of integral f_c e^{-i(ux+vy)} dx dy for
    each real component.  Hermitian symmetry g(-u,-v) = conj g(u,v) is
    required for the components to describe real fields; the v axis must be
    symmetric about 0.  g0 + i g1 and g2 + i g3 are the e^{-ivy} sums of A
    and B, and their e^{+ivy} sums are the same reversed in v.
    """
    _check_symmetric(ax_v, "frequency v")
    g = np.asarray(g, dtype=complex)
    a, b = g[0] + 1j * g[1], 1j * (g[2] + 1j * g[3])
    out = _combine(np.empty(g.shape[1:] + (4,)), (a - b)[:, ::-1], a + b, -1)
    out /= 4 * np.pi
    return SpectrumQ(ax_u, ax_v, out)


def inverse_qft(spec: SpectrumQ, ax_x: GridAxis, ax_y: GridAxis) -> QSignal:
    """Inverse two-sided QFT: kernel e^{+iux} (left), e^{+jvy} (right), factor 1/2pi."""
    return QSignal(ax_x, ax_y, _in_memory(spec.combined, spec.ax_u, spec.ax_v, ax_x, ax_y, +1))


def q_modulus_field(spec: SpectrumQ) -> np.ndarray:
    """Pointwise sum_c |F(f_c)|^2: the mean of |F(f)|^2 over (+-u, +-v), as parities cancel."""
    return _parity_part(qarr_modulus_sq(spec.combined), 0, spec.ax_u, spec.ax_v)


def spectral_energy(spec: SpectrumQ, w_half: float = None) -> float:
    """Trapezoid quadrature of the Q-modulus density, optionally masked to |u|,|v| <= w_half."""
    q = q_modulus_field(spec)
    w2 = np.outer(spec.ax_u.trapezoid_weights(), spec.ax_v.trapezoid_weights())
    if w_half is not None:
        w2 = w2 * spec.band_mask(w_half)
    return float(np.einsum("ij,ij->", w2, q))


def parseval_check(f: QSignal) -> float:
    """Relative discrepancy between grid energy and spectral Q-modulus energy.

    The frequency window must capture the spectrum: the Q-modulus energy
    outside |u| <= 0.8 u_stop, |v| <= 0.8 v_stop is required to stay below
    _TAIL_BUDGET (1e-10) of the total, otherwise WindowTooSmall is raised.
    """
    ef = energy(f, Region.full())
    if ef <= 0:
        raise ZeroSignal("parseval_check requires a nonzero signal")
    axes = dual_frequency_axes(f)
    q = q_modulus_field(forward_qft(f, *axes))
    wu, wv = (ax.trapezoid_weights() for ax in axes)
    e_spec = float(wu @ q @ wv)
    iu, iv = (np.abs(ax.samples()) <= 0.8 * ax.stop for ax in axes)
    inner = float((wu * iu) @ q @ (wv * iv))
    if e_spec - inner > _TAIL_BUDGET * e_spec:
        raise WindowTooSmall(
            f"spectral tail {e_spec - inner:.3e} exceeds budget {_TAIL_BUDGET:.1e} x {e_spec:.3e}")
    return abs(ef - e_spec) / ef


def modulate(f: QSignal, r: float) -> QSignal:
    """Pointwise left multiplication by e^{i r x}; preserves |f| at every node."""
    rx = r * f.ax_x.samples()[:, None]
    return f.with_values(qarr_mul(qarr(np.cos(rx), np.sin(rx)), f.values))


def mask_spectrum(spec: SpectrumQ, w_half: float) -> SpectrumQ:
    """Zero the spectrum outside the closed band square."""
    if w_half > min(spec.ax_u.stop, spec.ax_v.stop) * (1 + _SYM_TOL):
        raise WindowTooSmall("band exceeds the sampled frequency window")
    return SpectrumQ(spec.ax_u, spec.ax_v, spec.combined * spec.band_mask(w_half)[..., None])
