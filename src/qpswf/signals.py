"""Band-side signal representations and deterministic test-signal generators.

A band-limited signal is represented by the complex spectra of its four
real components sampled on a Gauss rule over the band square.  All global
quantities (whole-plane energy, expansion coefficients, pointwise values)
are integrals of entire functions over the band, so they are computed to
quadrature precision without ever touching the slowly decaying spatial
tails.  The band rule reuses the time-side Gauss nodes mapped by u = c s,
which lets eigenfunction spectra be evaluated from stored nodal values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridAxis, QSignal, _axis_region_mask
from .prolate import (BasisSet2D, ModeTables, ProlateBasis1D, Qpswf2D, _analysis_kernel,
                      _synthesis_kernel, band_rule)
from .quaternion import Quaternion, qarr_right_mul
from .rng import CounterRng

PSI = "psi"
CUT = "cut"  # time-limited cut D_T psi


@dataclass(frozen=True)
class BandRep:
    """Component spectra of a band-limited signal on the band Gauss rule.

    spectra has shape (4, Nb, Nb): complex values of the classical 2D
    Fourier transform of each real component at the tensor band nodes.
    """

    basis1d: ProlateBasis1D
    spectra: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return band_rule(self.basis1d)[1]

    def total_energy(self) -> float:
        """Whole-plane energy via the component Parseval identity."""
        w = self.weights
        dens = np.einsum("cij,cij->ij", self.spectra, np.conj(self.spectra)).real
        return float(np.einsum("i,j,ij->", w, w, dens) / (4 * np.pi ** 2))

    def component_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Real component fields at the tensor grid x (x) y, shape (4, len(x), len(y))."""
        b = self.basis1d
        return _component_values(self.spectra, _synthesis_kernel(b, x), _synthesis_kernel(b, y))

    def time_energy(self, t_half: float = None) -> float:
        """Energy inside the time square by the time-side Gauss rule."""
        b = self.basis1d
        if t_half is not None and abs(t_half - b.t_half) > 1e-12:
            raise ValueError("band representation is tied to the basis region")
        comp = self.component_values(b.nodes, b.nodes)
        dens = np.einsum("cij,cij->ij", comp, comp)
        return float(np.einsum("i,j,ij->", b.weights, b.weights, dens))


def band_rep_from_time_nodal(basis1d: ProlateBasis1D, nodal: np.ndarray) -> BandRep:
    """Band-limit a field supported on the time square.

    nodal holds quaternion values at the time Gauss nodes, shape (N, N, 4).
    The result is the exact band representation of the band-limited image of
    the quadrature measure carried by those nodes.
    """
    ker = _analysis_kernel(basis1d)
    spectra = np.empty((4,) + ker.shape, dtype=complex)
    for c in range(4):
        spectra[c] = ker @ nodal[..., c].astype(complex) @ ker.T
    return BandRep(basis1d, spectra)


def _component_values(spectra: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Real component fields from spectra and the synthesis kernels of two point sets."""
    out = np.empty((4, len(ex), len(ey)))
    for c in range(4):
        out[c] = (ex @ spectra[c] @ ey.T).real / (4 * np.pi ** 2)
    return out


# ---------------------------------------------------------------------------
# basis combinations in modal form


def _pair(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum a[i, j] b[k, l] g[i, k] g[j, l]: modal matrices under the Gram g (x) g."""
    return float(np.sum(a * (g @ b @ g)))


@dataclass(frozen=True)
class ModalField:
    """A combination of basis elements and their time-limited cuts.

    The field is coeff * sum_{a,b} (psi[a, b] phi_a(x) phi_b(y)
    + cut[a, b] D_T phi_a(x) phi_b(y)), with a and b 1D mode indices (rows
    of the mode tables), D_T the restriction to the time square and coeff
    the basis's unit quaternion.  Every quantity below is a product of 1D
    tables.
    """

    tables: ModeTables
    coeff: Quaternion
    psi: np.ndarray             # (M, M) real
    cut: np.ndarray             # (M, M) real

    @classmethod
    def of(cls, basis: BasisSet2D, psi=(), cut=()) -> "ModalField":
        """sum_q psi[q] psi_q + sum_q cut[q] D_T psi_q over prefixes of the basis."""
        mn = basis.modes
        mats = np.zeros((2,) + (len(basis.tables.band),) * 2)
        for mat, a in zip(mats, (psi, cut)):
            np.add.at(mat, tuple(mn[:len(a)].T), a)
        return cls(basis.tables, basis.coeff, *mats)

    @classmethod
    def of_terms(cls, basis: BasisSet2D, terms) -> "ModalField":
        """From (kind, element_index, real_coefficient) terms, kind PSI or CUT."""
        a = np.zeros((2, len(basis)))
        for kind, q, r in terms:
            a[int(kind == CUT), q] += r
        return cls.of(basis, *a)

    def band_rep(self) -> BandRep:
        t = self.tables
        s = t.band.T @ self.psi @ t.band + t.cut.T @ self.cut @ t.cut
        return BandRep(t.basis1d, self.coeff.as_array()[:, None, None] * s)

    def nodal_values(self) -> np.ndarray:
        """Quaternion values on the time Gauss grid (where cuts equal psi), shape (N, N, 4)."""
        phi = self.tables.basis1d.eigvecs[:len(self.psi)]
        return (phi.T @ (self.psi + self.cut) @ phi)[..., None] * self.coeff.as_array()

    def grid_values(self) -> np.ndarray:
        """Quaternion values on the basis grid, shape (Nx, Ny, 4)."""
        t = self.tables
        ex, ey = t.ext_x.astype(np.float64), t.ext_y.astype(np.float64)
        s = ex.T @ self.psi @ ey
        if self.cut.any():
            h = t.basis1d.t_half
            mask = np.outer(_axis_region_mask(t.ax_x, h), _axis_region_mask(t.ax_y, h))
            s = s + mask * (ex.T @ self.cut @ ey)
        return s[..., None] * self.coeff.as_array()

    def time_energy(self) -> float:
        return _pair(self.tables.gram_t, self.psi + self.cut, self.psi + self.cut)

    def total_energy(self) -> float:
        """Whole-plane energy; every pairing that involves a cut is a time-square one."""
        t = self.tables
        return _pair(t.gram_r, self.psi, self.psi) \
            + _pair(t.gram_t, self.cut, 2 * self.psi + self.cut)


def element_band_rep(psi: Qpswf2D) -> BandRep:
    """Exact band representation of a basis element."""
    p = np.zeros((len(psi.tables.band),) * 2)
    p[psi.m, psi.n] = 1.0
    return ModalField(psi.tables, psi.coeff, p, np.zeros_like(p)).band_rep()


def project_on_basis(f: BandRep, basis: BasisSet2D, count: int = None) -> np.ndarray:
    """Quaternion expansion coefficients <f, psi_q> for the leading elements."""
    count = len(basis) if count is None else min(count, len(basis))
    sw = np.conj(basis.tables.band) * f.weights[None, :]
    # <f_c, phi_a phi_b> for every component c and table-row pair (a, b)
    modal = (sw @ f.spectra @ sw.T).real / (4 * np.pi ** 2)
    m, n = basis.modes[:count].T
    # <f, coeff phi_m phi_n> = (sum_c <f_c, phi_m phi_n> e_c) conj(coeff)
    return qarr_right_mul(modal[:, m, n].T, basis.coeff.conj())


# ---------------------------------------------------------------------------
# deterministic signal corpora


def random_time_nodal(basis1d: ProlateBasis1D, rng: CounterRng) -> np.ndarray:
    """Quaternion white noise on the time Gauss grid (unit-scale entries)."""
    n = len(basis1d.nodes)
    return rng.normal_field((n, n, 4))


def random_bandlimited(basis1d: ProlateBasis1D, rng: CounterRng) -> BandRep:
    """Random genuinely band-limited signal: band-limit of time-square noise."""
    return band_rep_from_time_nodal(basis1d, random_time_nodal(basis1d, rng))


def random_bandlimited_grid_spectrum(ax_u: GridAxis, ax_v: GridAxis, w_half: float,
                                     rng: CounterRng) -> np.ndarray:
    """Random component spectra on a frequency grid, supported in the band.

    Returns shape (4, Mu, Mv) complex with the Hermitian symmetry
    G(-u, -v) = conj(G(u, v)) that real components require; entries outside
    the closed band square are zero.
    """
    u, v = ax_u.samples(), ax_v.samples()
    band = np.outer(np.abs(u) <= w_half + 1e-12, np.abs(v) <= w_half + 1e-12)
    out = np.empty((4, ax_u.count, ax_v.count), dtype=complex)
    for c in range(4):
        raw = rng.normal_field((ax_u.count, ax_v.count)) \
            + 1j * rng.normal_field((ax_u.count, ax_v.count))
        raw *= band
        out[c] = (raw + np.conj(raw[::-1, ::-1])) / 2
    return out


def gaussian_mixed_qsignal(ax_x: GridAxis, ax_y: GridAxis, rng: CounterRng,
                           t_half: float, w_half: float) -> QSignal:
    """Localized random signal with negligible spatial and spectral tails.

    A sum of a few Gaussian bumps with random quaternion amplitudes, mild
    modulations, centers inside the time square and widths well under the
    grid half-width, so grid quadrature measures its energy essentially
    exactly.
    """
    x = ax_x.samples()[:, None]
    y = ax_y.samples()[None, :]
    half = min(-ax_x.start, -ax_y.start)
    vals = np.zeros((ax_x.count, ax_y.count, 4))
    n_bumps = 2 + int(rng.uniform(1)[0] * 3)
    for _ in range(n_bumps):
        # widths and centers keep the envelope below ~1e-8 at the grid edge,
        # so grid quadrature captures the energy to better than 1e-12
        cx, cy = (rng.uniform(2) * 2 - 1) * 0.5 * t_half
        sig = half * (0.10 + 0.05 * rng.uniform(1)[0])
        rx, ry = rng.uniform(2) * 3 * w_half
        phx, phy = rng.uniform(2) * 2 * np.pi
        amp = rng.normal(4)
        env = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sig ** 2))
        carrier = np.cos(rx * x + phx) * np.cos(ry * y + phy)
        vals += env[..., None] * carrier[..., None] * amp[None, None, :]
    return QSignal(ax_x, ax_y, vals)
