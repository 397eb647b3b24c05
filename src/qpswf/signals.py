"""Band-side signal representations and deterministic test-signal generators.

A band-limited signal is represented by band coefficients
a = sqrt(w_u w_v) F / 2 pi of its four real components, with F their 2D
Fourier transforms on the band Gauss rule (u, w_u) x (v, w_v).  In these
units every global quantity is a plain sum over the band nodes: the energy
is sum |a|^2, an inner product is Re sum a conj(b), and values at any points
are E_x a E_y^T with the one kernel prolate.band_kernel.  These integrals of
entire functions over the band are exact to quadrature precision without
ever touching the slowly decaying spatial tails.  The band rule reuses the
time-side Gauss nodes mapped by u = (W/T) s, which lets eigenfunction
spectra be read from stored nodal values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadIndex, BadParameters, LengthMismatch
from .grid import GridAxis, QSignal, _axis_region_mask
from .prolate import (BasisSet2D, ModeTables, ProlateBasis1D, Qpswf2D, band_kernel,
                      band_rule)
from .qft import _SYM_TOL
from .quaternion import Quaternion, qarr_right_mul
from .rng import CounterRng

PSI = "psi"
CUT = "cut"  # time-limited cut D_T psi


def _analyse(values: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Band coefficients fx f_c fy^T of the real components of (Nx, Ny, C) point values.

    fx = conj(E_x)^T diag(w_x) analyses samples at the points x with weights w_x.
    """
    return np.stack([fx @ values[..., c] @ fy.T for c in range(values.shape[-1])])


def _component_values(coeffs: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Real component fields E_x a_c E_y^T at the points of two band kernels, one per a_c."""
    out = np.empty((len(coeffs), len(ex), len(ey)))
    for c in range(len(coeffs)):
        out[c] = (ex @ coeffs[c] @ ey.T).real
    return out


def _energy(coeffs: np.ndarray) -> float:
    """Energy sum |a|^2 of band coefficients: a sum of squares of a real view."""
    v = np.ascontiguousarray(coeffs, dtype=complex).reshape(-1).view(np.float64)
    return float(v @ v)


@dataclass(frozen=True)
class BandRep:
    """Band coefficients of a band-limited signal on the band Gauss rule.

    spectra has shape (4, Nb, Nb): a = sqrt(w_u w_v) F / 2 pi for the
    classical 2D Fourier transform F of each real component at the tensor
    band nodes.
    """

    basis1d: ProlateBasis1D
    spectra: np.ndarray

    def total_energy(self) -> float:
        """Whole-plane energy via the component Parseval identity."""
        return _energy(self.spectra)

    def component_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Real component fields at the tensor grid x (x) y, shape (4, len(x), len(y))."""
        rule = band_rule(self.basis1d)
        return _component_values(self.spectra, band_kernel(x, *rule), band_kernel(y, *rule))

    def time_energy(self) -> float:
        """Energy inside the time square by the time-side Gauss rule."""
        b = self.basis1d
        comp = self.component_values(b.nodes, b.nodes)
        dens = np.einsum("cij,cij->ij", comp, comp)
        return float(np.einsum("i,j,ij->", b.weights, b.weights, dens))


def band_rep_from_time_nodal(basis1d: ProlateBasis1D, nodal: np.ndarray) -> BandRep:
    """Band-limit a field supported on the time square.

    nodal holds quaternion values at the time Gauss nodes, shape (N, N, 4).
    The result is the exact band representation of the band-limited image of
    the quadrature measure carried by those nodes.
    """
    fb = band_kernel(basis1d.nodes, *band_rule(basis1d)).conj().T * basis1d.weights
    return BandRep(basis1d, _analyse(nodal, fb, fb))


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
    tables, the band side one of the band table and _band_psi.
    """

    tables: ModeTables
    coeff: Quaternion
    psi: np.ndarray             # (M, M) real
    cut: np.ndarray             # (M, M) real

    @classmethod
    def of(cls, basis: BasisSet2D, psi=(), cut=()) -> "ModalField":
        """sum_q psi[q] psi_q + sum_q cut[q] D_T psi_q over prefixes of the basis.

        psi and cut are 1D and no longer than the basis, else LengthMismatch.
        """
        mn = basis.modes
        mats = np.zeros((2,) + (len(basis.tables.band),) * 2)
        for mat, a in zip(mats, (psi, cut)):
            a = np.asarray(a, dtype=float)
            if a.ndim != 1 or len(a) > len(basis):
                raise LengthMismatch("coefficients must be a prefix of the basis")
            np.add.at(mat, tuple(mn[:len(a)].T), a)
        return cls(basis.tables, basis.coeff, *mats)

    @classmethod
    def of_terms(cls, basis: BasisSet2D, terms) -> "ModalField":
        """From (kind, element_index, real_coefficient) terms, kind PSI or CUT.

        An index outside [0, len(basis)) is BadIndex, any other kind BadParameters.
        """
        a = np.zeros((2, len(basis)))
        for kind, q, r in terms:
            if kind not in (PSI, CUT):
                raise BadParameters(f"term kind must be {PSI!r} or {CUT!r}, got {kind!r}")
            if not (isinstance(q, (int, np.integer)) and 0 <= q < len(basis)):
                raise BadIndex(f"element {q!r} not in basis of {len(basis)}")
            a[int(kind == CUT), q] += r
        return cls.of(basis, *a)

    def _band_psi(self) -> np.ndarray:
        """psi + lambda2d * cut, the band limit's modal matrix: B D_T phi_k = lambda_k phi_k."""
        return self.psi + self.tables.lambda2d * self.cut

    def band_rep(self) -> BandRep:
        t = self.tables
        return BandRep(t.basis1d, self.coeff.as_array()[:, None, None]
                       * (t.band.T @ self._band_psi() @ t.band))

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
    cb = np.conj(basis.tables.band)
    # <f_c, phi_a phi_b> = Re sum a_c conj(b_a (x) b_b) for every component c and row pair
    modal = (cb @ f.spectra @ cb.T).real
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
    the closed band square are zero.  Each component symmetrizes the band
    entries of normal draws over the whole grid, of which only the entries
    in the band square are evaluated.  Both axes must be symmetric about 0,
    else BadParameters: the reflection (u, v) -> (-u, -v) is then the index
    reversal.
    """
    for name, ax in (("u", ax_u), ("v", ax_v)):
        if abs(ax.start + ax.stop) > _SYM_TOL * ax.step:
            raise BadParameters(f"frequency {name} axis must be symmetric about 0")
    n = ax_u.count * ax_v.count
    # the band rows and columns with their mirror images: reversing them reflects the band block
    bu, bv = (np.abs(ax.samples()) <= w_half + 1e-12 for ax in (ax_u, ax_v))
    rows, cols = np.flatnonzero(bu | bu[::-1]), np.flatnonzero(bv | bv[::-1])
    idx = rows[:, None] * ax_v.count + cols[None, :]
    band = np.outer(bu[rows], bv[cols])
    out = np.zeros((4, ax_u.count, ax_v.count), dtype=complex)
    for c in range(4):
        raw = rng.normal_entries(n, idx) + 1j * rng.normal_entries(n, idx)
        raw *= band
        out[c][np.ix_(rows, cols)] = (raw + np.conj(raw[::-1, ::-1])) / 2
    return out


def gaussian_mixed_qsignal(ax_x: GridAxis, ax_y: GridAxis, rng: CounterRng,
                           t_half: float, w_half: float) -> QSignal:
    """Localized random signal with negligible spatial and spectral tails.

    A sum of a few Gaussian bumps with random quaternion amplitudes, mild
    modulations, centers inside the time square and widths well under the
    grid half-width, so grid quadrature measures its energy essentially
    exactly.  Each bump is a product of an x and a y factor, so the grid is
    the one product of the stacked factors.
    """
    x, y = ax_x.samples(), ax_y.samples()
    half = min(-ax_x.start, -ax_y.start)
    n_bumps = 2 + int(rng.uniform(1)[0] * 3)
    fx, fy = np.empty((n_bumps, ax_x.count)), np.empty((n_bumps, ax_y.count))
    amp = np.empty((n_bumps, 4))
    for b in range(n_bumps):
        # widths and centers keep the envelope below ~1e-8 at the grid edge,
        # so grid quadrature captures the energy to better than 1e-12
        cx, cy = (rng.uniform(2) * 2 - 1) * 0.5 * t_half
        sig = half * (0.10 + 0.05 * rng.uniform(1)[0])
        rx, ry = rng.uniform(2) * 3 * w_half
        phx, phy = rng.uniform(2) * 2 * np.pi
        amp[b] = rng.normal(4)
        fx[b] = np.exp(-(x - cx) ** 2 / (2 * sig ** 2)) * np.cos(rx * x + phx)
        fy[b] = np.exp(-(y - cy) ** 2 / (2 * sig ** 2)) * np.cos(ry * y + phy)
    vals = fx.T @ (fy[:, :, None] * amp[:, None, :]).reshape(n_bumps, -1)
    return QSignal(ax_x, ax_y, vals.reshape(ax_x.count, ax_y.count, 4))
