"""Time/band limiting operators, energy ratios, and concentration extremals.

The admissible region for the pair (time ratio xi, band ratio eta_Q) of a
unit-energy signal is bounded by arccos(xi) + arccos(eta_Q) >= arccos of
sqrt(lambda_0); the constructions here realize the boundary and the
degenerate edges of that region.

Extremal signals are returned as ComboSignal, a signals.ModalField (a
combination of basis elements and their time-limited cuts) that reports
its own energy ratios: energies are traces of the 1D time-square and
whole-line Grams, the band one that of the field's band limit, which
sidesteps the O(1/X) spatial tails that grid windows cannot capture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BadIndex, NoAdmissibleIndex, WindowTooSmall,
                     XiOutOfRange, ZeroSignal)
from .grid import GridAxis, QSignal, Region, energy, region_mask
from .prolate import BasisSet2D, band_kernel, band_rule
from .qft import _band_bins, _fold, dual_frequency_axes
from .signals import (CUT, PSI, BandRep, ModalField, _analyse, _energy, _pair,
                      band_rep_from_time_nodal)


def time_limit(f: QSignal, t_half: float) -> QSignal:
    """Multiply by the indicator of the closed time square (idempotent)."""
    mask = region_mask(f, Region.square(t_half))
    return f.with_values(f.values * mask[..., None])


def band_limit(f: QSignal, w_half: float, ax_u: GridAxis = None,
               ax_v: GridAxis = None) -> QSignal:
    """Project onto the band square: inverse_qft(mask_spectrum(forward_qft(f))).

    The square is even in u and v (symmetric axes), so the quaternion mixing
    cancels: one real FFT low-pass per component, masked in dual-lattice bins.
    """
    if ax_u is None or ax_v is None:
        ax_u, ax_v = dual_frequency_axes(f)
    if w_half > min(ax_u.stop, ax_v.stop):
        raise WindowTooSmall("band exceeds the available frequency window")
    mu, mv = _band_bins(f.ax_x, ax_u, w_half), _band_bins(f.ax_y, ax_v, w_half)
    w = np.outer(f.ax_x.trapezoid_weights(), f.ax_y.trapezoid_weights()) / (4 * np.pi ** 2)
    bins = _fold(_fold(f.values * w[..., None], len(mu), 0), len(mv), 1)
    spec = np.fft.rfft2(bins, axes=(0, 1)) * np.outer(mu, mv[:len(mv) // 2 + 1])[..., None]
    bins = np.fft.irfft2(spec, s=bins.shape[:2], axes=(0, 1), norm="forward")
    return f.with_values(bins[np.ix_(np.arange(f.ax_x.count) % len(mu),
                                     np.arange(f.ax_y.count) % len(mv))])


@dataclass(frozen=True)
class EnergyReport:
    """Energy ratios of a unit-energy signal and its distance to the bound."""

    xi: float
    eta_q: float
    lambda0: float
    angle_sum_deficit: float

    def as_dict(self) -> dict:
        return {"xi": self.xi, "eta_q": self.eta_q, "lambda0": self.lambda0,
                "angle_sum_deficit": self.angle_sum_deficit}


def _report(e_time: float, e_band: float, e_total: float, lam0: float) -> EnergyReport:
    """Report from a signal's energies on the time square, on the band and in total."""
    if e_total <= 0:
        raise ZeroSignal("energy_ratios requires a nonzero signal")
    xi = float(np.clip(np.sqrt(e_time / e_total), 0.0, 1.0))
    eta = float(np.clip(np.sqrt(e_band / e_total), 0.0, 1.0))
    deficit = float(np.arccos(xi) + np.arccos(eta) - np.arccos(np.sqrt(lam0)))
    return EnergyReport(xi=xi, eta_q=eta, lambda0=lam0, angle_sum_deficit=deficit)


class ComboSignal(ModalField):
    """A ModalField that reports its energy ratios against its own basis."""

    def report(self) -> EnergyReport:
        """The band energy is the whole-line energy of the band limit, _band_psi under the
        Gram gram_r; like the time and total energies it carries no |coeff|^2."""
        p = self._band_psi()
        return _report(self.time_energy(), _pair(self.tables.gram_r, p, p),
                       self.total_energy(), float(self.tables.lambda2d[0, 0]))


def energy_ratios(f: QSignal, basis: BasisSet2D) -> EnergyReport:
    """Energy ratio report for a grid signal against the basis's (T, W).

    The time ratio uses the region-restricted trapezoid rule, so +-T must be
    grid nodes (RegionOutOfGrid otherwise), and the band ratio integrates the
    Q-modulus density over the band with the basis's band Gauss rule; total
    energy is the grid energy, which is accurate when the signal has
    negligible mass at the grid edge.  lambda_0 is the basis's leading 2D
    eigenvalue.  Extremal constructions report through ComboSignal.report
    instead.
    """
    e_total = energy(f, Region.full())
    e_time = energy(f, Region.square(basis.t_half))
    rule = band_rule(basis.basis1d)
    fx, fy = (band_kernel(ax.samples(), *rule).conj().T * ax.trapezoid_weights()
              for ax in (f.ax_x, f.ax_y))
    return _report(e_time, _energy(_analyse(f.values, fx, fy)), e_total, basis.lambda0)


def energy_ratios_band(f: BandRep, basis: BasisSet2D) -> EnergyReport:
    """Report for an exactly band-limited signal given on the band side."""
    e_total = f.total_energy()
    return _report(f.time_energy(), e_total, e_total, basis.lambda0)


def energy_ratios_time_nodal(nodal: np.ndarray, basis: BasisSet2D) -> EnergyReport:
    """Report for a time-limited signal given at the time Gauss nodes."""
    b = basis.basis1d
    dens = np.einsum("ijc,ijc->ij", nodal, nodal)
    e_total = float(np.einsum("i,j,ij->", b.weights, b.weights, dens))
    return _report(e_total, band_rep_from_time_nodal(b, nodal).total_energy(), e_total,
                   basis.lambda0)


def least_angle_check(basis: BasisSet2D) -> tuple[float, float]:
    """Theoretical least angle arccos sqrt(lambda_0) vs the measured one.

    The measured angle between psi_0 and its time cut reduces to
    arccos sqrt(time energy of psi_0), so the comparison pits the time-side
    quadrature against the eigensolver's lambda_0.
    """
    theoretical = float(np.arccos(np.sqrt(basis.lambda0)))
    psi0 = ModalField.of(basis, [1.0])
    achieved = float(np.arccos(np.sqrt(psi0.time_energy() / psi0.total_energy())))
    return theoretical, achieved


def build_boundary_signal(xi: float, basis: BasisSet2D) -> ComboSignal:
    """Unit-energy signal attaining the angle-sum bound at the given xi."""
    lam0 = basis.lambda0
    if not (np.sqrt(lam0) <= xi < 1.0):
        raise XiOutOfRange(f"xi must lie in [sqrt(lambda0), 1) = [{np.sqrt(lam0):.6f}, 1)")
    p = np.sqrt((1 - xi ** 2) / (1 - lam0))
    q = xi / np.sqrt(lam0) - p
    return ComboSignal.of_terms(basis, [(PSI, 0, float(p)), (CUT, 0, float(q))])


def build_zero_xi_signal(n_index: int, basis: BasisSet2D) -> ComboSignal:
    """Unit-energy signal vanishing on the time square, from one element.

    Requires an element of even parity along both axes; its band ratio then
    satisfies eta^2 = 1 - lambda.
    """
    if not 0 <= n_index < len(basis):
        raise BadIndex(f"element {n_index} not in basis")
    el = basis[n_index]
    if el.m % 2 != 0 or el.n % 2 != 0:
        raise BadIndex(f"element ({el.m}, {el.n}) is not even in both axes")
    if not el.lambda2d < 1.0:
        raise BadIndex("eigenvalue must be < 1")
    s = 1.0 / np.sqrt(1.0 - el.lambda2d)
    return ComboSignal.of_terms(basis, [(PSI, n_index, s), (CUT, n_index, -s)])


def build_eta_one_signal(xi: float, basis: BasisSet2D, n_index: int = None) -> ComboSignal:
    """Band-limited unit-energy signal with the requested time ratio.

    Mixes psi_0 with a smaller-eigenvalue element so that eta_Q = 1 while
    xi takes any value in (0, sqrt(lambda_0)).
    """
    lam0 = basis.lambda0
    if not (0.0 < xi < np.sqrt(lam0)):
        raise XiOutOfRange(f"xi must lie in (0, sqrt(lambda0)) = (0, {np.sqrt(lam0):.6f})")
    if n_index is None:
        for q in range(1, len(basis)):
            if basis[q].lambda2d < xi ** 2:
                n_index = q
                break
        else:
            raise NoAdmissibleIndex(f"no element with lambda < xi^2 = {xi ** 2:.3e}")
    elif not 0 <= n_index < len(basis):
        raise BadIndex(f"element {n_index} not in basis")
    lam_n = basis[n_index].lambda2d
    if not lam_n < xi ** 2:
        raise NoAdmissibleIndex(f"element {n_index} has lambda = {lam_n:.3e} >= xi^2")
    a0 = np.sqrt((xi ** 2 - lam_n) / (lam0 - lam_n))
    an = np.sqrt((lam0 - xi ** 2) / (lam0 - lam_n))
    return ComboSignal.of_terms(basis, [(PSI, 0, float(a0)), (PSI, n_index, float(an))])


def boundary_eta(xi: float, lam0: float) -> float:
    """Boundary curve eta(xi) = cos(arccos sqrt(lambda0) - arccos xi)."""
    return float(np.cos(np.arccos(np.sqrt(lam0)) - np.arccos(xi)))


@dataclass(frozen=True)
class SweepResult:
    curve: list          # (xi, eta) samples of the theoretical boundary
    points: list         # per-construction EnergyReport dicts with a source tag


def sweep_admissible_region(basis: BasisSet2D) -> SweepResult:
    """Boundary curve (200 samples) plus measured reports of the extremal constructions,
    the boundary ones at 10 xi from sqrt(lambda0) to 90% of the way to 1."""
    lam0 = basis.lambda0
    s0 = np.sqrt(lam0)
    curve = [(float(x), boundary_eta(float(x), lam0)) for x in np.linspace(s0, 1.0, 200)]

    points = []
    for xi in [x for x in np.linspace(s0, s0 + 0.9 * (1.0 - s0), 10) if s0 <= x < 1.0]:
        rep = build_boundary_signal(float(xi), basis).report()
        points.append({"source": "boundary", **rep.as_dict()})
    rep = ComboSignal.of(basis, [1.0]).report()
    points.append({"source": "psi0", **rep.as_dict()})
    for q in range(len(basis)):
        el = basis[q]
        if el.m % 2 == 0 and el.n % 2 == 0 and q > 0 and el.lambda2d < 1.0:
            points.append({"source": f"zero_xi_{q}",
                           **build_zero_xi_signal(q, basis).report().as_dict()})
            break
    return SweepResult(curve=curve, points=points)
