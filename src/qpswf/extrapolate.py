"""Alternating-substitution extrapolation of bandlimited quaternion signals.

Given a band-limited signal observed only on a square D, the iteration
replaces the current iterate by the observation on D and band-limits the
result; the error contracts mode-by-mode with factor (1 - lambda_j) per
step.  Synthetic problems built from the eigenbasis run on the band side,
where every step is a compact quadrature and the closed-form error law can
be checked at full precision; file-based problems run the same iteration
on grid signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .concentration import band_limit, time_limit
from .errors import BadParameters, GridMismatch, LengthMismatch
from .grid import QSignal, Region, energy, region_mask
from .prolate import BasisSet2D, _analysis_kernel, _synthesis_kernel
from .quaternion import qarr_modulus
from .signals import BandRep, ModalField, _component_values, band_rep_from_time_nodal


@dataclass(frozen=True)
class SyntheticTruth:
    """Truth in the span of basis elements: f = sum_j coeffs[j] psi_j."""

    basis: BasisSet2D
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or len(c) > len(self.basis):
            raise LengthMismatch("coefficients must be a prefix of the basis")
        object.__setattr__(self, "coeffs", c)

    def lambdas(self) -> np.ndarray:
        return self.basis.eigenvalues()[: len(self.coeffs)]

    @property
    def modal(self) -> ModalField:
        return ModalField.of(self.basis, self.coeffs)

    def band_spectra(self) -> np.ndarray:
        return self.modal.band_rep().spectra

    def gauss_values(self) -> np.ndarray:
        """Quaternion nodal values on the time Gauss grid."""
        return self.modal.nodal_values()


@dataclass(frozen=True)
class ExtrapolationProblem:
    """Band-limited extrapolation task: recover f from f restricted to D."""

    observed: QSignal
    d_half: float
    w_half: float
    truth: QSignal = None
    synthetic: SyntheticTruth = field(default=None, repr=False)

    def __post_init__(self):
        outside = ~region_mask(self.observed, Region.square(self.d_half))
        if np.any(self.observed.values[outside] != 0.0):
            raise BadParameters("observation must vanish outside D")
        if self.truth is not None:
            if not self.observed.same_grid(self.truth):
                raise GridMismatch("truth and observation grids differ")
            masked = self.truth.values * region_mask(
                self.truth, Region.square(self.d_half))[..., None]
            scale = float(np.abs(self.truth.values).max()) or 1.0
            if np.abs(masked - self.observed.values).max() > 1e-12 * scale:
                raise BadParameters("observation is not the truth restricted to D")
        if self.synthetic is not None:
            if abs(self.synthetic.basis.t_half - self.d_half) > 1e-12:
                raise BadParameters("synthetic truth requires a basis built on D")
            if abs(self.synthetic.basis.w_half - self.w_half) > 1e-12:
                raise BadParameters("synthetic truth requires a basis built for W")


def make_synthetic_problem(basis: BasisSet2D, coeffs) -> ExtrapolationProblem:
    """Problem whose truth is a basis combination, observed on D = basis T."""
    synth = SyntheticTruth(basis, np.asarray(coeffs, dtype=float))
    truth_q = QSignal(basis.ax_x, basis.ax_y, synth.modal.grid_values())
    observed = time_limit(truth_q, basis.t_half)
    return ExtrapolationProblem(observed=observed, d_half=basis.t_half,
                                w_half=basis.w_half, truth=truth_q, synthetic=synth)


@dataclass(frozen=True)
class TraceRow:
    n: int
    e_energy: float          # error energy, NaN when no truth is known
    sup_e: float             # max pointwise |error| over the probe nodes
    bound: float             # (W/pi) sqrt(E_n)
    delta: float             # ||f_n - f_{n-1}|| / ||f_n||
    cf_gap: float            # distance to the closed-form iterate (synthetic)


@dataclass(frozen=True)
class ExtrapolationTrace:
    rows: tuple
    final: QSignal
    converged: bool

    @property
    def steps(self) -> int:
        return len(self.rows)


def pg_step(g_obs: QSignal, f_prev: QSignal, d_half: float, w_half: float) -> QSignal:
    """One substitute-then-band-limit step on grid signals."""
    if not g_obs.same_grid(f_prev):
        raise GridMismatch("observation and iterate grids differ")
    inside = region_mask(g_obs, Region.square(d_half))[..., None]
    substituted = np.where(inside, g_obs.values, f_prev.values)
    return band_limit(g_obs.with_values(substituted), w_half)


def error_energy(coeffs, lambdas, n: int) -> float:
    """Closed-form error energy sum_j a_j^2 (1 - lambda_j)^(2n)."""
    a = np.asarray(coeffs, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if a.shape != lam.shape:
        raise LengthMismatch("coefficients and eigenvalues differ in length")
    return float(np.sum(a ** 2 * (1.0 - lam) ** (2 * n)))


def pointwise_bound(e_energy: float, w_half: float) -> float:
    """Pointwise error bound sqrt(W^2 E_n / pi^2) from the band-area estimate."""
    if e_energy < 0 or not w_half > 0:
        raise BadParameters("need E_n >= 0 and W > 0")
    return float(w_half / np.pi * np.sqrt(e_energy))


def closed_form_iterate(coeffs, lambdas, n: int, basis: BasisSet2D) -> QSignal:
    """Iterate assembled directly from the error law, as an oracle for pg_run."""
    a = np.asarray(coeffs, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if a.shape != lam.shape or len(a) > len(basis):
        raise LengthMismatch("coefficients must match a basis prefix")
    weights = a * (1.0 - (1.0 - lam) ** n)
    return QSignal(basis.ax_x, basis.ax_y, ModalField.of(basis, weights).grid_values())


def closed_form_band_spectra(coeffs, lambdas, n: int, basis: BasisSet2D) -> np.ndarray:
    a = np.asarray(coeffs, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    return ModalField.of(basis, a * (1.0 - (1.0 - lam) ** n)).band_rep().spectra


def _probe_axes(d_half: float) -> np.ndarray:
    return np.linspace(-3 * d_half, 3 * d_half, 81)


def pg_run(problem: ExtrapolationProblem, max_steps: int = 500,
           stop_tol: float = 1e-10, compare_closed_form: bool = False) -> ExtrapolationTrace:
    """Run the iteration until the relative update drops below stop_tol.

    Synthetic problems iterate on the band side (exact compact quadratures);
    others iterate on the grid.  When the truth is known each row carries
    the measured error energy, the probe-grid sup of the pointwise error,
    and the pointwise bound.
    """
    if max_steps < 1:
        raise BadParameters("max_steps must be >= 1")
    if problem.synthetic is not None:
        return _pg_run_band(problem, max_steps, stop_tol, compare_closed_form)
    return _pg_run_grid(problem, max_steps, stop_tol)


def _relative_update(update_norm, norm) -> float:
    """delta = ||f_n - f_{n-1}|| / ||f_n||: 0 when both vanish, inf when only f_n does."""
    if norm > 0:
        return float(update_norm / norm)
    return 0.0 if update_norm == 0 else float("inf")


def _real_planes(spectra: np.ndarray):
    """Writable views of the real and imaginary planes of each component spectrum."""
    for comp in spectra:
        yield comp.real
        yield comp.imag


def _band_step_matrix(basis1d) -> np.ndarray:
    """M = F E / 2 pi, the 1D factor of evaluating at the time nodes, then band-limiting.

    E S E^T / 4 pi^2 (E = exp(i s u) w_u) evaluates spectra at the time Gauss
    nodes s, and is real on the Hermitian spectra of real components; F =
    exp(-i u s) w_s band-limits nodal values.  So the composite on (4, Nb, Nb)
    spectra is S -> M S M^T.  M is real because the nodes and weights of the
    Gauss rule are symmetric: its entries are w_u' sum_s w_s cos(s (u' - u)).
    """
    fe = _analysis_kernel(basis1d) @ _synthesis_kernel(basis1d, basis1d.nodes) / (2 * np.pi)
    if np.abs(fe.imag).max() > 1e-13 * np.abs(fe.real).max():
        raise BadParameters("band-side step needs a symmetric time Gauss rule")
    return np.ascontiguousarray(fe.real)


def _pg_run_band(problem, max_steps, stop_tol, compare_closed_form):
    """Band-side iteration f <- f + B (g - T f); every time node lies in D.

    B T = M (x) M and B g are formed once, so each step is
    spec += B g - M spec M^T, applied to one real plane at a time.
    """
    synth = problem.synthetic
    basis = synth.basis
    b1 = basis.basis1d
    w_half = problem.w_half
    truth_spec = synth.band_spectra()
    probe = _synthesis_kernel(b1, _probe_axes(problem.d_half))
    step = _band_step_matrix(b1)
    limited_truth = band_rep_from_time_nodal(b1, synth.gauss_values()).spectra

    spec = np.zeros_like(truth_spec)
    correction = np.empty_like(spec)
    rows = []
    converged = False
    for n in range(1, max_steps + 1):
        for s, g, d in zip(_real_planes(spec), _real_planes(limited_truth),
                           _real_planes(correction)):
            np.subtract(g, step @ s @ step.T, out=d)
            s += d

        err = BandRep(b1, truth_spec - spec)
        e_n = err.total_energy()
        err_probe = np.moveaxis(_component_values(err.spectra, probe, probe), 0, -1)
        sup_e = float(qarr_modulus(err_probe).max())
        delta = _relative_update(np.sqrt(BandRep(b1, correction).total_energy()),
                                 np.sqrt(BandRep(b1, spec).total_energy()))
        cf_gap = float("nan")
        if compare_closed_form:
            cf = closed_form_band_spectra(synth.coeffs, synth.lambdas(), n, basis)
            cf_gap = float(np.sqrt(BandRep(b1, spec - cf).total_energy()))
        rows.append(TraceRow(n=n, e_energy=e_n, sup_e=sup_e,
                             bound=pointwise_bound(e_n, w_half),
                             delta=delta, cf_gap=cf_gap))
        if delta < stop_tol:
            converged = True
            break

    final = BandRep(b1, spec).to_qsignal(problem.observed.ax_x, problem.observed.ax_y)
    return ExtrapolationTrace(rows=tuple(rows), final=final, converged=converged)


def _pg_run_grid(problem, max_steps, stop_tol):
    f_n = QSignal.zeros(problem.observed.ax_x, problem.observed.ax_y)
    rows = []
    converged = False
    for n in range(1, max_steps + 1):
        f_next = pg_step(problem.observed, f_n, problem.d_half, problem.w_half)
        delta = _relative_update(
            np.sqrt(energy(f_next.with_values(f_next.values - f_n.values))), f_next.norm())
        e_n = float("nan")
        sup_e = float("nan")
        bound = float("nan")
        if problem.truth is not None:
            err = f_next.with_values(problem.truth.values - f_next.values)
            e_n = energy(err)
            sup_e = float(qarr_modulus(err.values).max())
            bound = pointwise_bound(e_n, problem.w_half)
        rows.append(TraceRow(n=n, e_energy=e_n, sup_e=sup_e, bound=bound,
                             delta=delta, cf_gap=float("nan")))
        f_n = f_next
        if delta < stop_tol:
            converged = True
            break
    return ExtrapolationTrace(rows=tuple(rows), final=f_n, converged=converged)
