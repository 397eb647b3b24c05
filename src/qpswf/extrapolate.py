"""Alternating-substitution extrapolation of bandlimited quaternion signals.

Given a band-limited signal observed only on a square D, the iteration
replaces the current iterate by the observation on D and band-limits the
result; the error contracts mode-by-mode with factor (1 - lambda_j) per
step.  pg_run writes it as one linear recursion on band coefficients: for
synthetic problems built from the eigenbasis on the band Gauss rule, where
the closed-form error law can be checked at full precision, and for
file-based problems on the dual-lattice bins inside the band.  In the
eigenframe of each axis's Hermitian step matrix the iterate after n steps is
the Landweber filter G (1 - (1 - lam)^n) / lam, evaluated in closed form.
The frame keeps only the modes whose eigenvalue eigh resolves from 0 (7 of
256 on the band Gauss rule at T = W = 1); the truth's content below that cut
is not iterated but carried as a fixed residual in E_n and sup_e.  A
synthetic truth is the basis's unit quaternion q times a real field, which
the run iterates as one component; its band-rule frame and kernels depend
only on the basis and are kept in the basis's ModeTables memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .concentration import band_limit, time_limit
from .errors import (BadParameters, ConvergenceFailure, GridMismatch, LengthMismatch,
                     WindowTooSmall)
from .grid import GridAxis, QSignal, Region, _axis_region_mask, energy, region_mask
from .prolate import BasisSet2D, band_kernel, band_rule, check_phase
from .qft import _band_bins, dual_frequency_axis
from .signals import ModalField, _analyse, _component_values, _energy


@dataclass(frozen=True)
class ExtrapolationProblem:
    """Band-limited extrapolation task: recover f from f restricted to D.

    observed is f on the grid, zero outside D = [-d, d]^2; truth, when known,
    is f on the same grid.  synthetic, set by make_synthetic_problem, is f as
    a combination of basis elements (a ModalField without cut terms, on a
    basis built for T = d and W); pg_run then iterates on the band Gauss rule.
    """

    observed: QSignal
    d_half: float
    w_half: float
    truth: QSignal = None
    synthetic: ModalField = field(default=None, repr=False)

    def __post_init__(self):
        if not self.w_half > 0:
            raise BadParameters("band half-width W must be > 0")
        obs = self.observed
        if not np.isfinite(obs.values).all():
            raise BadParameters("observation has non-finite samples")
        # D is the block of the rows in mx and the columns in my
        mx, my = (_axis_region_mask(ax, self.d_half) for ax in (obs.ax_x, obs.ax_y))
        if obs.values[~mx].any() or obs.values[mx][:, ~my].any():
            raise BadParameters("observation must vanish outside D")
        if self.truth is not None:
            if not obs.same_grid(self.truth):
                raise GridMismatch("truth and observation grids differ")
            scale = float(np.abs(self.truth.values).max())
            if not np.isfinite(scale):
                raise BadParameters("truth has non-finite samples")
            block = np.ix_(mx, my)
            gap = np.abs(self.truth.values[block] - obs.values[block]).max(initial=0.0)
            if gap > 1e-12 * (scale or 1.0):
                raise BadParameters("observation is not the truth restricted to D")
        if self.synthetic is not None:
            b = self.synthetic.tables.basis1d
            if abs(b.t_half - self.d_half) > 1e-12:
                raise BadParameters("synthetic truth requires a basis built on D")
            if abs(b.w_half - self.w_half) > 1e-12:
                raise BadParameters("synthetic truth requires a basis built for W")
            if self.synthetic.cut.any():
                raise BadParameters("synthetic truth must be band-limited (no cut terms)")


def make_synthetic_problem(basis: BasisSet2D, coeffs) -> ExtrapolationProblem:
    """Problem whose truth is f = sum_j coeffs[j] psi_j, observed on D = basis T.

    coeffs (1D) weight a prefix of the basis, else LengthMismatch.  The truth
    is kept as its ModalField (synthetic) and sampled on the basis grid (truth).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or len(coeffs) > len(basis):
        raise LengthMismatch("coefficients must be a prefix of the basis")
    synth = ModalField.of(basis, coeffs)
    truth_q = QSignal(basis.ax_x, basis.ax_y, synth.grid_values())
    observed = time_limit(truth_q, basis.t_half)
    return ExtrapolationProblem(observed=observed, d_half=basis.t_half,
                                w_half=basis.w_half, truth=truth_q, synthetic=synth)


@dataclass(frozen=True)
class TraceRow:
    n: int
    e_energy: float          # error energy, NaN when no truth is known
    sup_e: float             # max pointwise |error| over the probe nodes
    bound: float             # sqrt(sum w_u * sum w_v) / (2 pi) * sqrt(E_n) over the rule
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


def _lattice_rule(ax: GridAxis, w_half: float):
    """The dual-lattice bins inside the band: nodes k du, and the weights band_limit masks with."""
    ax_f = dual_frequency_axis(ax)
    bins = _band_bins(ax, ax_f, w_half)
    k = np.flatnonzero(bins)
    # a half-weight bin (the band edge on the window edge of an even-count
    # axis) would make band_limit no projection and the recursion inexact
    if w_half > ax_f.stop or not np.allclose(bins[k] / ax_f.step, 1.0):
        raise WindowTooSmall("band must lie inside the frequency window")
    return np.where(k > len(bins) // 2, k - len(bins), k) * ax_f.step, bins[k]


def _axis_frame(rule, s, w_s, inside):
    """One axis's step M = F diag(chi_D) E ~ V diag(lam) V^H: returns (V^H F, lam, V).

    E = band_kernel(s, u, w_u) evaluates at the points s and F = conj(E)^T
    diag(w_s) analyses there, so M = E^H diag(w_s chi_D) E is Hermitian.  Its
    entries sqrt(w_u w_u') sum_{s in D} w_s cos(s (u' - u)) / 2 pi are real when
    the rule and the points in D are symmetric about 0 (V is real then).
    V is n x r with orthonormal columns: the eigenpairs with
    lam > n eps lam_max for a rule of size n, the eigenvalues eigh resolves
    from 0 (its backward error is about n eps ||M||).  That keeps 7 of 256 on
    the band Gauss rule at T = W = 1 and all 3 per axis on the default
    257-point grid with d = 2, W = 1.
    """
    e = band_kernel(s, *rule)
    f = e.conj().T * w_s
    m = (f * inside) @ e
    if np.abs(m.imag).max() <= 1e-13 * np.abs(m.real).max():
        m = m.real
    if np.linalg.norm(m - m.conj().T) > 1e-13 * np.linalg.norm(m):
        raise BadParameters("the band step matrix is not Hermitian")
    try:
        lam, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"step matrix eigensolver failed: {exc}") from exc
    keep = lam > len(lam) * np.finfo(float).eps * lam.max()
    v = v[:, keep]
    return v.conj().T @ f, lam[keep], v


def _axis_kernels(points, rules) -> list:
    """band_kernel at each axis's points on its rule, built once when both axes share them."""
    first = band_kernel(points[0], *rules[0])
    shared = all(np.array_equal(a, b) for a, b in zip((points[0], *rules[0]),
                                                       (points[1], *rules[1])))
    return [first, first if shared else band_kernel(points[1], *rules[1])]


def _frame_kernels(points, rules, frame):
    """band_kernel E at each axis's points, and E V, the same folded into the frame."""
    full = _axis_kernels(points, rules)
    return full, [k @ v for k, v in zip(full, frame)]


def _landweber(lam):
    """n -> iterate gain (1 - (1 - lam)^n) / lam and update factor (1 - lam)^n, n = inf too.

    Below lam = 1/2 both come from n log1p(-lam), formed once; from 1/2 up
    1 - lam is exact and the plain power is used (log1p(-1) = -inf).
    """
    small = lam < 0.5
    log_decay = np.log1p(-np.minimum(lam, 0.5))

    def at(n):
        decay = np.where(small, np.exp(n * log_decay), (1.0 - lam) ** n)
        return np.where(small, -np.expm1(n * log_decay), 1.0 - decay) / lam, decay
    return at


def pg_run(problem: ExtrapolationProblem, max_steps: int = 500,
           stop_tol: float = 1e-10, compare_closed_form: bool = False) -> ExtrapolationTrace:
    """Run the iteration until the relative update drops below stop_tol.

    f <- f + B (g - T f) is the recursion spec <- spec + G - Mx spec My^T on
    f's band coefficients (signals' units, so each energy is a sum of
    squares).  In the eigenframe of the Hermitian step matrices,
    s = Vx^H spec conj(Vy), it is s <- s + Gs - Lam * s elementwise, so row n
    takes s_n = Gs (1 - (1 - Lam)^n) / Lam and the update Gs (1 - Lam)^(n-1)
    in closed form from _landweber, with no rounding carried between steps.
    The frame is folded into the kernels once (analysis V^H F, synthesis
    E V, mode tables band conj(V)).  V is n x r, the r modes _axis_frame
    resolves from 0, so a row works on r x r arrays.  Content below that cut
    is not iterated: there lam ~ 0 and the iteration would leave it in the
    error, so the truth's part outside the frame is computed once and
    carried as a fixed residual in E_n and in the probe values.  V's columns
    are orthonormal, so every in-frame energy is the same sum of squares.
    Synthetic problems take the band Gauss rule and the time Gauss nodes
    (all in D) and probe 81^2 points over [-3d, 3d]^2; the truth's band
    table, its (m, n) matrix psi and its quaternion q come from
    problem.synthetic, and cf_gap compares with the modal closed form
    psi * (1 - (1 - lam lam^T)^n) over the 1D eigenvalues lam (element
    phi_m(x) phi_n(y) contracts by 1 - lam_m lam_n per step).  The truth is
    q s for the real field s of psi, so the run carries s as one component:
    energies scale by |q|^2, norms and sup_e by |q|, and q multiplies the
    final grid.  The frame, the probe kernels and each grid's final kernels
    depend only on the basis, which keeps them (ModeTables.memo).  Others
    take the dual-lattice bins inside the band and the grid nodes, where
    the recursion is pg_step exactly, and probe the grid nodes.
    """
    if max_steps < 1:
        raise BadParameters("max_steps must be >= 1")
    grid, synth = problem.observed, problem.synthetic
    axes = (grid.ax_x, grid.ax_y)
    samples = [ax.samples() for ax in axes]
    if synth is not None:
        b1, memo = synth.tables.basis1d, synth.tables.memo
        reach = max(3 * problem.d_half, *(max(-ax.start, ax.stop) for ax in axes))
        check_phase(len(b1.nodes), (reach + problem.d_half) * problem.w_half, "the grid and probe")
        rules = [band_rule(b1)] * 2
        frames = [memo("band_frame",
                       lambda: _axis_frame(rules[0], b1.nodes, b1.weights, True))] * 2
    else:
        rules = [_lattice_rule(ax, problem.w_half) for ax in axes]
        frames = [_axis_frame(rule, x, ax.trapezoid_weights(),
                              _axis_region_mask(ax, problem.d_half))
                  for rule, x, ax in zip(rules, samples, axes)]
    analysis, (lam_x, lam_y), frame = zip(*frames)

    truth, residual, residual_energy, scale = None, 0.0, 0.0, 1.0
    if synth is not None:
        probe_x = [np.linspace(-3 * problem.d_half, 3 * problem.d_half, 81)] * 2
        probe_full, probe = memo(("probe", problem.d_half),
                                 lambda: _frame_kernels(probe_x, rules, frame))
        final = memo(("final", *axes), lambda: _frame_kernels(samples, rules, frame)[1])
        # the truth is q s, q the basis's quaternion and s the real field of psi
        # (no cut terms): s is iterated as one component and q applied to the final grid
        scale = synth.coeff.modulus()
        phi = b1.eigvecs[:len(synth.psi)]
        g = _analyse((phi.T @ synth.psi @ phi)[..., None], *analysis)
        band = synth.tables.band
        tables = [band @ v.conj() for v in frame]
        decay = 1.0 - synth.tables.lambda2d

        def modal_spectra(psi):
            """Eigenframe band coefficients of s for the (m, n) matrix psi."""
            return (tables[0].T @ psi @ tables[1])[None]

        truth = modal_spectra(synth.psi)
        # s - s_n = in-frame error + the fixed part of s outside the frame
        outside = (band.T @ synth.psi @ band)[None] - frame[0] @ truth @ frame[1].T
        residual = _component_values(outside, *probe_full)
        residual_energy = _energy(outside)
    else:
        probe = final = _frame_kernels(samples, rules, frame)[1]
        g = _analyse(grid.values, *analysis)
        if problem.truth is not None:
            # grid energy of truth - f_n = in-frame Parseval sum + the energy of the
            # truth's part outside the frame (out of band or below the cut)
            truth = _analyse(problem.truth.values, *analysis)
            residual = np.moveaxis(problem.truth.values, -1, 0) - _component_values(truth, *final)
            residual_energy = energy(grid.with_values(np.moveaxis(residual, 0, -1)))

    half_width = float(np.sqrt(rules[0][1].sum() * rules[1][1].sum()) / 2)
    landweber = _landweber(np.outer(lam_x, lam_y))
    decay_prev = 1.0  # (1 - Lam)^(n - 1)
    rows = []
    for n in range(1, max_steps + 1):
        gain, decay_n = landweber(n)
        spec = g * gain
        # delta is 0 when the update and the iterate both vanish, inf when only the iterate does
        update, norm = scale * _energy(g * decay_prev) ** 0.5, scale * _energy(spec) ** 0.5
        decay_prev = decay_n
        delta = update / norm if norm > 0 else (0.0 if update == 0 else float("inf"))
        e_n = sup_e = bound = cf_gap = float("nan")
        if truth is not None:
            err = truth - spec
            e_n = scale ** 2 * (_energy(err) + residual_energy)
            err_probe = _component_values(err, *probe) + residual
            sup_e = scale * float(np.sqrt(np.einsum("cij,cij->ij", err_probe, err_probe)).max())
            bound = pointwise_bound(e_n, half_width)
        if compare_closed_form and synth is not None:
            cf_gap = scale * _energy(spec - modal_spectra(synth.psi * (1.0 - decay ** n))) ** 0.5
        rows.append(TraceRow(n=n, e_energy=e_n, sup_e=sup_e, bound=bound,
                             delta=delta, cf_gap=cf_gap))
        if delta < stop_tol:
            break

    values = np.moveaxis(_component_values(spec, *final), 0, -1)
    if synth is not None:
        values = values * synth.coeff.as_array()
    return ExtrapolationTrace(rows=tuple(rows), final=grid.with_values(values),
                              converged=bool(delta < stop_tol))
