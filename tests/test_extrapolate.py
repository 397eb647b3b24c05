import dataclasses
import tracemalloc

import numpy as np
import pytest

import qpswf.concentration as concentration
import qpswf.extrapolate as extrapolate
from qpswf.concentration import band_limit, time_limit
from qpswf.errors import (BadParameters, ConvergenceFailure, GridMismatch, LengthMismatch,
                          WindowTooSmall)
from qpswf.extrapolate import (ExtrapolationProblem, _axis_frame, _band_frame, _frame_kernels,
                               _landweber, _lattice_rule, _split_by_frame,
                               closed_form_band_spectra, closed_form_iterate,
                               error_energy, make_synthetic_problem, pg_run, pg_step,
                               pointwise_bound)
from qpswf.grid import GridAxis, QSignal, energy
from qpswf.prolate import band_kernel, band_rule, build_basis, build_qpswf_basis
from qpswf.qft import (dual_frequency_axes, dual_frequency_axis, inverse_qft,
                       spectrum_from_complex_components)
from qpswf.quaternion import Quaternion, qarr_modulus
from qpswf.rng import CounterRng
from qpswf.signals import (ModalField, gaussian_mixed_qsignal,
                           random_bandlimited_grid_spectrum)

AX = GridAxis.symmetric(4.0, 129)
# nodes -4.05 + k/16: those in D = [-0.95, 0.95] are not symmetric about 0,
# so this axis has a complex step matrix
OFFSET_AX = GridAxis(-4.05, 1 / 16, 129)
# step 1/4, so its dual lattice has 21 bins in |u| <= 2 and few of them are
# concentrated in D = [-0.5, 0.5]
SUB_CUT_AX = GridAxis.symmetric(16.0, 129)


def _grid_truth(seed, ax_x=AX, ax_y=AX, w_half=1.0):
    ax_u, ax_v = dual_frequency_axes(QSignal.zeros(ax_x, ax_y))
    g = random_bandlimited_grid_spectrum(ax_u, ax_v, w_half, CounterRng(seed))
    return inverse_qft(spectrum_from_complex_components(ax_u, ax_v, g), ax_x, ax_y)


def test_pg_step_fixed_point():
    truth = _grid_truth(51)
    obs = time_limit(truth, 1.0)
    f1 = pg_step(obs, truth, 1.0, 1.0)
    assert np.abs(f1.values - truth.values).max() <= 1e-8 * np.abs(truth.values).max()


def test_pg_step_zero_observation():
    zero = QSignal.zeros(AX, AX)
    f = zero
    for _ in range(3):
        f = pg_step(zero, f, 1.0, 1.0)
        assert np.all(f.values == 0.0)


def test_zero_truth_converges_at_step_one(basis36):
    # both paths: an update and an iterate that are both zero give delta 0
    zero = QSignal.zeros(AX, AX)
    for prob in (make_synthetic_problem(basis36, [0.0]),
                 ExtrapolationProblem(observed=zero, d_half=1.0, w_half=1.0, truth=zero)):
        trace = pg_run(prob, max_steps=3, stop_tol=1e-10)
        assert trace.converged and trace.steps == 1
        assert trace.rows[0].delta == 0.0
        assert np.all(trace.final.values == 0.0)


def test_pg_step_grid_mismatch():
    other = GridAxis.symmetric(4.0, 65)
    with pytest.raises(GridMismatch):
        pg_step(QSignal.zeros(AX, AX), QSignal.zeros(other, other), 1.0, 1.0)


def test_first_step_scales_by_lambda(basis36):
    # truth = psi_m, f_0 = 0  =>  f_1 = lambda_m psi_m
    prob = make_synthetic_problem(basis36, [0.0, 1.0])
    trace = pg_run(prob, max_steps=1, stop_tol=0.0)
    lam = basis36.eigenvalues()[1]
    assert trace.rows[0].e_energy == pytest.approx((1 - lam) ** 2, rel=1e-10)


def test_observation_validation(basis36):
    truth = basis36[0].values
    with pytest.raises(BadParameters):
        ExtrapolationProblem(observed=truth, d_half=1.0, w_half=1.0)
    obs = time_limit(truth, 1.0)
    wrong = obs.with_values(obs.values * 1.001)
    with pytest.raises(BadParameters):
        ExtrapolationProblem(observed=wrong, d_half=1.0, w_half=1.0, truth=truth)


def test_non_finite_samples_rejected(basis36):
    # NaN compares false against every tolerance, so each check must test finiteness itself
    truth = basis36[0].values
    obs = time_limit(truth, 1.0)
    centre = (truth.ax_x.count // 2, truth.ax_y.count // 2, 0)  # the node x = y = 0, in D
    for bad in (np.nan, np.inf):
        bad_truth, bad_obs = (f.with_values(f.values.copy()) for f in (truth, obs))
        bad_truth.values[centre] = bad_obs.values[centre] = bad
        with pytest.raises(BadParameters, match="truth"):
            ExtrapolationProblem(observed=obs, d_half=1.0, w_half=1.0, truth=bad_truth)
        for known in (None, truth):
            with pytest.raises(BadParameters, match="observation"):
                ExtrapolationProblem(observed=bad_obs, d_half=1.0, w_half=1.0, truth=known)


def test_synthetic_truth_validation(basis36):
    with pytest.raises(LengthMismatch):
        make_synthetic_problem(basis36, np.ones(len(basis36) + 1))
    with pytest.raises(LengthMismatch):
        make_synthetic_problem(basis36, np.ones((2, 3)))
    prob = make_synthetic_problem(basis36, [0.5, -0.25])
    # a time-limited cut is not band-limited, so it cannot be a synthetic truth
    with pytest.raises(BadParameters):
        dataclasses.replace(prob, synthetic=ModalField.of(basis36, [0.5], [0.25]))


def test_non_finite_coefficients_rejected(basis36, monkeypatch):
    # rejected before the truth's ModalField is built
    def forbidden(*args):
        raise AssertionError("built a truth from non-finite coefficients")
    monkeypatch.setattr(ModalField, "of", forbidden)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadParameters, match="finite"):
            make_synthetic_problem(basis36, [0.5, bad])


def test_half_widths_must_be_finite_and_positive(basis36):
    # at d = NaN every node lies outside D, so the grid checks would blame the observation
    obs = time_limit(basis36[0].values, 1.0)
    for observed in (QSignal.zeros(obs.ax_x, obs.ax_y), obs):
        for d_half in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(BadParameters, match="half-width d"):
                ExtrapolationProblem(observed=observed, d_half=d_half, w_half=1.0)
        for w_half in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(BadParameters, match="half-width W"):
                ExtrapolationProblem(observed=observed, d_half=1.0, w_half=w_half)


def test_run_parameters_are_checked(basis36):
    # a NaN stop_tol never stops a run, and a bool is not a step count
    prob = make_synthetic_problem(basis36, [1.0])
    for max_steps in (2.5, True, "3", None):
        with pytest.raises(BadParameters, match="max_steps"):
            pg_run(prob, max_steps=max_steps)
    for stop_tol in (np.nan, -1e-3, None):
        with pytest.raises(BadParameters, match="stop_tol"):
            pg_run(prob, max_steps=3, stop_tol=stop_tol)
    assert pg_run(prob, max_steps=np.int64(3), stop_tol=0.0).steps == 3


def test_synthetic_problem_samples_its_grids_only_when_read(basis36, monkeypatch):
    # the run reads only the grid's axes; truth and observed are the truth's
    # samples on the basis grid, taken when a caller first reads them
    def forbidden(*args):
        raise AssertionError("sampled a grid")
    coeffs = CounterRng(63).normal(10)
    with monkeypatch.context() as m:
        m.setattr(ModalField, "grid_values", forbidden)
        m.setattr(concentration, "time_limit", forbidden)
        m.setattr(extrapolate, "time_limit", forbidden)
        prob = make_synthetic_problem(basis36, coeffs)
        trace = pg_run(prob, max_steps=5, stop_tol=0.0, compare_closed_form=True)
        same = dataclasses.replace(prob, w_half=prob.w_half)
    assert trace.final.ax_x == basis36.ax_x and same.observed is prob.observed
    truth = QSignal(basis36.ax_x, basis36.ax_y, ModalField.of(basis36, coeffs).grid_values())
    assert np.array_equal(prob.truth.values, truth.values)
    assert np.array_equal(prob.observed.values, time_limit(truth, basis36.t_half).values)
    assert prob.truth.values is prob.truth.values
    # grids that are not the samples of the problem's own truth are checked
    with pytest.raises(BadParameters, match="vanish outside D"):
        dataclasses.replace(prob, observed=prob.truth)
    with pytest.raises(BadParameters, match="not the truth restricted"):
        dataclasses.replace(prob, truth=make_synthetic_problem(basis36, coeffs[:5]).truth)


def test_run_samples_its_final_only_when_read(basis36, monkeypatch):
    # a run keeps its last row's band coefficients, and its final grid is sampled
    # from them on the first read of values, by the formula of an eager final
    calls = []
    component_values = extrapolate._component_values

    def recording(coeffs, ex, ey):
        calls.append((len(ex), len(ey)))
        return component_values(coeffs, ex, ey)
    monkeypatch.setattr(extrapolate, "_component_values", recording)
    grid = (basis36.ax_x.count, basis36.ax_y.count)
    prob = make_synthetic_problem(basis36, CounterRng(63).normal(10))
    trace = pg_run(prob, max_steps=25, stop_tol=0.0, compare_closed_form=True)
    assert grid not in calls
    values = trace.final.values
    assert trace.final.values is values and calls.count(grid) == 1

    to_frame, lam, v = _band_frame(basis36.tables)[:3]
    spec = (to_frame @ prob.synthetic.psi @ to_frame.T) * _landweber(np.outer(lam, lam))(25)[0]
    kernels = _frame_kernels([basis36.ax_x.samples(), basis36.ax_y.samples()],
                             [band_rule(basis36.basis1d)] * 2, [v, v])
    want = basis36.coeff.as_array()[:, None, None] * component_values(spec[None], *kernels)
    assert np.array_equal(values, np.moveaxis(want, 0, -1))


def test_long_run_holds_less_than_one_final_grid(basis36):
    # a block's probe values hold no more numbers than one component of the final
    # grid, and a final that is never read is never sampled, so a long run's peak
    # allocation stays below the final grid's four components
    coeffs = CounterRng(57).normal(10)
    # the basis keeps the band frame and the final kernels from its first run
    pg_run(make_synthetic_problem(basis36, coeffs), max_steps=2, stop_tol=0.0)
    prob = make_synthetic_problem(basis36, coeffs)
    tracemalloc.start()
    try:
        trace = pg_run(prob, max_steps=500, stop_tol=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps == 500
    assert peak <= 4 * basis36.ax_x.count * basis36.ax_y.count * 8


def test_split_by_frame_matches_the_band_rule_arrays():
    # at T = W = 1.1 the 49-element basis uses the 1D mode 7 (lambda = 3.8e-15),
    # below the frame's cut, so a truth on every element has a part outside the
    # frame; the first row of a run is checked against the same 256^2 arrays
    coeff = Quaternion.from_array(np.arange(1.0, 5.0) / np.sqrt(30.0))
    basis = build_basis(1.1, 1.1, 256, 49, coeff=coeff)
    coeffs = CounterRng(64).normal(len(basis))
    prob = make_synthetic_problem(basis, coeffs)
    truth, residual, outside_energy = _split_by_frame(prob.synthetic)

    b1, band, psi = basis.basis1d, basis.tables.band, prob.synthetic.psi
    rule = band_rule(b1)
    analysis, lam, v = _axis_frame(rule, b1.nodes, b1.weights, True)
    assert len(lam) < len(band)
    want_truth = (band @ v.conj()).T @ psi @ (band @ v.conj())
    outside = band.T @ psi @ band - v @ want_truth @ v.T
    probe = band_kernel(np.linspace(-3.3, 3.3, 81), *rule)
    want_residual = (probe @ outside @ probe.T).real
    want_energy = float(np.sum(np.abs(outside) ** 2))
    assert np.abs(truth[0] - want_truth).max() <= 1e-13 * np.abs(want_truth).max()
    # both forms take s less its in-frame part, so they round on the scale of s
    s_probe = (probe @ band.T @ psi @ band @ probe.T).real
    assert np.abs(residual[0] - want_residual).max() <= 1e-13 * np.abs(s_probe).max()
    assert abs(outside_energy - want_energy) <= 1e-13 * want_energy
    assert want_energy > 1e-2 * np.sum(np.abs(want_truth) ** 2)

    # row 1 iterates s_1 = G, the analysed observation
    phi = b1.eigvecs[:len(band)]
    err = want_truth - analysis @ (phi.T @ psi @ phi) @ analysis.T
    err_probe = ((probe @ v) @ err @ (probe @ v).T).real + want_residual
    q = coeff.modulus()
    row = pg_run(prob, max_steps=1, stop_tol=0.0).rows[0]
    want_e = q ** 2 * (np.sum(np.abs(err) ** 2) + want_energy)
    assert abs(row.e_energy - want_e) <= 1e-13 * want_e
    assert abs(row.sup_e - q * np.abs(err_probe).max()) <= 1e-13 * row.sup_e


def test_closed_form_iterate_limits(basis36):
    coeffs = [0.7, -0.3, 0.2]
    lams = basis36.eigenvalues()[:3]
    f0 = closed_form_iterate(coeffs, lams, 0, basis36)
    assert np.all(f0.values == 0.0)
    f_inf = closed_form_iterate(coeffs, lams, 10_000, basis36)
    truth = sum(a * basis36[j].values.values for j, a in enumerate(coeffs))
    assert np.abs(f_inf.values - truth).max() <= 1e-8
    single = closed_form_iterate([1.0], lams[:1], 3, basis36)
    expect = (1 - (1 - lams[0]) ** 3) * basis36[0].values.values
    assert np.abs(single.values - expect).max() <= 1e-12
    with pytest.raises(LengthMismatch):
        closed_form_iterate([1.0, 2.0], lams[:1], 3, basis36)


def test_error_energy_formula():
    assert error_energy([3.0, 4.0], [0.5, 0.25], 0) == pytest.approx(25.0)
    assert error_energy([3.0, 4.0], [1.0, 1.0], 5) == 0.0
    with pytest.raises(LengthMismatch):
        error_energy([1.0], [0.5, 0.5], 1)


def test_error_energy_matches_quadrature(basis36):
    coeffs = np.array([0.9, -0.4, 0.3, 0.2])
    lams = basis36.eigenvalues()[:4]
    n = 7
    truth = sum(a * basis36[j].values.values for j, a in enumerate(coeffs))
    iterate = closed_form_iterate(coeffs, lams, n, basis36)
    # residual truth - f_n lives in the basis span; measure on the band side
    from qpswf.signals import BandRep, element_band_rep
    truth_spec = sum(a * element_band_rep(basis36[j]).spectra
                     for j, a in enumerate(coeffs))
    iter_spec = closed_form_band_spectra(coeffs, lams, n, basis36)
    e_meas = BandRep(basis36.basis1d, truth_spec - iter_spec).total_energy()
    assert e_meas == pytest.approx(error_energy(coeffs, lams, n), abs=1e-8)


def test_pointwise_bound():
    assert pointwise_bound(0.0, 1.0) == 0.0
    assert pointwise_bound(4.0, 1.0) == pytest.approx(2.0 / np.pi)
    assert pointwise_bound(2.0, 1.0) / pointwise_bound(4.0, 1.0) \
        == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(BadParameters):
        pointwise_bound(-1.0, 1.0)


def test_landweber_filter_matches_fifty_digits():
    # n = 10^6 and n = inf are out of the reach of a step loop; lam = 1/2, the
    # double below it and 1 sit on both sides of the switch to the plain power
    mp = pytest.importorskip("mpmath")
    lam = np.concatenate([np.logspace(-16, 0, 33), [0.5, np.nextafter(0.5, 0.0), 1.0]])
    landweber = _landweber(lam)
    with mp.workdps(50):
        for n in (1, 2, 50, 10 ** 6, np.inf):
            gain, decay = landweber(n)
            for x, got_gain, got_decay in zip(lam, gain, decay):
                want_decay = (1 - mp.mpf(float(x))) ** (mp.inf if n == np.inf else n)
                want_gain = (1 - want_decay) / mp.mpf(float(x))
                assert abs(got_gain - want_gain) <= 1e-13 * want_gain, (n, x)
                if want_decay > 1e-30:
                    assert abs(got_decay - want_decay) <= 1e-13 * want_decay, (n, x)


def test_pg_run_oracle_agreement(basis36):
    rng = CounterRng(52)
    coeffs = rng.normal(10)
    prob = make_synthetic_problem(basis36, coeffs)
    trace = pg_run(prob, max_steps=50, stop_tol=0.0, compare_closed_form=True)
    lams = basis36.eigenvalues()[:10]
    assert len(trace.rows) == 50
    for row in trace.rows:
        assert row.cf_gap <= 1e-8
        assert abs(row.e_energy - error_energy(coeffs, lams, row.n)) <= 1e-8
        assert row.sup_e <= row.bound + 1e-8
    energies = [r.e_energy for r in trace.rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))


# pg_run evaluates its rows in blocks: 10 rows on the 257-point grid of basis36,
# 1 row on a file-based grid, whose probe points are the grid's nodes.  The runs
# checked against a reference end on a block's last row (50 steps), inside a block
# (23 steps), on a block's first row (stopped at step 21), inside a block on a
# stop (at step 25) and in a first block of one row (1 step)
FINALS_AT = (1, 21, 23, 25, 50)


def _block_edge_runs(ref):
    """(max_steps, stop_tol, rows) of the runs above, from 50 reference rows (delta third)."""
    runs = [(50, 0.0, 50), (23, 0.0, 23), (1, 0.0, 1)]
    for stop in (21, 25):
        # a stop_tol between the updates of steps stop - 1 and stop stops a run at step stop
        stop_tol = float(np.sqrt(ref[stop - 2, 2] * ref[stop - 1, 2]))
        assert np.flatnonzero(ref[:, 2] < stop_tol)[0] == stop - 1
        runs.append((50, stop_tol, stop))
    return runs


def _explicit_band_run(problem, basis, coeffs, max_steps, finals_at):
    """The band-side iteration written out step by step.

    Each step evaluates the iterate's band coefficients (sqrt(w_u w_v) F / 2 pi
    for spectra F) at the time Gauss nodes (T), substitutes the observation
    there (every node lies in D, so the update is g - f at each node) and
    band-limits the result back onto the band nodes (B).  The closed form
    comes from the basis and the truth's coefficients.  Returns the rows
    (E_n, sup_e, delta, cf_gap) of max_steps steps and the iterates after
    the steps in finals_at on the problem grid, by step.  A run stopped at
    step n has the first n of these rows.
    """
    synth = problem.synthetic
    b = basis.basis1d
    lams = basis.eigenvalues()[:len(coeffs)]
    u, wu = band_rule(b)
    sw = np.sqrt(wu / (2 * np.pi))

    def synthesis(x):
        return np.exp(1j * np.outer(x, u)) * sw

    def values(spec, ex, ey):  # quaternion field (len(x), len(y), 4)
        return np.stack([(ex @ s @ ey.T).real for s in spec], axis=-1)

    def norm(spec):
        return np.sqrt(np.sum(np.abs(spec) ** 2))

    to_nodes = synthesis(b.nodes)
    to_band = sw[:, None] * np.exp(-1j * np.outer(u, b.nodes)) * b.weights
    to_probe = synthesis(np.linspace(-3 * problem.d_half, 3 * problem.d_half, 81))
    g = synth.nodal_values()
    truth = synth.band_rep().spectra
    spec = np.zeros_like(truth)
    ax_x, ax_y = problem.observed.ax_x, problem.observed.ax_y
    to_grid = synthesis(ax_x.samples()), synthesis(ax_y.samples())
    rows, finals = [], {}
    for n in range(1, max_steps + 1):
        update = g - values(spec, to_nodes, to_nodes)
        corr = np.stack([to_band @ update[..., c] @ to_band.T for c in range(4)])
        spec = spec + corr
        err = truth - spec
        sup_e = np.sqrt((values(err, to_probe, to_probe) ** 2).sum(axis=-1)).max()
        delta = norm(corr) / norm(spec)
        cf = closed_form_band_spectra(coeffs, lams, n, basis)
        rows.append((norm(err) ** 2, sup_e, delta, norm(spec - cf)))
        if n in finals_at:
            finals[n] = values(spec, *to_grid)
    return np.array(rows), finals


def _check_band_run(basis):
    """pg_run against _explicit_band_run on the block-edge runs of FINALS_AT."""
    coeffs = CounterRng(57).normal(int(np.sum(basis.eigenvalues() >= 1e-12)))
    prob = make_synthetic_problem(basis, coeffs)
    scale = np.sqrt(np.sum(coeffs ** 2))
    ref, ref_finals = _explicit_band_run(prob, basis, coeffs, 50, FINALS_AT)
    for steps, tol, count in _block_edge_runs(ref):
        want, want_final = ref[:count], ref_finals[count]
        trace = pg_run(prob, max_steps=steps, stop_tol=tol, compare_closed_form=True)
        assert len(trace.rows) == count
        assert trace.converged == (tol > 0)
        got = np.array([(r.e_energy, r.sup_e, r.delta, r.cf_gap) for r in trace.rows])
        assert np.all(np.abs(got[:, :3] - want[:, :3]) <= 1e-12 * np.abs(want[:, :3]))
        # the closed-form gaps are rounding noise: compare on the signal's scale
        assert np.all(np.abs(got[:, 3] - want[:, 3]) <= 1e-12 * scale)
        assert np.abs(trace.final.values - want_final).max() \
            <= 1e-13 * np.abs(want_final).max()


def test_band_run_matches_explicit_iteration(basis36):
    _check_band_run(basis36)


def test_band_run_matches_explicit_iteration_with_a_non_dyadic_quaternion(basis36):
    # pg_run iterates the truth's real field and applies the quaternion at the end;
    # the default (1, 1, 1, 1) / 2 scales exactly, so only a coefficient whose
    # products round shows a factor applied twice, never, or to the wrong quantity
    coeff = Quaternion.from_array(np.arange(1.0, 5.0) / np.sqrt(30.0))
    _check_band_run(build_qpswf_basis(basis36.basis1d, len(basis36), coeff))


def test_band_frame_is_computed_once_per_basis(basis36, monkeypatch):
    # a basis built afresh on the same 1D modes starts with an empty memo
    basis = build_qpswf_basis(basis36.basis1d, len(basis36))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    coeffs = CounterRng(62).normal(10)
    runs = [pg_run(make_synthetic_problem(basis, coeffs), max_steps=20, stop_tol=0.0,
                   compare_closed_form=True) for _ in range(2)]
    assert len(calls) == 1
    assert runs[0].rows == runs[1].rows
    assert np.array_equal(runs[0].final.values, runs[1].final.values)
    # the final-grid kernels are kept per grid: a second grid on this basis gets
    # the final of a run on a basis built for that grid
    ax = GridAxis.symmetric(3.0, 129)
    fresh = make_synthetic_problem(
        build_qpswf_basis(basis36.basis1d, len(basis36), grid=(ax, ax)), coeffs)
    same = dataclasses.replace(fresh, synthetic=ModalField.of(basis, coeffs))
    want = pg_run(fresh, max_steps=20, stop_tol=0.0).final
    got = pg_run(same, max_steps=20, stop_tol=0.0).final
    assert got.ax_x == ax and np.array_equal(got.values, want.values)


def test_single_mode_geometric_ratio(basis36):
    prob = make_synthetic_problem(basis36, [0.0, 0.0, 0.0, 1.0])
    trace = pg_run(prob, max_steps=25, stop_tol=0.0)
    lam = basis36.eigenvalues()[3]
    for a, b in zip(trace.rows, trace.rows[1:]):
        assert b.e_energy / a.e_energy == pytest.approx((1 - lam) ** 2, abs=1e-10)


def test_iterates_stay_bandlimited():
    # grid iterates are fixed points of the (idempotent) band projector
    truth = _grid_truth(55)
    obs = time_limit(truth, 2.0)
    prob = ExtrapolationProblem(observed=obs, d_half=2.0, w_half=1.0, truth=truth)
    trace = pg_run(prob, max_steps=4, stop_tol=0.0)
    f = trace.final
    bl = band_limit(f, 1.0)
    rel = np.sqrt(energy(f.with_values(bl.values - f.values)) / energy(f))
    assert rel <= 1e-8


def test_grid_run_without_truth():
    truth = _grid_truth(53)
    obs = time_limit(truth, 1.0)
    prob = ExtrapolationProblem(observed=obs, d_half=1.0, w_half=1.0)
    trace = pg_run(prob, max_steps=12, stop_tol=0.0)
    deltas = [r.delta for r in trace.rows[1:]]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))
    assert np.isnan(trace.rows[0].e_energy)


def test_grid_run_with_truth_decays():
    # the grid iteration contracts slowly through the poorly concentrated
    # band modes; assert steady decay rather than deep convergence
    truth = _grid_truth(54)
    obs = time_limit(truth, 2.0)
    prob = ExtrapolationProblem(observed=obs, d_half=2.0, w_half=1.0, truth=truth)
    trace = pg_run(prob, max_steps=250, stop_tol=0.0)
    energies = [r.e_energy for r in trace.rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[-1] <= 0.06 * energies[0]
    assert all(r.sup_e <= r.bound + 1e-8 for r in trace.rows)


def _reference_grid_run(problem, max_steps, finals_at):
    """The grid iteration written as pg_step on grid signals, one FFT band-limit per step.

    Returns the rows (E_n, sup_e, delta) of max_steps steps and the iterates
    after the steps in finals_at, by step.
    """
    f_n = QSignal.zeros(problem.observed.ax_x, problem.observed.ax_y)
    rows, finals = [], {}
    for n in range(1, max_steps + 1):
        f_next = pg_step(problem.observed, f_n, problem.d_half, problem.w_half)
        delta = np.sqrt(energy(f_next.with_values(f_next.values - f_n.values))) / f_next.norm()
        err = f_next.with_values(problem.truth.values - f_next.values)
        rows.append((energy(err), qarr_modulus(err.values).max(), delta))
        f_n = f_next
        if n in finals_at:
            finals[n] = f_n.values
    return np.array(rows), finals


@pytest.mark.parametrize("case", ["square", "non_square", "offset", "both_offset",
                                  "not_bandlimited", "sub_cut", "sub_cut_not_bandlimited"])
def test_grid_run_matches_pg_step(case):
    # W = 2 holds 5 dual-lattice bins on the 129-point axes and 3 on the
    # 97-point one; d = 1 is a node of the symmetric axes and d = 0.95 of the
    # offset one, so a mask one node narrower changes every run.  both_offset
    # makes both step matrices complex, so it pins the frame's conjugation on x.
    # On SUB_CUT_AX, W = 2 holds 21 bins and d = 0.5 leaves 5 step eigenvalues
    # above the frame's cut, so the truth's rest is carried as a fixed residual
    ax_x, ax_y, d_half = {"square": (AX, AX, 1.0),
                          "non_square": (AX, GridAxis.symmetric(3.0, 97), 1.0),
                          "offset": (AX, OFFSET_AX, 0.95),
                          "both_offset": (OFFSET_AX, OFFSET_AX, 0.95),
                          "not_bandlimited": (AX, AX, 1.0),
                          "sub_cut": (SUB_CUT_AX, SUB_CUT_AX, 0.5),
                          "sub_cut_not_bandlimited": (SUB_CUT_AX, SUB_CUT_AX, 0.5)}[case]
    if case.endswith("not_bandlimited"):
        truth = gaussian_mixed_qsignal(ax_x, ax_y, CounterRng(58), 1.0, 2.0)
    else:
        truth = _grid_truth(59, ax_x, ax_y, w_half=2.0)
    prob = ExtrapolationProblem(observed=time_limit(truth, d_half), d_half=d_half,
                                w_half=2.0, truth=truth)
    ref, ref_finals = _reference_grid_run(prob, 50, FINALS_AT)
    scale = np.abs(truth.values).max()
    for steps, tol, count in _block_edge_runs(ref):
        want, want_final = ref[:count], ref_finals[count]
        trace = pg_run(prob, max_steps=steps, stop_tol=tol)
        assert len(trace.rows) == count
        assert trace.converged == (tol > 0)
        got = np.array([(r.e_energy, r.sup_e, r.delta) for r in trace.rows])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert np.abs(trace.final.values - want_final).max() <= 1e-13 * scale


def test_grid_run_band_reaches_window_edge():
    # on an even-count axis the frequency window ends in half-weight bins, so
    # a band up to its edge is no projection; past the edge there are no bins
    ax = GridAxis.symmetric(4.0, 128)
    edge = dual_frequency_axis(ax).stop
    truth = _grid_truth(60, ax, ax)
    for w_half in (edge, 1.01 * edge):
        prob = ExtrapolationProblem(observed=time_limit(truth, 1.0), d_half=1.0,
                                    w_half=w_half, truth=truth)
        with pytest.raises(WindowTooSmall):
            pg_run(prob, max_steps=2)


@pytest.mark.parametrize("t_half, halfwidth, resolved", [(9.0, 36.0, True), (12.0, 48.0, False)],
                         ids=["phase405", "phase720"])
def test_synthetic_run_needs_a_rule_that_resolves_its_points(t_half, halfwidth, resolved):
    # values at x come from the band Gauss rule, which must integrate phases up to
    # (max(|grid|, 3d) + d) W; 256 nodes reach about 430
    ax = GridAxis.symmetric(halfwidth, 513)
    basis = build_basis(t_half, t_half, 256, 4, grid=(ax, ax))
    prob = make_synthetic_problem(basis, [1.0, 0.5, -0.25, 0.125])
    if not resolved:
        with pytest.raises(BadParameters):
            pg_run(prob, max_steps=3, stop_tol=0.0)
        return
    trace = pg_run(prob, max_steps=3, stop_tol=0.0)
    scale = np.abs(prob.truth.values).max()
    assert np.abs(trace.final.values - prob.truth.values).max() <= 1e-13 * scale


def _offset_frame_inputs():
    """W = 2 lattice rule, and nodes, weights and mask of D = [-0.95, 0.95] on OFFSET_AX."""
    x, w = OFFSET_AX.samples(), OFFSET_AX.trapezoid_weights()
    return _lattice_rule(OFFSET_AX, 2.0), x, w, np.abs(x) <= 0.95 + 1e-9


def test_axis_frame_diagonalises_the_step():
    # M = F diag(chi_D) E = V diag(lam) V^H with V unitary, and the analysis is V^H F
    rule, s, w_s, inside = _offset_frame_inputs()
    e = band_kernel(s, *rule)
    f = e.conj().T * w_s
    m = (f * inside) @ e
    assert np.abs(m.imag).max() > 1e-3  # the offset axis gives a complex step
    analysis, lam, v = _axis_frame(rule, s, w_s, inside)
    assert np.abs(v @ np.diag(lam) @ v.conj().T - m).max() <= 1e-14 * np.abs(m).max()
    assert np.abs(v.conj().T @ v - np.eye(len(lam))).max() <= 1e-14
    assert np.abs(analysis - v.conj().T @ f).max() <= 1e-14 * np.abs(f).max()
    assert np.all((lam > -1e-14) & (lam < 1 + 1e-14))


@pytest.mark.parametrize("case, kept, size", [("band_rule", 7, 256), ("sub_cut", 5, 21),
                                              ("default_grid", 3, 3)])
def test_axis_frame_keeps_the_modes_resolved_from_zero(basis36, case, kept, size):
    # the frame keeps exactly the eigenpairs with lam > n eps lam_max, n the rule size
    if case == "band_rule":
        b1 = basis36.basis1d
        rule, s, w_s, inside = band_rule(b1), b1.nodes, b1.weights, np.ones(len(b1.nodes), bool)
    else:
        ax, d_half, w_half = {"sub_cut": (SUB_CUT_AX, 0.5, 2.0),
                              "default_grid": (GridAxis.symmetric(4.0, 257), 2.0, 1.0)}[case]
        s, w_s = ax.samples(), ax.trapezoid_weights()
        rule, inside = _lattice_rule(ax, w_half), np.abs(s) <= d_half + 1e-9
    e = band_kernel(s, *rule)
    m = (e.conj().T * (w_s * inside)) @ e
    full = np.linalg.eigvalsh(m)
    assert len(full) == size
    analysis, lam, v = _axis_frame(rule, s, w_s, inside)
    assert v.shape == (size, kept) and analysis.shape == (kept, len(s))
    assert np.array_equal(np.sort(lam), lam)
    assert np.allclose(lam, full[full > size * np.finfo(float).eps * full.max()],
                       rtol=0, atol=1e-14 * full.max())
    assert np.abs(v.conj().T @ v - np.eye(kept)).max() <= 1e-14
    assert np.abs(v @ np.diag(lam) @ v.conj().T - m).max() <= 1e-14 * np.abs(m).max()


def test_axis_frame_rejects_a_step_that_is_not_hermitian():
    # complex weights on the points make E^H diag(w chi_D) E non-Hermitian
    rule, s, w_s, inside = _offset_frame_inputs()
    with pytest.raises(BadParameters, match="Hermitian"):
        _axis_frame(rule, s, w_s * (1 + 0.5j), inside)


def test_step_eigensolver_failure_is_convergence_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("no convergence")
    truth = _grid_truth(61)
    prob = ExtrapolationProblem(observed=time_limit(truth, 1.0), d_half=1.0, w_half=1.0)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure):
        pg_run(prob, max_steps=2)
