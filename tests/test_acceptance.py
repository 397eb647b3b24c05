"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All criteria run at T = W = 1 on the canonical 256-node discretization with
the 36-element basis.  Tolerances are stated inline; runtime caps are
enforced with wall-clock measurements.
"""

import time

import numpy as np

from qpswf.concentration import (ComboSignal, build_boundary_signal,
                                 build_zero_xi_signal, energy_ratios,
                                 energy_ratios_band, energy_ratios_time_nodal,
                                 sweep_admissible_region)
from qpswf.extrapolate import error_energy, make_synthetic_problem, pg_run
from qpswf.grid import GridAxis, QSignal, Region
from qpswf.prolate import (EIG_FLOOR, eig_prolate_1d, gram_matrix,
                           verify_allpass, verify_finite_qft, verify_lowpass)
from qpswf.qft import (dual_frequency_axes, forward_qft, inverse_qft, modulate,
                       parseval_check, spectrum_from_complex_components)
from qpswf.rng import CounterRng
from qpswf.signals import (gaussian_mixed_qsignal, random_bandlimited,
                           random_bandlimited_grid_spectrum, random_time_nodal)
from qpswf.svgplot import SvgFigure


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_eigen_structure():
    t0 = time.monotonic()
    b256 = eig_prolate_1d(1.0, 1.0, 256, 8)
    b512 = eig_prolate_1d(1.0, 1.0, 512, 8)
    elapsed = time.monotonic() - t0
    drift = float(np.abs(b256.eigvals - b512.eigvals).max())
    lam = b256.eigvals
    above = lam[lam > 1e-14]
    monotone = bool(np.all(np.diff(above) < 0)
                    and np.all(above > 0) and np.all(above < 1))
    ok = drift <= 1e-8 and monotone and elapsed <= 10.0
    _report(1, ok, f"N-doubling drift {drift:.2e}, strictly decreasing in (0,1): "
                   f"{monotone}, runtime {elapsed:.2f}s <= 10s")


def test_criterion_2_double_orthogonality(basis36):
    t0 = time.monotonic()
    k = len(basis36)
    g_r2 = gram_matrix(basis36, Region.full())
    eye = np.zeros_like(g_r2)
    eye[np.arange(k), np.arange(k), 0] = 1.0
    dev_r2 = float(np.abs(g_r2 - eye).max())
    g_t = gram_matrix(basis36, Region.square(basis36.t_half))
    diag = np.zeros_like(g_t)
    diag[np.arange(k), np.arange(k), 0] = basis36.eigenvalues()
    dev_t = float(np.abs(g_t - diag).max())
    elapsed = time.monotonic() - t0
    ok = dev_r2 <= 1e-8 and dev_t <= 1e-8 and elapsed <= 30.0
    _report(2, ok, f"R2-Gram dev {dev_r2:.2e}, T-Gram dev {dev_t:.2e}, "
                   f"runtime {elapsed:.2f}s <= 30s")


def test_criterion_3_eigen_form_equivalence(basis36):
    checked = 0
    worst_low = 0.0
    worst_fq = 0.0
    worst_rel = 0.0
    worst_ap = -np.inf
    for el in basis36.items:
        if el.lambda2d < EIG_FLOOR:
            continue  # operations dividing by lambda exclude sub-floor elements
        checked += 1
        worst_low = max(worst_low, verify_lowpass(el))
        chk = verify_finite_qft(el)
        worst_fq = max(worst_fq, chk.residual)
        worst_rel = max(worst_rel, chk.relation_residual)
        ap = verify_allpass(el, window_halfwidth=4 * basis36.t_half)
        worst_ap = max(worst_ap, ap.residual - ap.tail_bound)
    ok = (worst_low <= 1e-8 and worst_fq <= 1e-6 and worst_rel <= 1e-6
          and worst_ap <= 1e-4 and checked >= 20)
    _report(3, ok, f"{checked} elements above floor: low-pass {worst_low:.2e} "
                   f"<= 1e-8, finite-transform {worst_fq:.2e} <= 1e-6, "
                   f"multiplier relation {worst_rel:.2e} <= 1e-6, all-pass "
                   f"excess over tail bound {worst_ap:.2e} <= 1e-4 on 4T")


def test_criterion_4_transform_conformance():
    ax = GridAxis.symmetric(4.0, 129)
    ax_u, ax_v = dual_frequency_axes(QSignal.zeros(ax, ax))
    worst_pv = 0.0
    worst_rt = 0.0
    for s in range(100):
        g = random_bandlimited_grid_spectrum(ax_u, ax_v, 1.0, CounterRng(2000 + s))
        spec = spectrum_from_complex_components(ax_u, ax_v, g)
        f = inverse_qft(spec, ax, ax)
        worst_pv = max(worst_pv, parseval_check(f))
        spec2 = forward_qft(f, ax_u, ax_v)
        rt = np.abs(spec2.combined - spec.combined).max() / np.abs(spec.combined).max()
        worst_rt = max(worst_rt, float(rt))
    # modulation-shift identity on a grid-aligned shift
    g = random_bandlimited_grid_spectrum(ax_u, ax_v, 1.0, CounterRng(2222))
    f = inverse_qft(spectrum_from_complex_components(ax_u, ax_v, g), ax, ax)
    k = 2
    spec_mod = forward_qft(modulate(f, k * ax_u.step), ax_u, ax_v)
    spec_ref = forward_qft(f, ax_u, ax_v)
    shift_err = float(np.abs(spec_mod.combined[k:] - spec_ref.combined[:-k]).max()
                      / np.abs(spec_ref.combined).max())
    ok = worst_pv <= 1e-8 and worst_rt <= 1e-8 and shift_err <= 1e-6
    _report(4, ok, f"Parseval {worst_pv:.2e} <= 1e-8 (100 signals), roundtrip "
                   f"{worst_rt:.2e} <= 1e-8, modulation shift {shift_err:.2e} <= 1e-6")


def test_criterion_5_concentration_extremals(basis36, tmp_path):
    lam0 = basis36.lambda0
    s0 = np.sqrt(lam0)

    rng = CounterRng(500)
    worst_xi = 0.0
    for _ in range(200):
        f = random_bandlimited(basis36.basis1d, rng)
        worst_xi = max(worst_xi, energy_ratios_band(f, basis36).xi)
    ok_a = worst_xi <= s0 + 1e-8

    rep0 = ComboSignal.of(basis36, [1.0]).report()
    ok_b = abs(rep0.xi ** 2 - lam0) <= 1e-6 and abs(rep0.eta_q - 1.0) <= 1e-6

    worst_deficit_b = 0.0
    for xi in np.linspace(s0, 0.995, 10):
        rep = build_boundary_signal(float(xi), basis36).report()
        worst_deficit_b = max(worst_deficit_b, abs(rep.angle_sum_deficit))
    ok_c = worst_deficit_b <= 1e-6

    q_even = next(i for i in range(1, len(basis36))
                  if basis36[i].m % 2 == 0 and basis36[i].n % 2 == 0)
    repz = build_zero_xi_signal(q_even, basis36).report()
    ok_d = repz.xi <= 1e-10 and \
        abs(repz.eta_q ** 2 - (1.0 - basis36[q_even].lambda2d)) <= 1e-6

    ax = GridAxis.symmetric(4.0, 257)
    min_deficit = np.inf
    for s in range(300):
        f = gaussian_mixed_qsignal(ax, ax, CounterRng(3000 + s), 1.0, 1.0)
        min_deficit = min(min_deficit, energy_ratios(f, basis36).angle_sum_deficit)
    for s in range(100):
        rep = energy_ratios_band(random_bandlimited(basis36.basis1d,
                                                    CounterRng(4000 + s)), basis36)
        min_deficit = min(min_deficit, rep.angle_sum_deficit)
    for s in range(100):
        rep = energy_ratios_time_nodal(random_time_nodal(basis36.basis1d,
                                                         CounterRng(5000 + s)), basis36)
        min_deficit = min(min_deficit, rep.angle_sum_deficit)
    ok_e = min_deficit >= -1e-6

    sweep = sweep_admissible_region(basis36)
    fig = SvgFigure("Admissible energy-concentration region", "xi", "eta_Q")
    fig.add_line([c[0] for c in sweep.curve], [c[1] for c in sweep.curve], "boundary")
    fig.add_scatter([p["xi"] for p in sweep.points],
                    [p["eta_q"] for p in sweep.points], "constructions")
    svg_path = tmp_path / "region.svg"
    fig.save(svg_path)

    ok = ok_a and ok_b and ok_c and ok_d and ok_e and svg_path.exists()
    _report(5, ok, f"(a) max xi {worst_xi:.6f} <= sqrt(lam0)+1e-8 over 200; "
                   f"(b) psi0 xi^2 err {abs(rep0.xi**2 - lam0):.2e}, eta err "
                   f"{abs(rep0.eta_q - 1):.2e}; (c) boundary deficit "
                   f"{worst_deficit_b:.2e} <= 1e-6 at 10 xi; (d) zero-xi xi "
                   f"{repz.xi:.1e} <= 1e-10, eta^2 err "
                   f"{abs(repz.eta_q**2 - (1 - basis36[q_even].lambda2d)):.2e}; "
                   f"(e) min deficit {min_deficit:.2e} >= -1e-6 over 500; "
                   f"region.svg emitted")


def test_criterion_6_extrapolation(basis36):
    t0 = time.monotonic()
    coeffs = CounterRng(600).normal(10)
    lams = basis36.eigenvalues()[:10]
    prob = make_synthetic_problem(basis36, coeffs)
    trace = pg_run(prob, max_steps=50, stop_tol=0.0, compare_closed_form=True)
    worst_gap = max(r.cf_gap for r in trace.rows)
    worst_e = max(abs(r.e_energy - error_energy(coeffs, lams, r.n))
                  for r in trace.rows)
    bound_ok = all(r.sup_e <= r.bound + 1e-8 for r in trace.rows)

    prob1 = make_synthetic_problem(basis36, [0.0, 0.0, 0.0, 1.0])
    tr1 = pg_run(prob1, max_steps=25, stop_tol=0.0)
    lam = lams[3]
    ratio_err = max(abs(b.e_energy / a.e_energy - (1 - lam) ** 2)
                    for a, b in zip(tr1.rows, tr1.rows[1:]))
    elapsed = time.monotonic() - t0
    ok = (worst_gap <= 1e-8 and worst_e <= 1e-8 and ratio_err <= 1e-10
          and bound_ok and elapsed <= 60.0)
    _report(6, ok, f"closed-form gap {worst_gap:.2e} <= 1e-8 (50 steps, 10 modes), "
                   f"energy-law dev {worst_e:.2e} <= 1e-8, single-mode ratio dev "
                   f"{ratio_err:.2e} <= 1e-10, pointwise bound held: {bound_ok}, "
                   f"runtime {elapsed:.1f}s <= 60s")


def test_criterion_7_qualitative_spectrum(basis36):
    lam = basis36.eigenvalues()
    distinct = []
    for v in lam:
        if not distinct or abs(v - distinct[-1]) > 1e-12 * max(distinct[-1], 1e-300):
            distinct.append(float(v))
        if len(distinct) == 6:
            break
    decreasing = all(a > b for a, b in zip(distinct, distinct[1:]))
    span = distinct[0] / distinct[5]
    ok = len(distinct) == 6 and decreasing and span >= 100.0
    _report(7, ok, f"first six distinct eigenvalues {[f'{v:.3e}' for v in distinct]} "
                   f"strictly decreasing, span {span:.1e} >= 1e2")
