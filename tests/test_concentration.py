import numpy as np
import pytest

from qpswf.concentration import (CUT, PSI, ComboSignal, band_limit, boundary_eta,
                                 build_boundary_signal, build_eta_one_signal,
                                 build_zero_xi_signal, energy_ratios,
                                 energy_ratios_band, energy_ratios_time_nodal,
                                 least_angle_check, sweep_admissible_region,
                                 time_limit)
from qpswf.errors import (BadIndex, NoAdmissibleIndex, RegionOutOfGrid,
                          XiOutOfRange, ZeroSignal)
from qpswf.grid import GridAxis, QSignal, Region, angle, energy, region_mask
from qpswf.prolate import build_basis
from qpswf.qft import modulate
from qpswf.quaternion import Quaternion
from qpswf.rng import CounterRng
from qpswf.signals import (ModalField, gaussian_mixed_qsignal, random_bandlimited,
                           random_time_nodal)

AX = GridAxis.symmetric(4.0, 129)


def test_time_limit_idempotent_and_preserving():
    rng = CounterRng(41)
    f = QSignal(AX, AX, rng.normal_field((AX.count, AX.count, 4)))
    once = time_limit(f, 1.0)
    twice = time_limit(once, 1.0)
    assert np.array_equal(once.values, twice.values)
    # interior-supported signal is unchanged
    mask = region_mask(f, Region.square(0.8))[..., None]
    g = f.with_values(f.values * mask)
    assert np.array_equal(time_limit(g, 1.0).values, g.values)
    with pytest.raises(RegionOutOfGrid):
        time_limit(f, 5.0)


def test_time_limit_energy_split():
    rng = CounterRng(42)
    f = QSignal(AX, AX, rng.normal_field((AX.count, AX.count, 4)))
    inside = time_limit(f, 1.0)
    outside = f.with_values(f.values - inside.values)
    assert energy(inside) + energy(outside) == pytest.approx(energy(f), rel=1e-12)


def _grid_bandlimited(seed, w_half=1.0):
    from qpswf.qft import (dual_frequency_axes, inverse_qft,
                           spectrum_from_complex_components)
    from qpswf.signals import random_bandlimited_grid_spectrum
    ax_u, ax_v = dual_frequency_axes(QSignal.zeros(AX, AX))
    g = random_bandlimited_grid_spectrum(ax_u, ax_v, w_half, CounterRng(seed))
    return inverse_qft(spectrum_from_complex_components(ax_u, ax_v, g), AX, AX)


def test_band_limit_idempotent():
    f = _grid_bandlimited(43, w_half=2.5)
    once = band_limit(f, 1.0)
    twice = band_limit(once, 1.0)
    scale = np.abs(once.values).max()
    assert np.abs(twice.values - once.values).max() <= 1e-8 * scale
    # band-limited input is already a fixed point
    fixed = band_limit(f, 3.0)
    assert np.abs(fixed.values - f.values).max() <= 1e-8 * np.abs(f.values).max()


def test_band_limit_preserves_realness():
    x = AX.samples()
    g = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2 * 0.6 ** 2))
    f = QSignal.from_components(AX, AX, g)
    bl = band_limit(f, 1.0)
    assert np.abs(bl.values[..., 1:]).max() <= 1e-10 * np.abs(bl.values[..., 0]).max()


def test_band_limit_element_tail_certified(basis36):
    psi = basis36[0].values
    bl = band_limit(psi, 1.0)
    rel = np.sqrt(energy(psi.with_values(bl.values - psi.values)) / energy(psi))
    tail = np.sqrt(max(0.0, 1.0 - energy(psi)))
    assert rel <= tail + 1e-6


def test_band_limit_matches_sinc_convolution():
    # spectrum must vanish near the band edge for the two discretizations of
    # the same projector to agree tightly; wide smooth signals achieve that
    ax = GridAxis.symmetric(40.0, 641)
    x = ax.samples()
    env = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2 * 7.0 ** 2))
    carrier = np.cos(0.1 * x)[:, None] * np.cos(0.06 * x)[None, :]
    vals = env[..., None] * carrier[..., None] * np.array([1.0, 0.5, -0.3, 0.2])
    f = QSignal(ax, ax, vals)
    bl = band_limit(f, 1.0)
    wts = ax.trapezoid_weights()
    d = x[:, None] - x[None, :]
    k1 = np.sinc(d / np.pi) / np.pi * wts[None, :]  # sin(W d) / (pi d) at W = 1
    tmp = np.tensordot(k1, f.values, axes=(1, 0))
    conv = np.tensordot(k1, tmp.transpose(1, 0, 2), axes=(1, 0)).transpose(1, 0, 2)
    rel = np.sqrt(energy(f.with_values(bl.values - conv)) / energy(f))
    assert rel <= 1e-6


def test_projections_orthogonal_in_scalar_product():
    from qpswf.grid import scalar_inner_product
    f = _grid_bandlimited(44, w_half=3.0)
    p = band_limit(f, 1.0)
    q = f.with_values(f.values - p.values)
    assert abs(scalar_inner_product(p, q)) <= 1e-10 * energy(f)
    d = time_limit(f, 1.0)
    r = f.with_values(f.values - d.values)
    assert scalar_inner_product(d, r) == 0.0


def test_energy_ratios_zero_signal(basis36):
    with pytest.raises(ZeroSignal):
        energy_ratios(QSignal.zeros(AX, AX), basis36)


def test_energy_ratios_time_supported(basis36):
    rng = CounterRng(45)
    f = QSignal(AX, AX, rng.normal_field((AX.count, AX.count, 4)))
    mask = region_mask(f, Region.square(0.9))[..., None]
    g = f.with_values(f.values * mask)
    rep = energy_ratios(g, basis36)
    assert rep.xi == pytest.approx(1.0, abs=1e-14)


def test_psi0_extremal_report(basis36):
    rep = ComboSignal.of(basis36, [1.0]).report()
    lam0 = basis36.lambda0
    assert rep.xi ** 2 == pytest.approx(lam0, abs=1e-6)
    assert rep.eta_q == pytest.approx(1.0, abs=1e-6)
    assert abs(rep.angle_sum_deficit) <= 1e-6


def test_bandlimited_bound(basis36):
    rng = CounterRng(46)
    bound = np.sqrt(basis36.lambda0)
    for _ in range(50):
        f = random_bandlimited(basis36.basis1d, rng)
        rep = energy_ratios_band(f, basis36)
        assert rep.xi <= bound + 1e-8
        assert rep.eta_q == 1.0


def test_least_angle(basis36):
    from qpswf.prolate import gram_matrix
    theoretical, achieved = least_angle_check(basis36)
    assert abs(theoretical - achieved) <= 1e-6
    # no pair (psi_n, D_T psi_m) beats the least angle; measure the angles
    # from the time-square Gram: Sc<psi_n, D psi_m> = <psi_n, psi_m>_T and
    # ||D psi_m|| = sqrt(<psi_m, psi_m>_T)
    g_t = gram_matrix(basis36, Region.square(1.0))[..., 0]
    for n in range(6):
        for m in range(6):
            cos_angle = g_t[n, m] / (1.0 * np.sqrt(g_t[m, m]))
            ang = np.arccos(np.clip(cos_angle, -1, 1))
            assert ang >= theoretical - 1e-8
    # angle is scale invariant in the cut factor
    psi0 = basis36[0].values
    cut = time_limit(psi0, 1.0)
    a1 = angle(psi0, cut)
    a2 = angle(psi0, cut.with_values(7.3 * cut.values))
    assert abs(a1 - a2) <= 1e-12


def test_boundary_signals(basis36):
    lam0 = basis36.lambda0
    s0 = np.sqrt(lam0)
    # xi = sqrt(lambda0) collapses to psi_0 itself
    g = build_boundary_signal(s0, basis36)
    assert g.psi[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert g.cut[0, 0] == pytest.approx(0.0, abs=1e-12)
    for xi in (s0, 0.7, 0.9, 0.99):
        rep = build_boundary_signal(xi, basis36).report()
        assert rep.xi == pytest.approx(xi, abs=1e-6)
        assert abs(rep.angle_sum_deficit) <= 1e-6
        assert rep.eta_q == pytest.approx(boundary_eta(xi, lam0), abs=1e-6)
    for bad in (0.3, 1.0, 1.5):
        with pytest.raises(XiOutOfRange):
            build_boundary_signal(bad, basis36)


def test_zero_xi_signal(basis36):
    q = next(i for i in range(1, len(basis36))
             if basis36[i].m % 2 == 0 and basis36[i].n % 2 == 0)
    g = build_zero_xi_signal(q, basis36)
    rep = g.report()
    assert rep.xi <= 1e-10
    assert g.total_energy() == pytest.approx(1.0, abs=1e-8)
    assert rep.eta_q ** 2 == pytest.approx(1.0 - basis36[q].lambda2d, abs=1e-6)
    odd = next(i for i in range(len(basis36)) if basis36[i].m % 2 == 1)
    with pytest.raises(BadIndex):
        build_zero_xi_signal(odd, basis36)


def test_zero_xi_odd_case_reported(basis36):
    # odd-parity analogue: measured band ratio stays physical (<= 1), unlike
    # the formal odd-index expression (1 + lam^2)/(1 - lam) which exceeds 1
    q = next(i for i in range(len(basis36))
             if basis36[i].m % 2 == 1 and basis36[i].n % 2 == 1)
    el = basis36[q]
    s = 1.0 / np.sqrt(1.0 - el.lambda2d)
    g = ComboSignal.of_terms(basis36, [(PSI, q, s), (CUT, q, -s)])
    rep = g.report()
    formal = (1.0 + el.lambda2d ** 2) / (1.0 - el.lambda2d)
    assert formal > 1.0
    assert rep.xi <= 1e-10
    assert rep.eta_q <= 1.0


def test_eta_one_signal(basis36):
    g = build_eta_one_signal(0.3, basis36)
    rep = g.report()
    assert g.total_energy() == pytest.approx(1.0, abs=1e-8)
    assert rep.xi == pytest.approx(0.3, abs=1e-6)
    assert rep.eta_q == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(XiOutOfRange):
        build_eta_one_signal(0.99, basis36)
    # element 1 has lambda ~ 0.036 > xi^2 = 0.0225: not admissible
    with pytest.raises(NoAdmissibleIndex):
        build_eta_one_signal(0.15, basis36, n_index=1)
    for bad in (36, 100, -1, -36):
        with pytest.raises(BadIndex):
            build_eta_one_signal(0.3, basis36, n_index=bad)


def test_reports_on_the_edges_at_t_w_2():
    # T = W = 2 on 512 nodes: psi_0 and the boundary point at xi = sqrt(lambda0) lie on
    # the boundary and an eta-one signal is band-limited, so each reads eta = 1 exactly and
    # its deficit to rounding, where the slope of arccos at 1 would turn one ulp into 2e-8
    basis = build_basis(2.0, 2.0, 512, 4)
    s0 = np.sqrt(basis.lambda0)
    for g in (ComboSignal.of(basis, [1.0]), build_boundary_signal(s0, basis)):
        rep = g.report()
        assert rep.eta_q == 1.0 and abs(rep.angle_sum_deficit) <= 1e-12
    xi = float(np.sqrt((basis[3].lambda2d + basis.lambda0) / 2))
    rep = build_eta_one_signal(xi, basis).report()
    assert rep.eta_q == 1.0
    assert abs(rep.angle_sum_deficit - (np.arccos(xi) - np.arccos(s0))) <= 1e-12


def test_report_with_a_coefficient_inside_the_unit_tolerance():
    # an accepted coeff of modulus 1 - 9e-13 scales every energy alike, or none: psi_0
    # stays on the boundary
    q = Quaternion(*[0.5 * (1 - 9e-13)] * 4)
    rep = ComboSignal.of(build_basis(1.0, 1.0, 128, 6, coeff=q), [1.0]).report()
    assert abs(rep.angle_sum_deficit) <= 1e-12


def test_not_both_limited(basis36):
    # time-limited signals keep eta strictly below 1
    rng = CounterRng(47)
    for _ in range(10):
        nodal = random_time_nodal(basis36.basis1d, rng)
        rep = energy_ratios_time_nodal(nodal, basis36)
        assert rep.xi == 1.0
        assert rep.eta_q < 1.0 - 1e-6


def test_duality_equality_case(basis36):
    # D_T psi_0 attains eta = sqrt(lambda0) among time-limited signals
    b1 = basis36.basis1d
    nodal = ComboSignal.of(basis36, [1.0]).nodal_values()
    rep = energy_ratios_time_nodal(nodal, basis36)
    assert rep.eta_q == pytest.approx(np.sqrt(basis36.lambda0), abs=1e-6)
    # and no random time-limited signal beats it
    rng = CounterRng(48)
    for _ in range(20):
        r = energy_ratios_time_nodal(random_time_nodal(b1, rng), basis36)
        assert r.eta_q <= np.sqrt(basis36.lambda0) + 1e-8


def test_admissibility_mixed(basis36):
    rng = CounterRng(49)
    for s in range(30):
        f = gaussian_mixed_qsignal(AX, AX, CounterRng(900 + s), 1.0, 1.0)
        assert energy_ratios(f, basis36).angle_sum_deficit >= -1e-6
    for _ in range(10):
        rep = energy_ratios_band(random_bandlimited(basis36.basis1d, rng), basis36)
        assert rep.angle_sum_deficit >= -1e-6
    for _ in range(10):
        rep = energy_ratios_time_nodal(random_time_nodal(basis36.basis1d, rng), basis36)
        assert rep.angle_sum_deficit >= -1e-6


def test_modulated_escape(basis36):
    q = next(i for i in range(1, len(basis36))
             if basis36[i].m % 2 == 0 and basis36[i].n % 2 == 0)
    g = QSignal(basis36.ax_x, basis36.ax_y, build_zero_xi_signal(q, basis36).grid_values())
    etas = []
    for r in (0.0, 2.0, 4.0, 8.0, 16.0):
        fm = modulate(g, r)
        rep = energy_ratios(fm, basis36)
        assert rep.xi == 0.0  # modulation preserves pointwise modulus
        etas.append(rep.eta_q)
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert etas[-1] < 0.01


def test_sweep(basis36, monkeypatch):
    # the reports come from the 1D tables: the sweep samples no grid
    calls, grid_values = [], ModalField.grid_values

    def counted_grid_values(self):
        calls.append(self)
        return grid_values(self)

    monkeypatch.setattr(ModalField, "grid_values", counted_grid_values)
    sweep = sweep_admissible_region(basis36)
    assert not calls
    lam0 = basis36.lambda0
    assert sweep.curve[0][1] == pytest.approx(1.0, abs=1e-12)
    assert sweep.curve[-1][1] == pytest.approx(np.sqrt(lam0), abs=1e-12)
    for pt in sweep.points:
        if pt["source"] == "boundary":
            assert abs(pt["angle_sum_deficit"]) <= 1e-6
