import contextlib
import dataclasses
import io

import numpy as np
import pytest

from qpswf import cli, prolate
from qpswf.errors import (BadIndex, BadParameters, ConvergenceFailure,
                          EigenvalueTooSmall, NonUnitCoefficient, RegionOutOfGrid)
from qpswf.grid import GridAxis, Region
from qpswf.prolate import (build_basis, build_qpswf_basis, eig_prolate_1d,
                           extend_eigenfunction, gram_matrix, sinc_kernel_ld,
                           verify_allpass, verify_finite_qft, verify_lowpass)
from qpswf.quaternion import Quaternion
from qpswf.rng import CounterRng
from qpswf.signals import element_band_rep

# leading eigenvalues at T = W = 1, frozen from the refined solver and
# cross-checked against node doubling (N = 256 vs 512 agree to ~1e-19)
LAM_1D = [5.725817806378950e-01, 6.279127414980333e-02, 1.2374793284659950e-03,
          9.2009770495693691e-06, 3.7179285580696550e-08, 9.4914367340372458e-11]


@pytest.fixture(scope="module")
def basis1d():
    """The T = W = 1 solve with 8 modes at 256 nodes, shared by tests that only read it."""
    return eig_prolate_1d(1.0, 1.0, 256, 8)


def test_eigenvalues_frozen_and_monotone(basis1d):
    for k, expect in enumerate(LAM_1D):
        assert basis1d.eigvals[k] == pytest.approx(expect, rel=1e-9)
    lam = basis1d.eigvals
    above = lam[lam > 1e-14]
    assert np.all(above > 0) and np.all(above < 1)
    assert np.all(np.diff(above) < 0)


def test_eigenvalue_grid_refinement(basis1d):
    b2 = eig_prolate_1d(1.0, 1.0, 512, 8)
    assert np.abs(basis1d.eigvals - b2.eigvals).max() <= 1e-8


def test_eigenvalue_scale_invariance(basis1d):
    b2 = eig_prolate_1d(2.0, 0.5, 256, 8)
    assert np.abs(basis1d.eigvals[:6] - b2.eigvals[:6]).max() <= 1e-10


def test_jacobi_converges_at_large_concentration():
    # at c = T W = 64 the leading ~40 eigenvalues sit within 1e-9 of 1, so their
    # eigenvectors are only defined by the Legendre tridiagonal of each parity;
    # the Nystrom eigen-residual of the series must still be at long-double level
    b = eig_prolate_1d(8.0, 8.0, 256, 30)
    lam = b.eigvals
    assert np.all(lam > 1 - 1e-8) and np.all(lam <= 1 + 1e-15)
    assert np.all(np.diff(lam) <= 0)
    # the same leading eigenvalues as a solve with a larger refinement block
    assert np.abs(lam - eig_prolate_1d(8.0, 8.0, 256, 45).eigvals[:30]).max() <= 1e-15
    ax = GridAxis.symmetric(1.0, 3)
    kphi = prolate._node_images(prolate._mode_tables(b, 30, ax, ax))[0]
    r = kphi - b._lam_ld[:, None] * b._phi_ld
    rel = np.sqrt((b._w_ld * r * r).sum(axis=1) / (b._w_ld * b._phi_ld ** 2).sum(axis=1))
    assert float(rel.max()) <= 1e-15


# long-double results are compared with 60-digit oracles to this relative bound
LD_TOL = 10 * float(np.finfo(np.longdouble).eps)


def _as_mpf(mp, value):
    """A long double as an mpmath number, exactly: its double part plus the remainder."""
    hi = float(value)
    return mp.mpf(hi) + mp.mpf(float(value - np.longdouble(hi)))


def _oracle_eigenvalues(c, count, size=30):
    """lambda_0..lambda_{count-1} and the series from a 60-digit solve of the Legendre
    tridiagonals.

    lambda = (c / 2 pi) mu^2 with mu = sqrt(2) beta_0 / psi(0) for even modes
    and c sqrt(2/3) beta_1 / psi'(0) for odd ones (psi = sum beta_k P_k-bar).
    Mode n's series is series[n] = (terms, mu_n): terms a list of (degree k, beta_kn),
    signed so that psi(0) > 0 for even n and psi'(0) > 0 for odd n, and mu_n the complex
    finite-Fourier multiplier, mu above times i for odd n.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    c = mp.mpf(c)
    lam, series = [None] * count, [None] * count
    for parity in (0, 1):
        ks = [parity + 2 * i for i in range(size)]
        a = mp.zeros(size, size)
        for i, k in enumerate(ks):
            a[i, i] = k * (k + 1) + c ** 2 * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
            if i + 1 < size:
                a[i, i + 1] = a[i + 1, i] = c ** 2 * (k + 2) * (k + 1) / (
                    (2 * k + 3) * mp.sqrt((2 * k + 1) * (2 * k + 5)))
        chi, v = mp.eigsy(a)
        order = sorted(range(size), key=lambda j: chi[j])
        for mode in range(parity, count, 2):
            beta = [v[i, order[mode // 2]] for i in range(size)]
            if parity == 0:
                at0 = mp.fsum(b * mp.sqrt(k + 0.5) * mp.legendre(k, 0) for b, k in zip(beta, ks))
                mu = mp.sqrt(2) * beta[0] / at0
            else:
                at0 = mp.fsum(b * mp.sqrt(k + 0.5) * k * mp.legendre(k - 1, 0)
                              for b, k in zip(beta, ks))
                mu = c * mp.sqrt(mp.mpf(2) / 3) * beta[0] / at0
            lam[mode] = c / (2 * mp.pi) * mu ** 2
            series[mode] = ([(k, b * mp.sign(at0)) for k, b in zip(ks, beta)],
                            mu * mp.mpc(0, 1) ** parity)
    return lam, series


@pytest.mark.parametrize("c, count", [(0.25, 12), (1.0, 16), (4.0, 24), (0.0625, 10)])
def test_eigenvalues_match_high_precision_oracle(c, count):
    # lambda from the series is relatively accurate however small it is; c = 0.0625
    # is the T = W = 0.25 config
    mp = pytest.importorskip("mpmath")
    ref = _oracle_eigenvalues(c, count)[0]
    assert ref[-1] < 1e-35
    lam = eig_prolate_1d(c, 1.0, 256, count)._lam_ld
    for k in range(count):
        if ref[k] > 1e-35:
            assert abs(_as_mpf(mp, lam[k]) / ref[k] - 1) <= 1e-13, (k, float(ref[k]))
    # lambda_0 to long-double rounding: the formula's pi is the long-double pi
    assert abs(_as_mpf(mp, lam[0]) / ref[0] - 1) <= LD_TOL


@pytest.mark.parametrize("c, count", [(0.25, 12), (1.0, 16), (4.0, 24)])
def test_extension_matches_high_precision_oracle(c, count):
    # phi_k(x) = sqrt(lambda_k / T) psi_k(x / T) off [-T, T] (T = c, W = 1) against the
    # 60-digit series' finite-Fourier image, mu_n psi_n(t) = sum_k beta_kn sqrt(k + 1/2)
    # 2 i^k j_k(c t) with the oracle's own mu_n and j_k = sqrt(pi / 2z) J_{k+1/2}(z), for
    # every mode with lambda above 1e-35, to 1e-15 of max|phi_k| (sampled out to 4T + 40 / W,
    # past the peak of every mode here).  The far points 200T and 10^4 T take the upward
    # recurrence, the others the backward one
    mp = pytest.importorskip("mpmath")
    lam, series = _oracle_eigenvalues(c, count)
    b = eig_prolate_1d(c, 1.0, 256, count)
    x = c * np.concatenate([np.linspace(1, 4, 13), [200, 1e4]])
    for n in range(count):
        if not lam[n] > 1e-35:
            continue
        terms, mu = series[n]
        want = [mp.sqrt(lam[n] / c) * mp.re(mp.fsum(
            b_k * mp.sqrt(k + 0.5) * 2 * mp.mpc(0, 1) ** k * mp.sqrt(mp.pi / (2 * z))
            * mp.besselj(k + 0.5, z) for k, b_k in terms) / mu) for z in map(mp.mpf, x)]
        got = b.extend_ld(n, x)
        err = max(abs(_as_mpf(mp, g) - w) for g, w in zip(got, want))
        peak = float(np.abs(b.extend_ld(n, np.linspace(0, 4 * c + 40, 2001))).max())
        assert err <= 1e-15 * peak, (n, float(lam[n]))


def test_bessel_sums_match_mpmath():
    # j_0..j_79 by both recurrences: at 0 exactly (j_0 = 1, the rest +0.0), below the
    # double range, beside the switch at z = 80 and far above it; in the backward one the
    # rescaling by powers of two keeps (2k + 1)!! in range
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    z = np.array([0, 1e-300, 1e-3, 1, np.pi, 79.5, 80, 80.5, 1e3, 1e12], dtype=np.longdouble)
    got = prolate._bessel_sums(np.eye(80, dtype=np.longdouble), z)
    assert got[0, 0] == 1 and not got[1:, 0].any() and not np.signbit(got[:, 0]).any()
    for i, zi in enumerate(z[1:], 1):
        zm = _as_mpf(mp, zi)
        want = [mp.sqrt(mp.pi / (2 * zm)) * mp.besselj(k + 0.5, zm) for k in range(80)]
        err = max(abs(_as_mpf(mp, g) - w) for g, w in zip(got[:, i], want))
        assert err <= 1e-17 * max(map(abs, want)), float(zi)


@pytest.mark.parametrize("w_half", [1.0, 1.3, 20.0])
def test_sinc_kernel_limit_is_long_double(w_half):
    # the d = 0 limit W / pi, to long-double rounding
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    got = _as_mpf(mp, sinc_kernel_ld(0.0, w_half)[()])
    assert abs(got / (mp.mpf(w_half) / mp.pi) - 1) <= LD_TOL


@pytest.mark.parametrize("w_half", [1.0, 20.0, 200.0])
@pytest.mark.parametrize("wd", [0.99e-8, 1.01e-8], ids=["series", "sine"])
def test_sinc_kernel_beside_the_series_switch_is_long_double(w_half, wd):
    # the series branch switches on |W d| < 1e-8, just inside and just outside of which
    # both branches keep long-double accuracy whatever W is
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    d = np.longdouble(wd) / np.longdouble(w_half)
    exact = mp.sin(w_half * _as_mpf(mp, d)) / (mp.pi * _as_mpf(mp, d))
    assert abs(_as_mpf(mp, sinc_kernel_ld(d, w_half)[()]) / exact - 1) <= 1e-18


GAUSS_NS = list(range(1, 41)) + [64, 255, 256, 257, 512, 2048]


@pytest.mark.parametrize("n", GAUSS_NS)
def test_gauss_rule_is_mirrored_and_matches_leggauss(n):
    x, w = prolate._gauss_unit_ld(n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # numpy's nodes carry an absolute error of about eps/4 (a few ulps of the
    # nodes nearest 0), so the comparison is in ulps of 1, the scale of [-1, 1]
    ref = np.polynomial.legendre.leggauss(n)[0]
    assert np.abs(x - ref).max() <= 2 * np.finfo(np.float64).eps
    assert abs(w.sum() - 2) <= 8 * np.finfo(np.longdouble).eps


def test_gauss_rule_that_does_not_converge_is_convergence_failure(monkeypatch):
    # one Newton step from Tricomi's nodes is not enough at any n
    monkeypatch.setattr(prolate, "_NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceFailure, match="64-node Gauss rule"):
        prolate._gauss_unit_ld.__wrapped__(64)


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_every_eigenvalue_is_nonnegative_and_non_increasing(c):
    lam = eig_prolate_1d(c, 1.0, 256, 256).eigvals
    assert np.all(lam >= 0)
    assert np.all(np.diff(lam)[lam[1:] > 1e-60] <= 0)


def test_solve_forms_no_kernel(monkeypatch):
    def fail(*args):
        raise AssertionError("the solve formed a sinc kernel")
    monkeypatch.setattr(prolate, "sinc_kernel_ld", fail)
    assert eig_prolate_1d(1.0, 1.0, 256, 8).count == 8


def test_basis_command_forms_no_kernel(tmp_path, monkeypatch):
    # the grid table is the series' image, so basis at the default config forms no kernel
    def fail(*args):
        raise AssertionError("basis formed a sinc kernel")
    monkeypatch.setattr(prolate, "sinc_kernel_ld", fail)
    cfg = cli._read_table({}, cli.CONFIG, "config")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_basis(cfg, tmp_path) == 0


def test_count_validation():
    with pytest.raises(BadParameters):
        eig_prolate_1d(1.0, 1.0, 32, 40)


@pytest.mark.parametrize("t_half, n, count", [(1.0, 64, 0), (1.0, 64, -3), (1.0, 64, 4.5),
                                              (1.0, 64.0, 4), (np.inf, 64, 4)])
def test_inputs_the_solve_cannot_handle_are_bad_parameters(t_half, n, count):
    with pytest.raises(BadParameters):
        eig_prolate_1d(t_half, 1.0, n, count)


def test_quadrature_too_small_for_c():
    # 256 Gauss nodes integrate exp(2ict) to 2e-15 at c = 215, not at c = 230
    eig_prolate_1d(215.0, 1.0, 256, 8)
    for t_half, w_half in ((230.0, 1.0), (50.0, 50.0)):
        with pytest.raises(BadParameters):
            eig_prolate_1d(t_half, w_half, 256, 8)


def test_tridiagonal_solver_failure_is_convergence_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("no convergence")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure):
        eig_prolate_1d(1.0, 1.0, 64, 4)


def test_series_that_has_not_decayed_is_convergence_failure(monkeypatch, tmp_path, capsys):
    # the series length is fixed once; flat coefficients stand in for a too-short series
    from qpswf import cli

    def flat(c, parity, size, keep):
        return np.full((size, keep), 1 / np.sqrt(size), dtype=np.longdouble)

    monkeypatch.setattr(prolate, "_parity_eigvecs", flat)
    with pytest.raises(ConvergenceFailure, match="within 21 terms per parity"):
        eig_prolate_1d(1.0, 1.0, 64, 8)
    assert cli.main(["--output", str(tmp_path / "b"), "basis"]) == 3
    assert capsys.readouterr().err.startswith("ERROR 3 eigensolver: Legendre series of c = 1 ")


def test_extension_matches_nodes(basis1d):
    for k in (0, 1, 3):
        at_nodes = extend_eigenfunction(basis1d, k, basis1d.nodes[::50])
        assert np.abs(at_nodes - basis1d.eigvecs[k][::50]).max() <= 1e-10


def test_extension_parity_and_decay(basis1d):
    xs = np.linspace(0.1, 3.5, 40)
    for k in range(4):
        left = extend_eigenfunction(basis1d, k, -xs)
        right = extend_eigenfunction(basis1d, k, xs)
        sign = 1.0 if k % 2 == 0 else -1.0
        assert np.array_equal(left, sign * right)
    # slow sinc-tail decay: |phi_0(4T)| is ~0.16 of phi_0(0) at c = 1
    v0 = extend_eigenfunction(basis1d, 0, 0.0)
    v4 = extend_eigenfunction(basis1d, 0, 4.0)
    assert v0 > 0
    assert abs(v4) < 0.2 * v0


def test_parity_tables_match_full_nystrom_sums(basis1d):
    # the I_k of _node_images sum at the distinct |x| and sign by parity (K phi_k at the
    # nodes is a full sum); a full sum at every point differs from that only in its order.
    # extend_ld is the series' image, and the full Nystrom extension, the kernel sum divided
    # by lambda_k, meets it to that sum's rounding amplified by 1/lambda_k
    b, ld = basis1d, np.longdouble
    x = GridAxis.symmetric(4.0, 257).samples().astype(ld)
    kern = sinc_kernel_ld(x[:, None] - b._x_ld, b.w_half)
    node_kern = sinc_kernel_ld(b._x_ld[:, None] - b._x_ld, b.w_half)
    cr = ld(b.w_half) / ld(b.t_half)
    four = np.exp(1j * (cr * b._x_ld[:, None] * b._x_ld).astype(np.clongdouble))
    ax = GridAxis.symmetric(1.0, 3)
    kphi, fphi = prolate._node_images(prolate._mode_tables(b, b.count, ax, ax))
    eps = float(np.finfo(ld).eps)
    for k in range(b.count):
        wphi, scale, lam = b._w_ld * b._phi_ld[k], np.abs(b._phi_ld[k]).max(), b._lam_ld[k]
        assert np.abs(kphi[k] - node_kern @ wphi).max() <= 1e-15 * scale
        assert np.abs(fphi[k] - four @ wphi).max() <= 1e-15 * scale
        gap = np.abs(b.extend_ld(k, x) - kern @ wphi / lam).max()
        assert gap * lam <= 8 * eps * scale, k
        assert lam < 1e-5 or gap <= 1e-15 * scale, k


def test_extension_floor(basis1d):
    # the image divides by no eigenvalue: lambda_6 ~ 1.7e-13 evaluates, at a node too
    assert extend_eigenfunction(basis1d, 6, 0.5) != 0
    assert extend_eigenfunction(basis1d, 6, basis1d.nodes[40]) == pytest.approx(
        basis1d.eigvecs[6][40], abs=1e-15 * np.abs(basis1d.eigvecs[6]).max())
    with pytest.raises(BadIndex):
        extend_eigenfunction(basis1d, 99, 0.5)


@pytest.mark.parametrize("k", [1.5, 2.0, True], ids=["fraction", "float", "bool"])
def test_extension_rejects_a_mode_that_is_not_an_int(basis1d, k):
    with pytest.raises(BadIndex):
        extend_eigenfunction(basis1d, k, 0.5)


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, [0.5, np.inf]],
                         ids=["inf", "-inf", "nan", "array"])
def test_extension_rejects_a_point_that_is_not_finite(basis1d, x):
    with pytest.raises(BadParameters, match="finite"):
        extend_eigenfunction(basis1d, 0, x)


def test_sign_convention_and_mu_phases(basis1d):
    assert extend_eigenfunction(basis1d, 0, 0.0) > 0
    # mu_k carries the phase i^k under this sign convention
    for k in range(5):
        mu = basis1d.mu[k]
        phase = 1j ** k
        aligned = (mu / phase).real
        assert aligned > 0
        assert abs((mu / phase).imag) <= 1e-12 * abs(mu)


@pytest.mark.parametrize("c", [1.0, 16.0])
def test_sign_convention_every_mode(c):
    # phi_k(0) > 0 for even k and phi_k'(0) > 0 for odd k; mu_k is blind to the
    # sign, and the raw eigenvector signs vary with c and k
    b = eig_prolate_1d(c, 1.0, 256, 12)
    for k in range(12):
        if b.eigvals[k] > 1e-10:
            left, mid, right = b.extend_ld(k, [-1e-3, 0.0, 1e-3])
            assert (mid if k % 2 == 0 else right - left) > 0, k


def test_deterministic_rebuild():
    b1 = eig_prolate_1d(1.0, 1.0, 128, 6)
    b2 = eig_prolate_1d(1.0, 1.0, 128, 6)
    assert np.array_equal(b1.eigvecs, b2.eigvecs)
    assert np.array_equal(b1.eigvals, b2.eigvals)


def test_basis_construction(basis36):
    lam = basis36.eigenvalues()
    assert basis36[0].m == 0 and basis36[0].n == 0
    assert lam[0] == pytest.approx(LAM_1D[0] ** 2, rel=1e-10)
    assert np.all(np.diff(lam) <= 1e-18)
    # ties broken lexicographically
    assert (basis36[1].m, basis36[1].n) == (0, 1)
    assert (basis36[2].m, basis36[2].n) == (1, 0)


def test_basis_coefficient_validation(basis_small):
    with pytest.raises(NonUnitCoefficient):
        build_qpswf_basis(basis_small.basis1d, 4, coeff=Quaternion(1, 1, 0, 0))


@pytest.mark.parametrize("w", [1e200, -1e200, np.nan])
def test_coefficient_whose_modulus_cannot_be_formed_is_non_unit(w):
    # a component above 1 is rejected before modulus() squares it, and NaN fails the check
    with pytest.raises(NonUnitCoefficient):
        build_basis(1.0, 1.0, 64, 4, coeff=Quaternion(w, 0, 0, 0))


def test_element_norms(basis36):
    # whole-plane norm 1, time-square energy lambda
    b1 = basis36.basis1d
    for q in (0, 1, 5, 11):
        el = basis36[q]
        assert element_band_rep(el).total_energy() == pytest.approx(1.0, abs=1e-8)
        s = np.outer(b1.eigvecs[el.m], b1.eigvecs[el.n])
        e_t = np.einsum("i,j,ij->", b1.weights, b1.weights, s * s)
        assert e_t == pytest.approx(el.lambda2d, abs=1e-8)


def test_lowpass_residuals(basis36):
    for el in basis36.items:
        if el.above_floor:
            assert verify_lowpass(el) <= 1e-8
    below = [el for el in basis36.items if not el.above_floor]
    assert below, "expected some below-floor elements at c = 1"
    with pytest.raises(EigenvalueTooSmall):
        verify_lowpass(below[0])


def test_reflections_remain_eigenfunctions(basis36):
    # tensor elements have definite parity: each reflection is +-psi, so the
    # residual is unchanged; nonzero parity combinations double the element
    el = basis36.by_modes(1, 0)
    base = verify_lowpass(el)
    assert base <= 1e-8
    b1 = basis36.basis1d
    phi_m_ref = b1.eigvecs[el.m][::-1]  # phi_m(-x) on the symmetric nodes
    assert np.abs(phi_m_ref + b1.eigvecs[el.m]).max() <= 1e-8  # odd in x
    # e^2-combination psi(x,y) + psi(x,-y): for n = 0 (even in y) it is 2 psi
    comb = el.values.values + el.values.values[:, ::-1, :]
    assert np.abs(comb - 2 * el.values.values).max() <= 1e-12
    # oo-combination psi - psi(-x,-y) is also 2 psi here (odd total parity)
    comb2 = el.values.values - el.values.values[::-1, ::-1, :]
    assert np.abs(comb2 - 2 * el.values.values).max() <= 1e-12


def test_finite_qft_residuals(basis36):
    psi0 = basis36[0]
    chk = verify_finite_qft(psi0)
    assert chk.residual <= 1e-6
    assert chk.relation_residual <= 1e-6
    assert chk.mu_x.real > 0 and abs(chk.mu_x.imag) < 1e-12
    assert chk.mu_y.real > 0 and abs(chk.mu_y.imag) < 1e-12
    # (1, 0): the x-axis multiplier carries the i^1 phase
    el10 = basis36.by_modes(1, 0)
    chk10 = verify_finite_qft(el10)
    assert chk10.residual <= 1e-6
    assert abs(chk10.mu_x.real) < 1e-12 * abs(chk10.mu_x)
    assert chk10.mu_x.imag > 0


def test_checks_do_not_restate_the_solve(basis36):
    # a solve whose lambda is off by 1e-8 relative, with mu off consistently with
    # it, shows in both checks that compare with it
    b = basis36.basis1d
    lam, mu = b._lam_ld * (1 + np.longdouble(1e-8)), b._mu_ld * np.sqrt(1 + np.longdouble(1e-8))
    off = build_qpswf_basis(dataclasses.replace(b, _lam_ld=lam, eigvals=lam.astype(float),
                                                _mu_ld=mu, mu=mu.astype(complex)), 4)
    for el in off.items:
        assert 0.5e-8 <= verify_lowpass(el) <= 4e-8
        assert 0.5e-8 <= verify_finite_qft(el).relation_residual <= 4e-8


def test_allpass_residual_tail_certified(basis36):
    psi0 = basis36[0]
    chk = verify_allpass(psi0, window_halfwidth=4.0)
    assert chk.residual <= chk.tail_bound + 1e-4
    # residual shrinks monotonically as the window grows
    r = [verify_allpass(psi0, window_halfwidth=h).residual for h in (2.0, 4.0, 6.0)]
    assert r[0] > r[1] > r[2]


def _toeplitz_window(tables, h):
    """The all-pass window images as one whole gather of the sinc at the lags (p - q) step,
    with phi_k on the window from its own extension."""
    b, ld = tables.basis1d, np.longdouble
    count = max(257, 1 + 2 * int(np.ceil(h * b.w_half / (0.9 * np.pi))))
    ax = GridAxis.symmetric(h, count)
    wt = ax.trapezoid_weights().astype(ld)
    phi = b.extend_ld(np.arange(len(tables.band)), ax.samples())
    lags = sinc_kernel_ld(ld(ax.step) * np.arange(1 - count, count), b.w_half)
    idx = np.arange(count)
    return wt, phi, (wt * phi) @ lags[idx[:, None] - idx + count - 1].T


@pytest.mark.parametrize("t, w, halfwidth, grid_n, count", [(1, 1, 4.0, 257, 36),
                                                            (10, 20, 10.0, 129, 4)],
                         ids=["default", "c200"])
def test_window_images_are_the_toeplitz_gather(t, w, halfwidth, grid_n, count):
    # the window's kernel sums read the Toeplitz lags by sample index, and phi_k on the
    # window is the grid table of its axis: at c = 200 the window has 567 samples
    ax = GridAxis.symmetric(halfwidth, grid_n)
    tables = build_basis(t, w, 256, count, grid=(ax, ax)).tables
    h = 4.0 * t
    for got, want in zip(prolate._window_images(tables, h), _toeplitz_window(tables, h)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_kernel_sums_do_not_depend_on_the_blocks(basis1d, monkeypatch):
    # grid tables, node images and window images, from one-row blocks and from one block
    m = basis1d.count
    ax = GridAxis.symmetric(4.0, 129)

    def images(blocks):
        monkeypatch.setattr(prolate, "_row_blocks", blocks)
        tables = prolate._mode_tables(basis1d, m, ax, ax)
        return [tables.ext_x, *prolate._node_images(tables),
                *prolate._window_images(tables, 4.0)]
    rows = images(lambda n, *_: (slice(i, i + 1) for i in range(n)))
    whole = images(lambda n, *_: iter([slice(0, n)]))
    assert all(np.array_equal(a, b) for a, b in zip(rows, whole))


def test_verify_extends_each_mode_once(tmp_path, monkeypatch):
    # at the default config the all-pass window is the element grid's axis, so verify
    # reads the grid table the element files were compared with
    calls = []
    extend = prolate.ProlateBasis1D.extend_ld

    def counted(self, k, x):
        calls.append(len(x))
        return extend(self, k, x)
    cfg = cli._read_table({}, cli.CONFIG, "config")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_basis(cfg, tmp_path / "b") == 0
        monkeypatch.setattr(prolate.ProlateBasis1D, "extend_ld", counted)
        assert cli.cmd_verify(cfg["tol"], tmp_path / "v", tmp_path / "b" / "manifest.json") == 0
    assert calls == [257]


def test_gram_time_square(basis36):
    g = gram_matrix(basis36, Region.square(1.0))
    k = len(basis36)
    lam = basis36.eigenvalues()
    for p in range(k):
        for q in range(k):
            expect = lam[p] if p == q else 0.0
            assert abs(g[p, q, 0] - expect) <= 1e-8
            assert np.abs(g[p, q, 1:]).max() == 0.0
    # hermitian: real symmetric here
    assert np.abs(g[..., 0] - g[..., 0].T).max() <= 1e-18
    with pytest.raises(RegionOutOfGrid):
        gram_matrix(basis36, Region.square(0.5))


def test_gram_whole_plane(basis36):
    g = gram_matrix(basis36, Region.full())
    k = len(basis36)
    eye = np.zeros_like(g)
    eye[np.arange(k), np.arange(k), 0] = 1.0
    assert np.abs(g - eye).max() <= 1e-8


def test_completeness_proxy(basis36):
    # random genuinely band-limited signals are captured by the leading
    # elements; the coefficient tail beyond the representable block is
    # negligible, so K = 36 already leaves residual ~1e-14
    from qpswf.signals import project_on_basis, random_bandlimited
    rng = CounterRng(33)
    for _ in range(3):
        f = random_bandlimited(basis36.basis1d, rng)
        coeffs = project_on_basis(f, basis36)
        captured = float(np.sum(coeffs * coeffs)) / f.total_energy()
        assert captured >= 1.0 - 1e-4
        assert captured <= 1.0 + 1e-9


def test_build_basis_selection_safety(monkeypatch):
    # a selection that needs a mode whose lambda the solve does not resolve fails loudly:
    # at c = 1 the top 144 products need mode 13, lambda = 8.7e-36 <= 1e-35
    with pytest.raises(EigenvalueTooSmall, match="1D mode 13 "):
        build_basis(1.0, 1.0, 128, 144)
    # and after one solve: growing the 1D basis cannot lift a mode above the limit
    calls, solve = [], prolate.eig_prolate_1d

    def counted_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(prolate, "eig_prolate_1d", counted_solve)
    with pytest.raises(EigenvalueTooSmall):
        build_basis(1.0, 1.0, 256, 144)
    assert len(calls) == 1


def test_build_basis_grows_the_1d_basis_when_the_selection_is_incomplete(monkeypatch):
    # c = 7, 169 = 13^2 elements (a config the CLI accepts at quad_n 338): with the
    # first 15 modes the smallest selected product, 8.786e-15, lies below
    # lambda_0 lambda_14 = 8.793e-15, so a product with mode 15 could still belong
    # to the selection; the build re-solves with 19 modes, whose bound clears it
    solves, solve = [], prolate.eig_prolate_1d

    def counted_solve(*args):
        solves.append(solve(*args))
        return solves[-1]

    monkeypatch.setattr(prolate, "eig_prolate_1d", counted_solve)
    ax = GridAxis.symmetric(1.0, 3)
    basis = build_basis(1.0, 7.0, 338, 169, grid=(ax, ax))
    assert [b.count for b in solves] == [15, 19] and basis.basis1d is solves[1]
    with pytest.raises(BadParameters, match="too short to order"):
        build_qpswf_basis(solves[0], 169, grid=(ax, ax))
    lam = basis.basis1d.eigvals
    assert basis.eigenvalues()[-1] >= lam[0] * lam[-1]
    assert len(basis.tables.band) == 15  # modes 15..18 only bound the selection
