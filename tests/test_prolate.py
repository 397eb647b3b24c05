import dataclasses

import numpy as np
import pytest

from qpswf import prolate
from qpswf.errors import (BadIndex, BadParameters, ConvergenceFailure,
                          EigenvalueTooSmall, NonUnitCoefficient, RegionOutOfGrid)
from qpswf.grid import GridAxis, Region
from qpswf.prolate import (build_basis, build_qpswf_basis, build_sinc_operator,
                           eig_prolate_1d, extend_eigenfunction, gram_matrix,
                           lowpass_residual_field, verify_allpass,
                           verify_finite_qft, verify_lowpass)
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


def test_operator_structure():
    n = 64
    a = build_sinc_operator(1.0, 1.0, n)
    assert np.array_equal(a, a.T)
    x, w = np.polynomial.legendre.leggauss(n)
    assert np.allclose(np.diag(a), w * 1.0 / np.pi, rtol=1e-13)
    with pytest.raises(BadParameters):
        build_sinc_operator(1.0, 1.0, 8)
    with pytest.raises(BadParameters):
        build_sinc_operator(-1.0, 1.0, 64)


def test_trace_equals_eigenvalue_sum():
    a = build_sinc_operator(1.0, 1.0, 128)
    lam = np.linalg.eigvalsh(a)
    assert abs(np.trace(a) - lam.sum()) <= 1e-10


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


def _oracle_eigenvalues(c, count, size=30):
    """lambda_0..lambda_{count-1} from a 60-digit solve of the Legendre tridiagonals.

    lambda = (c / 2 pi) mu^2 with mu = sqrt(2) beta_0 / psi(0) for even modes
    and c sqrt(2/3) beta_1 / psi'(0) for odd ones (psi = sum beta_k P_k-bar).
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    c = mp.mpf(c)
    lam = [None] * count
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
    return lam


@pytest.mark.parametrize("c, count", [(0.25, 12), (1.0, 16), (4.0, 24)])
def test_eigenvalues_match_high_precision_oracle(c, count):
    # lambda from the series is relatively accurate however small it is
    mp = pytest.importorskip("mpmath")
    ref = _oracle_eigenvalues(c, count)
    assert ref[-1] < 1e-35
    lam = eig_prolate_1d(c, 1.0, 256, count)._lam_ld
    for k in range(count):
        if ref[k] > 1e-35:
            hi = float(lam[k])
            got = mp.mpf(hi) + mp.mpf(float(lam[k] - np.longdouble(hi)))
            assert abs(got / ref[k] - 1) <= 1e-13, (k, float(ref[k]))


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
        assert np.abs(left - sign * right).max() <= 1e-8
    # slow sinc-tail decay: |phi_0(4T)| is ~0.16 of phi_0(0) at c = 1
    v0 = extend_eigenfunction(basis1d, 0, 0.0)
    v4 = extend_eigenfunction(basis1d, 0, 4.0)
    assert v0 > 0
    assert abs(v4) < 0.2 * v0


def test_extension_floor(basis1d):
    with pytest.raises(EigenvalueTooSmall):
        extend_eigenfunction(basis1d, 6, 0.5)  # lambda_6 ~ 1.7e-13 < floor
    with pytest.raises(BadIndex):
        extend_eigenfunction(basis1d, 99, 0.5)


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


def test_lowpass_random_field_is_not_eigen(basis36):
    rng = CounterRng(31)
    n = len(basis36.basis1d.nodes)
    field = rng.normal_field((n, n, 4))
    assert lowpass_residual_field(field, basis36.basis1d) > 0.1


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
    # requesting more elements than extended precision can evaluate fails loudly
    with pytest.raises(EigenvalueTooSmall):
        build_basis(1.0, 1.0, 128, 100)
    # and after one solve: growing the 1D basis cannot lift a mode above the floor
    calls, solve = [], prolate.eig_prolate_1d

    def counted_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(prolate, "eig_prolate_1d", counted_solve)
    with pytest.raises(EigenvalueTooSmall):
        build_basis(1.0, 1.0, 256, 100)
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
