"""Basis combinations in modal form against per-element reference loops.

Each reference below builds a quantity one element (or one element pair)
at a time from the 1D eigendata, the way the library did before
combinations became (m, n) coefficient matrices over 1D factor tables.
"""

import numpy as np
import pytest

from qpswf.concentration import (CUT, PSI, ComboSignal, build_boundary_signal,
                                 build_zero_xi_signal)
from qpswf.errors import BadIndex, BadParameters, LengthMismatch
from qpswf.extrapolate import (closed_form_band_spectra, closed_form_iterate,
                               make_synthetic_problem)
from qpswf.grid import GridAxis, Region, region_mask
from qpswf.prolate import build_basis, gram_matrix
from qpswf.quaternion import Quaternion, q_mul
from qpswf.rng import CounterRng
from qpswf.signals import band_rule, project_on_basis, random_bandlimited

_LD = np.longdouble
_UNITS = [Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
          Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)]


def _close(a, b, scale=None, tol=1e-12):
    scale = np.abs(b).max() if scale is None else scale
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) <= tol * scale


def _axis_band(b, k):
    """sqrt(w_u / 2 pi) F(phi_k)(u) with F(phi_k)(u) = (mu_k / lambda_k) phi_k(-u / c)."""
    _, w = band_rule(b)
    return np.sqrt(w / (2 * np.pi)) * (b.mu[k] / b.eigvals[k]) * b.eigvecs[k][::-1].astype(complex)


def _axis_cut(b, k):
    """sqrt(w_u / 2 pi) times the Fourier transform of phi_k restricted to [-T, T]."""
    u, w = band_rule(b)
    ker = np.exp(-1j * np.outer(u, b.nodes)) * b.weights[None, :]
    return np.sqrt(w / (2 * np.pi)) * (ker @ b.eigvecs[k].astype(complex))


def _element_spectra(el, axis):
    b = el.basis1d
    return el.coeff.as_array()[:, None, None] \
        * np.outer(axis(b, el.m), axis(b, el.n))[None, ...]


def _gram_1d(b, a, c, line):
    """<phi_a, phi_c> on [-T, T], or on the whole line by self-similarity."""
    g = (b._w_ld * b._phi_ld[a] * b._phi_ld[c]).sum()
    if not line:
        return g
    cr = _LD(b.w_half) / _LD(b.t_half)
    scale = cr / (2 * _LD(np.pi)) * b._mu_ld[a] * np.conj(b._mu_ld[c]) \
        / (b._lam_ld[a] * b._lam_ld[c])
    return np.real(scale * g)


def _reference_combo(basis, terms):
    """Spectra, nodal values, energies and grid values, term by term."""
    b = basis.basis1d
    spectra = sum(r * _element_spectra(basis[q], _axis_band if kind == PSI else _axis_cut)
                  for kind, q, r in terms)
    nodal = sum(r * np.outer(b.eigvecs[basis[q].m], b.eigvecs[basis[q].n])
                for _, q, r in terms)
    time_energy = float(np.einsum("i,j,ij->", b.weights, b.weights, nodal * nodal))
    total = 0.0
    for kind_a, qa, ra in terms:
        for kind_b, qb, rb in terms:
            line = kind_a == PSI and kind_b == PSI
            ea, eb = basis[qa], basis[qb]
            total += ra * rb * float(_gram_1d(b, ea.m, eb.m, line)
                                     * _gram_1d(b, ea.n, eb.n, line))
    mask = region_mask(basis[0].values, Region.square(basis.t_half))[..., None]
    values = sum(r * basis[q].values.values * (mask if kind == CUT else 1.0)
                 for kind, q, r in terms)
    return spectra, nodal[..., None] * basis.coeff.as_array(), time_energy, total, values


def _zero_xi_index(basis):
    return next(i for i in range(1, len(basis))
                if basis[i].m % 2 == 0 and basis[i].n % 2 == 0)


@pytest.mark.parametrize("kind", ["boundary", "zero_xi", "mixed"])
def test_combo_matches_term_loops(basis36, kind):
    if kind == "boundary":
        g = build_boundary_signal(0.9, basis36)
    elif kind == "zero_xi":
        g = build_zero_xi_signal(_zero_xi_index(basis36), basis36)
    else:
        g = ComboSignal.of_terms(basis36, [(PSI, 0, 0.7), (CUT, 3, -0.4), (PSI, 7, 0.2),
                                           (CUT, 0, 0.3), (PSI, 3, 0.1)])
    terms = [(kind, q, mat[m, n]) for kind, mat in ((PSI, g.psi), (CUT, g.cut))
             for q, (m, n) in enumerate(basis36.modes) if mat[m, n]]
    spectra, nodal, time_energy, total, values = _reference_combo(basis36, terms)
    assert _close(g.band_rep().spectra, spectra)
    assert _close(g.nodal_values(), nodal, scale=np.abs(values).max())
    assert _close(g.total_energy(), total)
    assert _close(g.time_energy(), time_energy, scale=total)
    assert _close(g.grid_values(), values)


def test_synthetic_truth_matches_element_loops(basis36):
    coeffs = CounterRng(61).normal(10)
    synth = make_synthetic_problem(basis36, coeffs).synthetic
    b = basis36.basis1d
    spectra = sum(a * _element_spectra(basis36[j], _axis_band) for j, a in enumerate(coeffs))
    nodal = sum(a * np.outer(b.eigvecs[basis36[j].m], b.eigvecs[basis36[j].n])[..., None]
                * basis36[j].coeff.as_array() for j, a in enumerate(coeffs))
    assert _close(synth.band_rep().spectra, spectra)
    assert _close(synth.nodal_values(), nodal)


def test_closed_form_matches_element_loops(basis36):
    coeffs = CounterRng(62).normal(12)
    lams = basis36.eigenvalues()[:12]
    weights = coeffs * (1.0 - (1.0 - lams) ** 7)
    spectra = sum(w * _element_spectra(basis36[j], _axis_band) for j, w in enumerate(weights))
    values = sum(w * basis36[j].values.values for j, w in enumerate(weights))
    assert _close(closed_form_band_spectra(coeffs, lams, 7, basis36), spectra)
    assert _close(closed_form_iterate(coeffs, lams, 7, basis36).values, values)


def test_project_on_basis_matches_element_loop(basis36):
    f = random_bandlimited(basis36.basis1d, CounterRng(63))
    expect = np.zeros((len(basis36), 4))
    for q, el in enumerate(basis36.items):
        rep = _element_spectra(el, _axis_band)
        prods = np.einsum("cij,pij->cp", f.spectra, np.conj(rep)).real
        expect[q] = sum(prods[c, p] * q_mul(_UNITS[c], _UNITS[p].conj()).as_array()
                        for c in range(4) for p in range(4))
    assert _close(project_on_basis(f, basis36), expect)
    assert _close(project_on_basis(f, basis36, count=5), expect[:5])


@pytest.mark.parametrize("region", [Region.full(), Region.square(1.0)])
def test_gram_matrix_matches_pair_loop(basis36, region):
    b = basis36.basis1d
    line = region == Region.full()
    expect = np.zeros((len(basis36), len(basis36), 4))
    for p, ea in enumerate(basis36.items):
        for q, eb in enumerate(basis36.items):
            expect[p, q, 0] = float(_gram_1d(b, ea.m, eb.m, line) * _gram_1d(b, ea.n, eb.n, line))
    assert _close(gram_matrix(basis36, region), expect)


@pytest.mark.parametrize("tw", [1.0, 2.0, 5.0])
def test_whole_line_gram_matches_self_similarity(basis36, tw):
    # the band rule's Gram of the band table against the long-double
    # finite-Fourier self-similarity form of the whole-line Gram
    basis = basis36 if tw == 1.0 else build_basis(tw, tw, 256, 36)
    b, m = basis.basis1d, len(basis.tables.band)
    expect = np.array([[_gram_1d(b, a, c, True) for c in range(m)] for a in range(m)])
    assert float(np.abs(basis.tables.gram_r - expect).max()) <= 1e-15


def test_coefficients_must_be_a_basis_prefix(basis36):
    lams = basis36.eigenvalues()
    for bad in (np.ones(len(basis36) + 1), np.ones((2, 3))):
        with pytest.raises(LengthMismatch):
            ComboSignal.of(basis36, bad)
        with pytest.raises(LengthMismatch):
            ComboSignal.of(basis36, [1.0], bad)
        with pytest.raises(LengthMismatch):
            closed_form_band_spectra(bad, np.full(bad.shape, 0.5), 3, basis36)
    with pytest.raises(LengthMismatch):
        closed_form_band_spectra([1.0, 2.0], lams[:1], 3, basis36)


def test_terms_must_name_basis_elements(basis_small):
    # -1 would set the last element and "junk" would pass for PSI
    for terms, error in (([(PSI, -1, 1.0)], BadIndex), ([(PSI, 6, 1.0)], BadIndex),
                         ([(CUT, 0, 1.0), ("junk", 1, 1.0)], BadParameters)):
        with pytest.raises(error):
            ComboSignal.of_terms(basis_small, terms)
    g = ComboSignal.of_terms(basis_small, [(PSI, 5, 1.0), (CUT, 0, 2.0)])
    assert g.psi[tuple(basis_small.modes[5])] == 1.0 and g.cut[0, 0] == 2.0


def test_element_values_are_the_long_double_outer_product(basis36):
    ax_x, ax_y = GridAxis.symmetric(4.0, 65), GridAxis.symmetric(3.0, 41)
    small = build_basis(1.0, 1.0, 128, 6, grid=(ax_x, ax_y))
    for basis in (basis36, small):
        b = basis.basis1d
        x, y = basis.ax_x.samples(), basis.ax_y.samples()
        for el in basis.items:
            outer = (b.extend_ld(el.m, x)[:, None] * b.extend_ld(el.n, y)[None, :])
            expect = outer.astype(np.float64)[..., None] * el.coeff.as_array()[None, None, :]
            assert np.array_equal(el.values.values, expect)
