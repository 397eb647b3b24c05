"""Allocation peaks of the basis path: kernels and element grids are built in row blocks."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from qpswf import cli
from qpswf.concentration import build_boundary_signal
from qpswf.grid import GridAxis
from qpswf.prolate import _gauss_unit_ld, build_basis, build_qpswf_basis, eig_prolate_1d

_LD_BYTES = np.dtype(np.longdouble).itemsize
_MB = 2 ** 20


def _peak(fn, *args, **kwargs):
    """Peak bytes that fn allocates on top of what is live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def solve_512():
    return eig_prolate_1d(2.0, 2.0, 512, 8)


def test_gauss_rule_polish_keeps_two_legendre_rows():
    # the Newton polish adds a few length-n vectors to what leggauss itself allocates,
    # not the (n + 1) x n table of P_0..P_n
    n = 512
    own = _peak(np.polynomial.legendre.leggauss, n)
    assert _peak(_gauss_unit_ld.__wrapped__, n) <= own + 16 * n * _LD_BYTES


def test_solve_peaks_below_one_kernel(solve_512):
    # the solve forms no kernel and no (degrees, N) Legendre table: phi_k is summed
    # one degree at a time, so a few (count, N) arrays are live at once (4.5 measured)
    _gauss_unit_ld(512)
    assert _peak(eig_prolate_1d, 2.0, 2.0, 512, 8) <= 6 * 8 * 512 * _LD_BYTES


def test_tables_on_a_large_grid_peak_below_2_mb(solve_512):
    # the 1025 x 512 extension kernel is built in blocks no larger than the mode tables
    ax = GridAxis.symmetric(8.0, 1025)
    assert _peak(build_qpswf_basis, solve_512, 4, grid=(ax, ax)) <= 2 * _MB


def test_combo_report_forms_no_four_component_copy():
    # the band energy is sum |s|^2 |q|^2 over one N x N band field, with no (4, N, N) copy
    n = 512
    ax = GridAxis.symmetric(8.0, 1025)
    basis = build_basis(2.0, 2.0, n, 4, grid=(ax, ax))
    s0 = np.sqrt(basis.lambda0)
    sig = build_boundary_signal(float(s0 + 0.5 * (1.0 - s0)), basis)
    sig.report()
    assert _peak(sig.report) <= 2.5 * n * n * np.dtype(complex).itemsize


def test_basis_and_verify_peak_below_a_quarter_element_grid(tmp_path):
    # each element file is written and compared one row block at a time
    n = 513
    cfg = {**cli._read_table({}, cli.CONFIG, "config"), "grid_n": n}
    _gauss_unit_ld(cfg["quad_n"])
    quarter_grid = n * n * 4 * 8 / 4
    with contextlib.redirect_stdout(io.StringIO()):
        assert _peak(cli.cmd_basis, cfg, tmp_path / "b") <= quarter_grid
        assert _peak(cli.cmd_verify, cfg["tol"], tmp_path / "v",
                     tmp_path / "b" / "manifest.json") <= quarter_grid
    assert (tmp_path / "v" / "verify_report.json").exists()
