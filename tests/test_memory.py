"""Allocation peaks of the basis path: kernels are built in row blocks and no command
forms an element grid."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from qpswf import cli
from qpswf.concentration import build_boundary_signal
from qpswf.grid import GridAxis
from qpswf.prolate import (ProlateBasis1D, _gauss_unit_ld, build_basis, build_qpswf_basis,
                           eig_prolate_1d)

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
    # Newton's method keeps a few vectors of half the nodes (5.4 n long doubles
    # measured), not the (n + 1) x n table of P_0..P_n nor an n x n eigenproblem
    n = 512
    assert _peak(_gauss_unit_ld.__wrapped__, n) <= 16 * n * _LD_BYTES


def test_solve_peaks_below_one_kernel(solve_512):
    # the solve forms no kernel and no (degrees, N) Legendre table: phi_k is summed
    # one degree at a time, so a few (count, N) arrays are live at once (4.5 measured)
    _gauss_unit_ld(512)
    assert _peak(eig_prolate_1d, 2.0, 2.0, 512, 8) <= 6 * 8 * 512 * _LD_BYTES


def test_tables_on_a_large_grid_peak_below_2_mb(solve_512):
    # the grid table is the series' image summed at the 513 distinct |x| with no
    # (degrees, points) array, on the first read of a grid table: building the basis forms none
    ax = GridAxis.symmetric(8.0, 1025)
    tables = build_qpswf_basis(solve_512, 4, grid=(ax, ax)).tables
    assert not tables._memo
    assert _peak(lambda: tables.ext_x) <= 2 * _MB


def test_combo_report_forms_no_band_field():
    # the band energy is the modal matrix of the band limit under the whole-line Gram:
    # (M, M) products only, below one (M, N) band table (16 KB) and far below an N x N
    # band field (4 MB)
    ax = GridAxis.symmetric(8.0, 1025)
    basis = build_basis(2.0, 2.0, 512, 4, grid=(ax, ax))
    s0 = np.sqrt(basis.lambda0)
    sig = build_boundary_signal(float(s0 + 0.5 * (1.0 - s0)), basis)
    sig.report()
    assert _peak(sig.report) <= basis.tables.band.nbytes


def test_concentration_forms_no_grid_table(monkeypatch, tmp_path):
    # the sweep's reports read the band and Gram tables only
    def fail(*args):
        raise AssertionError("concentration formed a grid table")
    monkeypatch.setattr(ProlateBasis1D, "extend_ld", fail)
    cfg = cli._read_table({}, cli.CONFIG, "config")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_concentration(cfg, tmp_path / "c") == 0


def test_basis_and_verify_peak_below_ten_mode_tables(tmp_path):
    # neither command forms an element grid (8.4 MB at 513^2): each holds 1D tables of the
    # M modes at the quad_n nodes and on the grid_n samples, 4.8 and 8.0 long-double
    # (M, quad_n + grid_n) tables measured
    n = 513
    cfg = {**cli._read_table({}, cli.CONFIG, "config"), "grid_n": n}
    _gauss_unit_ld(cfg["quad_n"])
    manifest = tmp_path / "b" / "manifest.json"
    with contextlib.redirect_stdout(io.StringIO()):
        peaks = [_peak(cli.cmd_basis, cfg, tmp_path / "b"),
                 _peak(cli.cmd_verify, cfg["tol"], tmp_path / "v", manifest)]
    assert (tmp_path / "v" / "verify_report.json").exists()
    modes = np.load(tmp_path / "b" / "modes.npy").shape[1]
    assert max(peaks) <= 10 * modes * (cfg["quad_n"] + n) * _LD_BYTES
