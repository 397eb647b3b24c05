import contextlib
import hashlib
import io
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

CFG = {"T": 1.0, "W": 1.0, "grid_halfwidth": 4.0, "grid_n": 129, "quad_n": 128,
       "basis_count": 6, "tol": 1e-6, "seed": 1}


def run_cli(*args):
    # -W error: a warning would reach stderr beside the ERROR contract, so it fails the test
    return subprocess.run([sys.executable, "-W", "error", "-m", "qpswf.cli", *args],
                          capture_output=True, text=True)


def _write_cfg(tmp_path, **overrides):
    cfg = {**CFG, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def basis_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_basis")
    cfg = _write_cfg(tmp, output_dir=str(tmp / "out"))
    r = run_cli("--config", str(cfg), "basis")
    assert r.returncode == 0, r.stderr
    return tmp / "out"


def test_basis_outputs(basis_dir):
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    assert manifest["T"] == 1.0 and manifest["N"] == 128
    assert (manifest["grid_halfwidth"], manifest["grid_n"]) == (4.0, 129)
    assert manifest["coeff"] == [0.5, 0.5, 0.5, 0.5]
    assert len(manifest["entries"]) == 6
    assert all("file" not in e for e in manifest["entries"])
    # one table: hi and lo rows of the 3 modes the 6 elements use, on the 129-point grid
    table = np.load(basis_dir / manifest["modes"])
    assert table.dtype == np.float64 and table.shape == (2, 3, 129)
    rows = (basis_dir / "eigenvalues.csv").read_text().splitlines()
    assert rows[0] == "q,m,n,lambda2d"
    lams = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(a >= b for a, b in zip(lams, lams[1:]))


def test_basis_determinism(basis_dir, tmp_path):
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "out2"))
    r = run_cli("--config", str(cfg), "basis")
    assert r.returncode == 0
    assert sorted(p.name for p in (tmp_path / "out2").iterdir()) == [
        "eigenvalues.csv", "manifest.json", "modes.npy"]
    for name in ("manifest.json", "eigenvalues.csv", "modes.npy"):
        h1 = hashlib.sha256((basis_dir / name).read_bytes()).hexdigest()
        h2 = hashlib.sha256((tmp_path / "out2" / name).read_bytes()).hexdigest()
        assert h1 == h2


def test_single_element_basis(tmp_path):
    cfg = _write_cfg(tmp_path, basis_count=1, quad_n=64,
                     output_dir=str(tmp_path / "out"))
    r = run_cli("--config", str(cfg), "basis")
    assert r.returncode == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["entries"]) == 1
    assert np.load(tmp_path / "out" / "modes.npy").shape == (2, 1, 129)


def test_even_grid_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, grid_n=128)
    r = run_cli("--config", str(cfg), "basis")
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 config:")
    assert "odd" in r.stderr


@pytest.mark.parametrize("raw", [{"T": 50, "W": 50, "grid_halfwidth": 200},
                                 {"T": 1e6, "W": 1e6, "grid_halfwidth": 1e6},
                                 {"T": 16, "W": 16, "grid_halfwidth": 64, "grid_n": 1025}],
                         ids=["c2500", "c1e12", "c256"])
def test_quadrature_too_small_for_c_rejected(tmp_path, raw):
    # the default quad_n cannot integrate exp(2ict) at these c
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    r = run_cli("--config", str(path), "--output", str(tmp_path / "out"), "basis")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 config:")
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_w_above_grid_nyquist_rejected(tmp_path):
    # step 0.25, so pi / step = 12.6 < W and the element grids would alias
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"T": 1, "W": 20, "grid_halfwidth": 4, "grid_n": 33}))
    r = run_cli("--config", str(path), "--output", str(tmp_path / "out"), "basis")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 config:") and "pi / step" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_t_below_one_grid_step_rejected(tmp_path):
    # T = 1e-12 would pass the T-on-a-node check as node 0 and fail in the solver
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"T": 1e-12, "grid_n": 65, "quad_n": 64, "basis_count": 4}))
    r = run_cli("--config", str(path), "--output", str(tmp_path / "out"), "basis")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 config: T must be >= one grid step"), r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("tol, corrupt", [("nan", True), ("inf", True), ("-1", False)])
def test_tol_flag_is_checked_like_the_config(basis_dir, tmp_path, tol, corrupt):
    # a NaN or infinite tol would pass any residual; a negative one fail every one
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    if corrupt:
        manifest["entries"][0]["lambda2d"] *= 1.5
    path = basis_dir / f"manifest_tol_{tol}.json"
    path.write_text(json.dumps(manifest))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "v"))
    r = run_cli("--config", str(cfg), "--tol", tol, "verify", "--manifest", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 config:") and "tol" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "v" / "verify_report.json").exists()


@pytest.mark.parametrize("count", [0, -3])
def test_nonpositive_basis_count_rejected(tmp_path, count):
    cfg = _write_cfg(tmp_path, basis_count=count, output_dir=str(tmp_path / "out"))
    r = run_cli("--config", str(cfg), "basis")
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 config:")
    assert len(r.stderr.splitlines()) == 1


def test_verify_manifest_missing_keys(basis_dir, tmp_path):
    good = json.loads((basis_dir / "manifest.json").read_text())
    cases = [{}, {k: v for k, v in good.items() if k != "N"},
             {k: v for k, v in good.items() if k != "entries"},
             {**good, "entries": [{k: v for k, v in good["entries"][0].items()
                                   if k != "lambda2d"}]}, {**good, "entries": []}, []]
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "v"))
    for i, manifest in enumerate(cases):
        bad = tmp_path / f"manifest_{i}.json"
        bad.write_text(json.dumps(manifest))
        r = run_cli("--config", str(cfg), "verify", "--manifest", str(bad))
        assert r.returncode == 2, manifest
        assert r.stderr.startswith("ERROR 2 manifest:")
        assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("raw", [
    {**CFG, "grid_n": "129"}, {**CFG, "grid_n": 129.0}, {**CFG, "basis_count": True},
    {**CFG, "tol": "1e-6"}, {**CFG, "output_dir": 5}, {**CFG, "grid_halfwidth": float("nan")},
    [1, 2], "config"], ids=["grid_n_str", "grid_n_float", "basis_count_bool", "tol_str",
                            "output_dir_int", "grid_halfwidth_nan", "list", "string"])
def test_config_wrong_types_rejected(tmp_path, raw):
    # int fields take only ints, float fields finite ints or floats, no field a bool
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    r = run_cli("--config", str(path), "--output", str(tmp_path / "out"), "basis")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 config:")
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("T", "1.0"), ("T", float("nan")), ("W", True), ("W", -1.0), ("N", 128.5), ("N", True),
    ("lambda2d", "0.9"), ("file", 3), ("modes", 3), ("grid_n", 128), ("grid_halfwidth", 0)])
def test_verify_manifest_wrong_types(basis_dir, tmp_path, key, value):
    # T and W are finite positive numbers, N an int, the table's name a string, its grid
    # a config grid; no bools.  An entry has no file key: one is unknown
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    if key in ("lambda2d", "file"):
        manifest["entries"][1][key] = value
    else:
        manifest[key] = value
    bad = basis_dir / f"manifest_{key}_{type(value).__name__}.json"
    bad.write_text(json.dumps(manifest))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "v"))
    r = run_cli("--config", str(cfg), "verify", "--manifest", str(bad))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 manifest:")
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("value", [0.0, -0.3])
def test_verify_manifest_nonpositive_eigenvalue(basis_dir, tmp_path, value):
    # basis writes no lambda2d <= 0, and none can be the eigenvalue of an element
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    manifest["entries"][0]["lambda2d"] = value
    bad = basis_dir / f"manifest_lambda2d_{value}.json"
    bad.write_text(json.dumps(manifest))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "v"))
    r = run_cli("--config", str(cfg), "verify", "--manifest", str(bad))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 manifest: lambda2d must be > 0")
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("key, value", [("N", 8), ("W", 100.0)])
def test_verify_manifest_value_the_solver_rejects(basis_dir, tmp_path, key, value):
    # 8 nodes are too few for any rule, 128 too few for c = 100; the manifest is at fault
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    manifest[key] = value
    bad = basis_dir / f"manifest_solver_{key}.json"
    bad.write_text(json.dumps(manifest))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "v"))
    r = run_cli("--config", str(cfg), "verify", "--manifest", str(bad))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 manifest:")
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "v").exists()


def test_verify_uses_the_element_grid(basis_dir, tmp_path):
    # the manifest declares the 129-point grid of the table; the default config has 257
    r = run_cli("--output", str(tmp_path / "v"), "verify",
                "--manifest", str(basis_dir / "manifest.json"))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["checks"]["file_consistency"] == 0.0
    assert max(report["checks"].values()) <= 1e-6


def test_verify_element_on_another_grid(basis_dir, tmp_path):
    # a table of the 3 modes on 65 samples, where the manifest declares 129
    np.save(basis_dir / "other_grid.npy", np.zeros((2, 3, 65)))
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    manifest["modes"] = "other_grid.npy"
    bad = basis_dir / "manifest_other_grid.json"
    bad.write_text(json.dumps(manifest))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "v"))
    r = run_cli("--config", str(cfg), "verify", "--manifest", str(bad))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 manifest:")
    assert "other_grid.npy" in r.stderr
    assert len(r.stderr.splitlines()) == 1


def test_verify_fresh_basis(basis_dir, tmp_path):
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "v"))
    r = run_cli("--config", str(cfg), "verify",
                "--manifest", str(basis_dir / "manifest.json"))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["checks"]["verify_lowpass"] <= 1e-6


def test_verify_basis_whose_window_needs_more_samples(tmp_path):
    # c = 200: a 257-sample all-pass window over [-4T, 4T] has W step = 1.99 pi and aliases
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"T": 10, "W": 20, "grid_halfwidth": 10, "grid_n": 129,
                               "basis_count": 4}))
    r = run_cli("--config", str(cfg), "--output", str(tmp_path / "b"), "basis")
    assert r.returncode == 0, r.stderr
    r = run_cli("--config", str(cfg), "--output", str(tmp_path / "v"), "verify",
                "--manifest", str(tmp_path / "b" / "manifest.json"))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert max(report["checks"].values()) <= 1e-6


@pytest.fixture(scope="module")
def basis36_dir(tmp_path_factory):
    """A 36-element basis on 65^2: its last 10 elements lie below the eigenvalue floor."""
    tmp = tmp_path_factory.mktemp("cli_basis36")
    cfg = _write_cfg(tmp, grid_n=65, basis_count=36, output_dir=str(tmp / "out"))
    r = run_cli("--config", str(cfg), "basis")
    assert r.returncode == 0, r.stderr
    return tmp / "out"


@pytest.mark.parametrize("q", [0, 35], ids=["first", "last"])
def test_verify_corrupted_eigenvalue(basis36_dir, tmp_path, q):
    # every declared lambda2d is audited, above the floor or not
    manifest = json.loads((basis36_dir / "manifest.json").read_text())
    manifest["entries"][q]["lambda2d"] = 0.5
    bad = basis36_dir / f"manifest_corrupt_{q}.json"
    bad.write_text(json.dumps(manifest))
    cfg = _write_cfg(tmp_path, grid_n=65, basis_count=36, output_dir=str(tmp_path / "v"))
    r = run_cli("--config", str(cfg), "verify", "--manifest", str(bad))
    assert r.returncode == 4, r.stderr
    assert r.stderr.startswith(f"ERROR 4 manifest_consistency: entry {q}: lambda2d = 0.5")
    assert len(r.stderr.splitlines()) == 1


def _verify_copy(basis_dir, tmp_path, capsys, manifest=None, modes=None):
    """Exit code and stderr of verify, in process, on a copy of basis_dir whose manifest
    object or table bytes are replaced."""
    from qpswf import cli
    manifest = manifest or json.loads((basis_dir / "manifest.json").read_text())
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "modes.npy").write_bytes(modes or (basis_dir / "modes.npy").read_bytes())
    code = cli.main(["--output", str(tmp_path / "v"), "verify",
                     "--manifest", str(tmp_path / "manifest.json")])
    return code, capsys.readouterr().err


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


@pytest.mark.parametrize("tamper, code, start", [
    (lambda m: m.update(c=123.0), 4, "ERROR 4 manifest_consistency: manifest.json: c"),
    (lambda m: m["entries"][0].update(mu_x=[9.0, 9.0]), 4,
     "ERROR 4 manifest_consistency: entry 0: mu_x"),
    (lambda m: m["entries"][1].update(m=5, n=5), 4, "ERROR 4 manifest_consistency: entry 1: m"),
    (lambda m: m["entries"][2].update(mu_y=[1.0]), 2, "ERROR 2 manifest: mu_y"),
    (lambda m: m["entries"][2].update(mu_y=[1.0, float("nan")]), 2, "ERROR 2 manifest: mu_y"),
    (lambda m: m.update(coeff=[1, 0, 0, 0]), 4,
     "ERROR 4 manifest_consistency: manifest.json: coeff"),
    (lambda m: m.update(coeff=[0.5, 0.5, 0.5]), 2, "ERROR 2 manifest: coeff")],
    ids=["c", "mu_x", "m_n", "mu_short", "mu_nan", "coeff", "coeff_short"])
def test_verify_checks_every_declared_value(basis_dir, tmp_path, capsys, tamper, code, start):
    # c, coeff, m, n, mu_x and mu_y are compared with the rebuilt basis when present
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    tamper(manifest)
    got, err = _verify_copy(basis_dir, tmp_path, capsys, manifest=manifest)
    assert got == code
    assert err.startswith(start) and len(err.splitlines()) == 1, err
    assert not (tmp_path / "v" / "verify_report.json").exists()


@pytest.mark.parametrize("q", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("damage", [
    lambda raw, at: raw[:at] + struct.pack("<d", float("nan")) + raw[at + 8:],
    lambda raw, at: raw[:at]], ids=["nan_in_last_row_block", "truncated"])
def test_verify_damaged_element_file(basis_dir, tmp_path, capsys, q, damage):
    # a NaN in the first or last table entry, or the table cut short before it, is one
    # ERROR 2 manifest line naming the table, and nothing is written
    raw = (basis_dir / "modes.npy").read_bytes()
    entries = 2 * 3 * 129
    code, err = _verify_copy(basis_dir, tmp_path, capsys,
                             modes=damage(raw, len(raw) - 8 * entries + 8 * (q % entries)))
    assert code == 2
    assert err.startswith(f"ERROR 2 manifest: {tmp_path / 'modes.npy'}: ")
    assert len(err.splitlines()) == 1, err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("table", [
    np.array([[0.5]], dtype=object), np.zeros((2, 3, 130)), np.zeros((2, 4, 129)),
    np.zeros((2, 3, 129), dtype=np.float32), np.zeros((2, 3, 129)).astype(">f8")],
    ids=["object", "wider_than_grid_n", "more_modes", "float32", "big_endian"])
def test_verify_table_of_another_kind(basis_dir, tmp_path, capsys, table):
    # only a finite float64 (2, M, grid_n) array, with the rebuilt basis's M, is a table
    code, err = _verify_copy(basis_dir, tmp_path, capsys, modes=_npy(table))
    assert code == 2
    assert err.startswith(f"ERROR 2 manifest: {tmp_path / 'modes.npy'}: ")
    assert len(err.splitlines()) == 1, err
    assert not (tmp_path / "v").exists()


def test_verify_table_with_a_flipped_sign(basis_dir, tmp_path, capsys):
    # the largest entry negated: the table is readable but not the basis
    table = np.load(basis_dir / "modes.npy")
    table.flat[np.abs(table).argmax()] *= -1
    code, err = _verify_copy(basis_dir, tmp_path, capsys, modes=_npy(table))
    assert code == 4
    assert err.startswith("ERROR 4 file_consistency: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("raw", [
    {}, {"T": 10, "W": 20, "grid_halfwidth": 10, "grid_n": 129, "basis_count": 4}],
    ids=["default", "c200"])
def test_element_recipe_is_the_library_element(tmp_path, raw):
    # the README recipe: phi = hi + lo in long double, then the outer product of two
    # rows rounded once to double, times coeff.  Odd modes are +0.0 at x = 0, and no
    # entry of hi or lo is -0.0
    from qpswf import cli
    from qpswf.grid import GridAxis
    from qpswf.prolate import build_basis
    cfg = cli._read_table(raw, cli.CONFIG, "config")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_basis(cfg, tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    hi, lo = np.load(tmp_path / manifest["modes"])
    phi = hi.astype(np.longdouble) + lo
    ax = GridAxis.symmetric(manifest["grid_halfwidth"], manifest["grid_n"])
    basis = build_basis(manifest["T"], manifest["W"], manifest["N"], len(manifest["entries"]),
                        grid=(ax, ax))
    for e, el in zip(manifest["entries"], basis.items):
        psi = (phi[e["m"]][:, None] * phi[e["n"]][None, :]).astype(np.float64)[..., None] \
            * np.array(manifest["coeff"])
        assert psi.tobytes() == el.values.values.tobytes()
    mid = manifest["grid_n"] // 2
    assert not hi[1::2, mid].any() and not lo[1::2, mid].any()
    assert not np.signbit(hi[hi == 0]).any() and not np.signbit(lo[lo == 0]).any()


def test_verify_missing_file(basis_dir, tmp_path):
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    manifest["modes"] = "nope.npy"
    bad = basis_dir / "manifest_missing.json"
    bad.write_text(json.dumps(manifest))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "v"))
    r = run_cli("--config", str(cfg), "verify", "--manifest", str(bad))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 manifest:") and "nope.npy" in r.stderr


def test_concentration_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "c"))
    r = run_cli("--config", str(cfg), "concentration")
    assert r.returncode == 0, r.stderr
    csv = (tmp_path / "c" / "region.csv").read_text().splitlines()
    assert csv[0] == "xi,eta_q,deficit,source"
    assert any("boundary" in line for line in csv)
    svg = (tmp_path / "c" / "region.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert "lambda0" in report


def test_concentration_with_input_signal(tmp_path):
    # well-concentrated regime: grid quadrature sees essentially all of the
    # energy, so the file-based report reproduces the extremal pair
    from qpswf.prolate import build_basis
    from qpswf.qgrid_io import save_qgrid

    t_half = 2.0
    from qpswf.grid import GridAxis
    ax = GridAxis.symmetric(8.0, 257)
    basis = build_basis(t_half, t_half, 192, 3, grid=(ax, ax))
    save_qgrid(tmp_path / "psi0.qgrid", basis[0].values)
    cfg = _write_cfg(tmp_path, T=2.0, W=2.0, grid_halfwidth=8.0, grid_n=257,
                     quad_n=192, basis_count=3, output_dir=str(tmp_path / "c"))
    r = run_cli("--config", str(cfg), "concentration",
                "--input", str(tmp_path / "psi0.qgrid"))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    lam0 = report["lambda0"]
    assert abs(report["input"]["xi"] ** 2 - lam0) <= 5e-3
    assert report["input"]["eta_q"] >= 0.999


def test_concentration_zero_input(tmp_path):
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    ax = GridAxis.symmetric(4.0, 129)
    save_qgrid(tmp_path / "zero.qgrid", QSignal.zeros(ax, ax))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "c"))
    r = run_cli("--config", str(cfg), "concentration",
                "--input", str(tmp_path / "zero.qgrid"))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 input:")


def test_concentration_input_narrower_than_time_square(tmp_path):
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    ax = GridAxis.symmetric(0.5, 33)
    save_qgrid(tmp_path / "narrow.qgrid", QSignal(ax, ax, np.ones((33, 33, 4))))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "c"))
    r = run_cli("--config", str(cfg), "concentration",
                "--input", str(tmp_path / "narrow.qgrid"))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 input:") and len(r.stderr.splitlines()) == 1


def test_concentration_input_whose_time_square_edges_are_not_nodes(tmp_path):
    # +-T = +-1 falls between the nodes of a 31^2 grid on [-4, 4]: no trapezoid rule there
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    ax = GridAxis.symmetric(4.0, 31)
    x = ax.samples()
    g = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 2)
    save_qgrid(tmp_path / "g31.qgrid", QSignal.from_components(ax, ax, g))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "c"))
    r = run_cli("--config", str(cfg), "concentration", "--input", str(tmp_path / "g31.qgrid"))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 input:") and len(r.stderr.splitlines()) == 1


def test_input_that_overflows_double_precision(tmp_path):
    # a step of 2e158 is a valid QGRID header, but the band energy overflows
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    wide, ax = GridAxis(-4.0, 2e158, 33), GridAxis.symmetric(4.0, 33)
    save_qgrid(tmp_path / "huge.qgrid", QSignal(wide, ax, np.ones((33, 33, 4))))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "c"))
    r = run_cli("--config", str(cfg), "concentration", "--input", str(tmp_path / "huge.qgrid"))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 range:") and len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["basis", "verify"])
def test_integer_too_large_for_double_precision(basis_dir, tmp_path, command):
    # a config T of 10^400, which JSON reads as an int that fits no double, and a coeff
    # whose modulus overflows are range errors, not internal ones
    manifest = json.loads((basis_dir / "manifest.json").read_text())
    manifest["coeff"] = [1e200, 0, 0, 0]
    (basis_dir / "manifest_huge_int.json").write_text(json.dumps(manifest))
    cfg = _write_cfg(tmp_path, **({"T": 10 ** 400} if command == "basis" else {}))
    r = run_cli("--config", str(cfg), "--output", str(tmp_path / "out"), command,
                *(["--manifest", str(basis_dir / "manifest_huge_int.json")]
                  if command == "verify" else []))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 range:") and len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_input_too_large_for_memory(tmp_path, monkeypatch, capsys):
    # the solver's MemoryError stands in for a config whose arrays do not fit
    from qpswf import cli, prolate

    def fail(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(prolate, "build_basis", fail)
    code = cli.main(["--config", str(_write_cfg(tmp_path)), "--output", str(tmp_path / "b"),
                     "basis"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "ERROR 2 range: MemoryError: an input is too large for memory\n"


def test_concentration_where_lambda0_rounds_to_one(tmp_path):
    # c = 25: lambda0 is 1.0 in double, so no xi in [sqrt(lambda0), 1) is left
    # and the zero-xi construction needs an even element with lambda2d < 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"T": 5, "W": 5, "grid_halfwidth": 20}))
    r = run_cli("--config", str(path), "--output", str(tmp_path / "c"), "concentration")
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    sources = [p["source"] for p in report["points"]]
    assert "psi0" in sources and any(s.startswith("zero_xi_") for s in sources)
    assert all(p["xi"] < 1.0 for p in report["points"] if p["source"] == "boundary")


def test_concentration_where_eta_spans_less_than_double_spacing(tmp_path):
    # c = 49: lambda0 rounds to 1.0 and the plotted eta values span 4.4e-16
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"T": 7, "W": 7, "grid_halfwidth": 28, "grid_n": 257,
                                "basis_count": 36}))
    r = run_cli("--config", str(path), "--output", str(tmp_path / "c"), "concentration")
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "c" / "region.svg").read_text().endswith("</svg>")


@pytest.mark.parametrize("t, w, halfwidth, grid_n", [
    (0.5, 0.5, 2, 129), (1, 1, 4, 129), (5, 5, 20, 257), (10, 10, 20, 257),
    (10, 13, 20, 257), (10, 20, 10, 129)], ids=["c0.25", "c1", "c25", "c100", "c130", "c200"])
def test_commands_across_c(tmp_path, capsys, t, w, halfwidth, grid_n):
    # basis -> verify -> concentration in process, from c = T W = 0.25 up to the
    # c = 200 that the default 256 nodes allow
    from qpswf import cli
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"T": t, "W": w, "grid_halfwidth": halfwidth, "grid_n": grid_n,
                               "basis_count": 8}))
    for command in (["basis"], ["verify", "--manifest", str(tmp_path / "basis" / "manifest.json")],
                    ["concentration"]):
        code = cli.main(["--config", str(cfg), "--output", str(tmp_path / command[0]), *command])
        assert code == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""


def test_basis_below_the_evaluation_floor_at_small_c(tmp_path, capsys):
    # c = 0.0625: the top 44 products need 1D mode 8, whose lambda the solve does not
    # resolve
    from qpswf import cli
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"T": 0.25, "W": 0.25, "grid_halfwidth": 1, "basis_count": 44}))
    for command in ("basis", "concentration"):
        assert cli.main(["--config", str(cfg), "--output", str(tmp_path / command), command]) == 2
        assert capsys.readouterr().err == (
            "ERROR 2 config: 1D mode 8 (lambda = 7.187e-40) is below 1e-35, where the solve "
            "does not resolve lambda; reduce the basis count\n")
    assert not (tmp_path / "basis").exists() and not (tmp_path / "concentration").exists()


@pytest.mark.parametrize("t, halfwidth, grid_n", [(0.5, 2, 129), (0.25, 1, 257)],
                         ids=["c0.25", "c0.0625"])
def test_default_count_at_small_c(tmp_path, capsys, t, halfwidth, grid_n):
    # T = W with the default 36 elements, whose modes reach lambda = 2.0e-25 and 1.9e-34:
    # basis -> verify -> concentration each exit 0 with nothing on stderr
    from qpswf import cli
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"T": t, "W": t, "grid_halfwidth": halfwidth, "grid_n": grid_n}))
    for command in (["basis"], ["verify", "--manifest", str(tmp_path / "basis" / "manifest.json")],
                    ["concentration"]):
        code = cli.main(["--config", str(cfg), "--output", str(tmp_path / command[0]), *command])
        assert code == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["basis", "concentration"])
def test_unwritable_output_is_one_error_line(tmp_path, command):
    (tmp_path / "regular").write_text("")
    cfg = _write_cfg(tmp_path)
    r = run_cli("--config", str(cfg), "--output", str(tmp_path / "regular" / "out"), command)
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 output:") and len(r.stderr.splitlines()) == 1


@pytest.fixture(scope="module")
def extrap_files(tmp_path_factory):
    from qpswf.concentration import time_limit
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qft import (dual_frequency_axes, inverse_qft,
                           spectrum_from_complex_components)
    from qpswf.qgrid_io import save_qgrid
    from qpswf.rng import CounterRng
    from qpswf.signals import random_bandlimited_grid_spectrum

    tmp = tmp_path_factory.mktemp("cli_extrap")
    ax = GridAxis.symmetric(4.0, 129)
    ax_u, ax_v = dual_frequency_axes(QSignal.zeros(ax, ax))
    g = random_bandlimited_grid_spectrum(ax_u, ax_v, 1.0, CounterRng(71))
    truth = inverse_qft(spectrum_from_complex_components(ax_u, ax_v, g), ax, ax)
    save_qgrid(tmp / "truth.qgrid", truth)
    save_qgrid(tmp / "obs.qgrid", time_limit(truth, 2.0))
    return tmp


def test_extrapolate_cli(extrap_files, tmp_path):
    problem = {"d": 2.0, "W": 1.0, "max_steps": 500, "stop_tol": 1e-3,
               "truth_file": "truth.qgrid"}
    (extrap_files / "problem.json").write_text(json.dumps(problem))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "e"))
    r = run_cli("--config", str(cfg), "extrapolate",
                "--problem", str(extrap_files / "problem.json"),
                "--observation", str(extrap_files / "obs.qgrid"))
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    rows = (tmp_path / "e" / "trace.csv").read_text().splitlines()
    assert rows[0] == "n,E_n,sup_e,bound,delta"
    e1 = float(rows[1].split(",")[1])
    eN = float(rows[-1].split(",")[1])
    assert eN < 0.1 * e1
    assert (tmp_path / "e" / "final.qgrid").exists()
    assert (tmp_path / "e" / "trace.svg").exists()


def test_extrapolate_max_steps_exit(extrap_files, tmp_path):
    problem = {"d": 2.0, "W": 1.0, "max_steps": 1, "stop_tol": 1e-12}
    (extrap_files / "p1.json").write_text(json.dumps(problem))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "e"))
    r = run_cli("--config", str(cfg), "extrapolate",
                "--problem", str(extrap_files / "p1.json"),
                "--observation", str(extrap_files / "obs.qgrid"))
    assert r.returncode == 5
    assert r.stderr.startswith("ERROR 5 extrapolate:")
    rows = (tmp_path / "e" / "trace.csv").read_text().splitlines()
    assert len(rows) == 2  # header + one step


def test_extrapolate_step_eigensolver_failure_exits_3(extrap_files, tmp_path, monkeypatch,
                                                     capsys):
    from qpswf import cli

    def fail(a):
        raise np.linalg.LinAlgError("no convergence")
    problem = {"d": 2.0, "W": 1.0, "max_steps": 3}
    (extrap_files / "p_eig.json").write_text(json.dumps(problem))
    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = cli.main(["--output", str(tmp_path / "e"), "extrapolate",
                     "--problem", str(extrap_files / "p_eig.json"),
                     "--observation", str(extrap_files / "obs.qgrid")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("ERROR 3 eigensolver:") and len(err.splitlines()) == 1
    assert not (tmp_path / "e").exists()


def test_extrapolate_malformed_observation(extrap_files, tmp_path):
    bad = tmp_path / "bad.qgrid"
    bad.write_bytes(b"garbage")
    (extrap_files / "p2.json").write_text(json.dumps({"d": 2.0, "W": 1.0}))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "e"))
    r = run_cli("--config", str(cfg), "extrapolate",
                "--problem", str(extrap_files / "p2.json"),
                "--observation", str(bad))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 qgrid:")


@pytest.mark.parametrize("problem", [
    [2.0, 1.0], {"d": "2", "W": 1.0}, {"d": 2.0, "W": 1.0, "truth_file": 5},
    {"d": 2.0, "W": float("inf")}, {"d": 2.0, "W": 1.0, "max_steps": 50.0},
    {"d": 2.0, "W": 1.0, "stop_tol": "1e-3"}, {"W": 1.0}, {"d": 2.0, "W": 0},
    {"d": 2.0, "W": -1.0}],
    ids=["list", "d_str", "truth_file_int", "W_inf", "max_steps_float", "stop_tol_str",
         "d_missing", "W_zero", "W_negative"])
def test_extrapolate_problem_wrong_types(extrap_files, tmp_path, problem):
    # d and W finite numbers, max_steps an int, stop_tol a number, truth_file a string
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "e"))
    r = run_cli("--config", str(cfg), "extrapolate", "--problem", str(path),
                "--observation", str(extrap_files / "obs.qgrid"))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 problem:")
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "e").exists()


def test_extrapolate_negative_stop_tol_rejected(extrap_files, tmp_path):
    # no relative update is below -1, so the run could only end at max_steps
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"d": 2.0, "W": 1.0, "max_steps": 3, "stop_tol": -1}))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "e"))
    r = run_cli("--config", str(cfg), "extrapolate", "--problem", str(path),
                "--observation", str(extrap_files / "obs.qgrid"))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 problem:") and "stop_tol" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "e").exists()


def test_qft_cli_roundtrip(extrap_files, tmp_path):
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "q"))
    r = run_cli("--config", str(cfg), "qft", "forward",
                "--input", str(extrap_files / "truth.qgrid"))
    assert r.returncode == 0, r.stderr
    assert [p.name for p in (tmp_path / "q").iterdir()] == ["spectrum.qgrid"]
    r2 = run_cli("--config", str(cfg), "--output", str(tmp_path / "q2"),
                 "qft", "inverse", "--input", str(tmp_path / "q" / "spectrum.qgrid"))
    assert r2.returncode == 0, r2.stderr
    from qpswf.qgrid_io import load_qgrid
    back = load_qgrid(tmp_path / "q2" / "signal.qgrid")
    truth = load_qgrid(extrap_files / "truth.qgrid")
    assert np.abs(back.values - truth.values).max() \
        <= 1e-8 * np.abs(truth.values).max()


def test_qft_forward_rejects_axis_nodes_not_distinct(tmp_path):
    # x0 = 1e300 with dx = 0.25: all 33 x nodes round to 1e300
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    ax = GridAxis.symmetric(4.0, 33)
    path = tmp_path / "sig.qgrid"
    save_qgrid(path, QSignal(ax, ax, np.ones((33, 33, 4))))
    raw = bytearray(path.read_bytes())
    raw[16:24] = np.float64(1e300).tobytes()  # the header's x0
    path.write_bytes(bytes(raw))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "q"))
    r = run_cli("--config", str(cfg), "qft", "forward", "--input", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 qgrid:") and "distinct" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert not list((tmp_path / "q").glob("spectrum*"))


def test_qft_cli_non_square_roundtrip(tmp_path):
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import load_qgrid, save_qgrid
    ax_x, ax_y = GridAxis.symmetric(4.0, 65), GridAxis.symmetric(3.0, 33)
    x, y = ax_x.samples()[:, None], ax_y.samples()[None, :]
    g = np.exp(-3 * (x ** 2 + y ** 2))  # negligible on the grid edges
    sig = QSignal.from_components(ax_x, ax_y, g, 0.5 * x * g, -y * g, x * y * g)
    save_qgrid(tmp_path / "sig.qgrid", sig)
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "q"))
    r = run_cli("--config", str(cfg), "qft", "forward", "--input", str(tmp_path / "sig.qgrid"))
    assert r.returncode == 0, r.stderr
    r = run_cli("--config", str(cfg), "--output", str(tmp_path / "q2"), "qft", "inverse",
                "--input", str(tmp_path / "q" / "spectrum.qgrid"))
    assert r.returncode == 0, r.stderr
    back = load_qgrid(tmp_path / "q2" / "signal.qgrid")
    assert back.values.shape == (65, 33, 4)
    for got, want in ((back.ax_x, ax_x), (back.ax_y, ax_y)):
        assert got.count == want.count
        assert got.start == pytest.approx(want.start, rel=1e-12)
        assert got.step == pytest.approx(want.step, rel=1e-12)
    assert np.abs(back.values - sig.values).max() <= 1e-8 * np.abs(sig.values).max()


# (nx, ny) on [-4, 4]^2, or (nx, ny, x0) with x on [x0, x0 + 8]
@pytest.mark.parametrize("counts", [(100, 100), (65, 100), (33, 33, 0.0)])
def test_qft_forward_rejects_even_axis(tmp_path, counts):
    # inverse gives back each axis as a symmetric one with an odd count: an even axis
    # maps to one frequency fewer, and x on [0, 8] would come back on [-4, 4]
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    nx, ny, x0 = counts if len(counts) == 3 else (*counts, -4.0)
    ax_x, ax_y = GridAxis(x0, 8 / (nx - 1), nx), GridAxis.symmetric(4.0, ny)
    x, y = ax_x.samples()[:, None], ax_y.samples()[None, :]
    save_qgrid(tmp_path / "sig.qgrid",
               QSignal.from_components(ax_x, ax_y, np.exp(-3 * (x ** 2 + y ** 2))))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "q"))
    r = run_cli("--config", str(cfg), "qft", "forward", "--input", str(tmp_path / "sig.qgrid"))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 qgrid:")
    assert len(r.stderr.splitlines()) == 1
    assert not list((tmp_path / "q").glob("spectrum*"))


def test_qft_inverse_rejects_even_axis(tmp_path):
    # a 32-node u axis would come back as a 31-node x axis with a longer step
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    ax_u, ax_v = GridAxis.symmetric(4.0, 32), GridAxis.symmetric(4.0, 33)
    u, v = ax_u.samples()[:, None], ax_v.samples()[None, :]
    save_qgrid(tmp_path / "spec.qgrid",
               QSignal.from_components(ax_u, ax_v, np.exp(-(u ** 2 + v ** 2))))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "q"))
    r = run_cli("--config", str(cfg), "qft", "inverse", "--input", str(tmp_path / "spec.qgrid"))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 qgrid:")
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "q").exists()


def test_qft_forward_unwritable_output(extrap_files, tmp_path):
    # a failed write is an output error, not a bad input
    out = tmp_path / "q"
    (out / "spectrum.qgrid").mkdir(parents=True)
    r = run_cli("--output", str(out), "qft", "forward",
                "--input", str(extrap_files / "truth.qgrid"))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 output:"), r.stderr
    assert len(r.stderr.splitlines()) == 1


def test_qft_forward_rejects_non_finite_payload(tmp_path):
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    ax = GridAxis.symmetric(4.0, 33)
    vals = np.zeros((33, 33, 4))
    vals[16, 16, 0] = 1.0
    vals[3, 4, 1] = np.nan
    save_qgrid(tmp_path / "sig.qgrid", QSignal(ax, ax, vals))
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "q"))
    r = run_cli("--config", str(cfg), "qft", "forward", "--input", str(tmp_path / "sig.qgrid"))
    assert r.returncode == 2
    assert r.stderr.startswith("ERROR 2 qgrid:")
    assert len(r.stderr.splitlines()) == 1
    assert not list((tmp_path / "q").glob("spectrum*"))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_qft_bad_input_found_before_the_output_is_made(tmp_path, direction):
    # 129^2 is read in 12 row blocks: a NaN in the last of them (forward) and a
    # payload cut short mid-way (inverse) each end in one ERROR 2 qgrid line, and
    # no output is made, as the whole input is read before the output is opened
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qgrid_io import save_qgrid
    ax = GridAxis.symmetric(4.0, 129)
    vals = np.ones((129, 129, 4))
    vals[-1, 7, 2] = np.nan if direction == "forward" else 1.0
    path = tmp_path / "in.qgrid"
    save_qgrid(path, QSignal(ax, ax, vals))
    if direction == "inverse":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    cfg = _write_cfg(tmp_path, output_dir=str(tmp_path / "q"))
    r = run_cli("--config", str(cfg), "qft", direction, "--input", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("ERROR 2 qgrid:")
    assert len(r.stderr.splitlines()) == 1
    assert not (tmp_path / "q").exists()


def test_qpswf_threads_caps_blas():
    import ctypes
    import glob
    import os
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    if not libs or not hasattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy is not linked against scipy-openblas")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["QPSWF_THREADS"] = "1"
    code = ("import ctypes, sys, qpswf.cli\n"
            "get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
            "get.argtypes, get.restype = [], ctypes.c_int\n"
            "print(get())")
    r = subprocess.run([sys.executable, "-c", code, libs[0]], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "1"
