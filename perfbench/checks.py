"""Output checks run after every iteration.

Each check returns None when the outputs are correct and a one-line reason
otherwise.  The tolerances are the ones the repository's own tests apply.
QGRID files and CSV/JSON reports are read here with numpy and the stdlib,
not through qpswf, so a broken reader in the program cannot hide a bad file.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

_QGRID_HEADER = struct.Struct("<4sIII4d")  # magic, version, nx, ny, x0, dx, y0, dy


def read_qgrid(path: Path):
    """(axes, values) of a QGRID file; axes is (nx, ny, x0, dx, y0, dy)."""
    raw = Path(path).read_bytes()
    magic, _, nx, ny, x0, dx, y0, dy = _QGRID_HEADER.unpack_from(raw)
    if magic != b"QGRD":
        raise ValueError(f"{path}: not a QGRID file")
    values = np.frombuffer(raw, dtype="<f8", offset=_QGRID_HEADER.size).reshape(nx, ny, 4)
    return (nx, ny, x0, dx, y0, dy), values


def check_verify_report(report_path: Path, tol: float):
    """Every residual in verify_report.json is within the configured tol."""
    checks = json.loads(Path(report_path).read_text())["checks"]
    bad = {k: v for k, v in checks.items() if not v <= tol}
    if bad:
        return f"verify residuals above {tol:g}: {bad}"
    return None


def check_concentration_report(report_path: Path, limit: float = 1e-6):
    """Criterion 5c: boundary constructions meet the least-angle identity."""
    points = json.loads(Path(report_path).read_text())["points"]
    boundary = [p for p in points if p["source"] == "boundary"]
    if not boundary:
        return "concentration report has no boundary points"
    worst = max(abs(p["angle_sum_deficit"]) for p in boundary)
    if not worst <= limit:
        return f"boundary angle_sum_deficit {worst:.3e} > {limit:g}"
    return None


def read_trace_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_extrapolate_trace(trace_path: Path):
    """E_n of the grid iteration never increases."""
    rows = read_trace_csv(trace_path)
    if not rows:
        return "empty extrapolation trace"
    energies = [r["E_n"] for r in rows]
    rises = [i + 2 for i, (a, b) in enumerate(zip(energies, energies[1:])) if not b <= a]
    if rises:
        return f"E_n increases at steps {rises[:5]}"
    return None


def bound_violations(trace_path: Path, slack: float = 1e-8) -> int:
    """Rows whose sup_e exceeds the stated pointwise bound (a diagnostic)."""
    return sum(1 for r in read_trace_csv(trace_path) if r["sup_e"] > r["bound"] + slack)


def check_qft_roundtrip(input_path: Path, output_path: Path, rel: float = 1e-8):
    """Criterion 4: inverse(forward(f)) reproduces f on the same grid."""
    axes_in, f = read_qgrid(input_path)
    axes_out, g = read_qgrid(output_path)
    if axes_in[:2] != axes_out[:2] or not np.allclose(axes_in[2:], axes_out[2:],
                                                      rtol=1e-12, atol=0.0):
        return f"roundtrip grid {axes_out} differs from input grid {axes_in}"
    err = float(np.abs(g - f).max())
    scale = float(np.abs(f).max())
    if not err <= rel * scale:
        return f"QFT roundtrip error {err:.3e} > {rel:g} * max|f| = {rel * scale:.3e}"
    return None


def check_synthetic_trace(rows, coeffs, lambdas, steps: int, tol: float = 1e-8):
    """Criterion 6: closed-form gap, energy law and pointwise bound per step.

    rows are pg_run trace rows (attributes n, e_energy, sup_e, bound, cf_gap).
    The energy law sum_j a_j^2 (1 - lambda_j)^(2n) is evaluated here directly.
    """
    if len(rows) != steps:
        return f"band-side run took {len(rows)} steps, expected {steps}"
    a2 = np.asarray(coeffs, dtype=float) ** 2
    lam = np.asarray(lambdas, dtype=float)
    for r in rows:
        if not r.cf_gap <= tol:
            return f"step {r.n}: closed-form gap {r.cf_gap:.3e} > {tol:g}"
        law = float(np.sum(a2 * (1.0 - lam) ** (2 * r.n)))
        if not abs(r.e_energy - law) <= tol:
            return f"step {r.n}: |E_n - law| {abs(r.e_energy - law):.3e} > {tol:g}"
        if not r.sup_e <= r.bound + tol:
            return f"step {r.n}: sup_e {r.sup_e:.3e} > bound {r.bound:.3e}"
    return None
