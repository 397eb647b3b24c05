"""Seeded input generation for the benchmark workloads.

Usage: python3 perfbench/inputs.py <workload> <seed> <directory>

The same workload and seed write byte-identical files.  The program under
test only ever sees these files (or, for lib_synthetic, the coefficients
read from them); the seed itself is never passed to it except as the
config's `seed` key.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

T_HALF = 1.0
W_HALF = 1.0
GRID_HALFWIDTH = 4.0
# cli_grid: file-based extrapolation on the default 257-point grid, observed on
# the square of half-width D_HALF, and a QFT roundtrip at the size where the
# dense O(N^3) kernels dominate
EXTRAP_N = 257
D_HALF = 2.0
EXTRAP_STEPS = 50
QFT_N = 1025
# lib_synthetic: the default CLI basis, run for a fixed number of band-side steps
SYNTH_QUAD = 256
SYNTH_COUNT = 36
SYNTH_STEPS = 50

# CounterRng stream ids, so the corpora of one seed never share draws
_STREAM_EXTRAP = 1
_STREAM_QFT = 2
_STREAM_SYNTH = 3


def write_config(out: Path, seed: int, **overrides) -> Path:
    """The CLI's default configuration, written out explicitly with the seed."""
    cfg = {"T": T_HALF, "W": W_HALF, "grid_halfwidth": GRID_HALFWIDTH,
           "grid_n": 257, "quad_n": 256, "basis_count": 36, "tol": 1e-6,
           "seed": seed, **overrides}
    path = out / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def make_grid_inputs(out: Path, seed: int) -> None:
    """Truth/observation QGRIDs, the problem JSON and the 1025^2 QFT signal.

    The problem's stop_tol is calibrated from the seed's own relative-update
    sequence so that the CLI converges after exactly EXTRAP_STEPS steps:
    every seed then costs the same work and exits 0.
    """
    import numpy as np

    from qpswf.concentration import time_limit
    from qpswf.extrapolate import ExtrapolationProblem, pg_run
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qft import (dual_frequency_axes, inverse_qft,
                           spectrum_from_complex_components)
    from qpswf.qgrid_io import save_qgrid
    from qpswf.rng import CounterRng
    from qpswf.signals import (gaussian_mixed_qsignal,
                               random_bandlimited_grid_spectrum)

    ax = GridAxis.symmetric(GRID_HALFWIDTH, EXTRAP_N)
    ax_u, ax_v = dual_frequency_axes(QSignal.zeros(ax, ax))
    g = random_bandlimited_grid_spectrum(ax_u, ax_v, W_HALF,
                                         CounterRng(seed, _STREAM_EXTRAP))
    truth = inverse_qft(spectrum_from_complex_components(ax_u, ax_v, g), ax, ax)
    observed = time_limit(truth, D_HALF)
    save_qgrid(out / "truth.qgrid", truth)
    save_qgrid(out / "obs.qgrid", observed)

    calib = pg_run(ExtrapolationProblem(observed=observed, d_half=D_HALF,
                                        w_half=W_HALF, truth=truth),
                   max_steps=EXTRAP_STEPS, stop_tol=0.0)
    deltas = [r.delta for r in calib.rows]
    last, earlier = deltas[-1], min(deltas[:-1])
    if not last < earlier:
        raise RuntimeError(f"relative update does not decrease at step "
                           f"{EXTRAP_STEPS} (seed {seed}); cannot calibrate stop_tol")
    problem = {"d": D_HALF, "W": W_HALF, "max_steps": 2 * EXTRAP_STEPS,
               "stop_tol": float(np.sqrt(last * earlier)),
               "truth_file": "truth.qgrid"}
    (out / "problem.json").write_text(json.dumps(problem, indent=2, sort_keys=True) + "\n")

    ax_q = GridAxis.symmetric(GRID_HALFWIDTH, QFT_N)
    signal = gaussian_mixed_qsignal(ax_q, ax_q, CounterRng(seed, _STREAM_QFT),
                                    T_HALF, W_HALF)
    save_qgrid(out / "signal.qgrid", signal)


def make_synthetic_inputs(out: Path, seed: int) -> None:
    """Build the basis and draw coefficients for the elements above the floor."""
    from qpswf.prolate import EIG_FLOOR, build_basis
    from qpswf.rng import CounterRng

    basis = build_basis(T_HALF, W_HALF, SYNTH_QUAD, SYNTH_COUNT)
    count = int((basis.eigenvalues() >= EIG_FLOOR).sum())
    coeffs = CounterRng(seed, _STREAM_SYNTH).normal(count)
    spec = {"T": T_HALF, "W": W_HALF, "quad_n": SYNTH_QUAD, "basis_count": SYNTH_COUNT,
            "steps": SYNTH_STEPS, "coeffs": [float(a) for a in coeffs]}
    (out / "synthetic.json").write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")


def make_inputs(workload: str, seed: int, out: Path) -> None:
    # every workload imports the package first, so a broken package fails
    # set-up and its bytecode is compiled before anything is timed
    import qpswf  # noqa: F401

    out.mkdir(parents=True, exist_ok=True)
    write_config(out, seed)
    if workload == "cli_grid":
        make_grid_inputs(out, seed)
    elif workload == "lib_synthetic":
        make_synthetic_inputs(out, seed)
    elif workload != "cli_pipeline":
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
