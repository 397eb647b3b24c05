"""Command-line interface: basis, verify, concentration, extrapolate, qft.

Exit codes: 0 success, 1 internal error, 2 configuration/input validation
or an output that cannot be written, 3 eigensolver failure, 4 residual
violation, 5 iteration hit max_steps without converging.  Every error path
prints one machine-parsable line `ERROR <code> <check>: <detail>` to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path


class CliError(Exception):
    def __init__(self, code: int, check: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.check = check
        self.detail = detail


def _typed(value, kind: type, check: str, name: str):
    """value if it has type kind, else an ERROR 2 <check> line.

    A float field also takes an int; NaN, infinity and bools (which Python
    counts as ints) pass for no field.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind) \
            or (isinstance(value, float) and not math.isfinite(value)):
        want = "a finite number" if kind is float else f"of type {kind.__name__}"
        raise CliError(2, check, f"{name} must be {want}, got {value!r}")
    return value


@dataclass
class RunConfig:
    t_half: float = 1.0
    w_half: float = 1.0
    grid_halfwidth: float = 4.0
    grid_n: int = 257
    quad_n: int = 256
    basis_count: int = 36
    tol: float = 1e-6
    seed: int = 1
    output_dir: str = "out"

    _KEYS = {"T": "t_half", "W": "w_half", "grid_halfwidth": "grid_halfwidth",
             "grid_n": "grid_n", "quad_n": "quad_n", "basis_count": "basis_count",
             "tol": "tol", "seed": "seed", "output_dir": "output_dir"}

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(2, "config", f"cannot read config {path}: {exc}")
        if not isinstance(raw, dict):
            raise CliError(2, "config", f"config {path} must be a JSON object")
        cfg = cls()
        for key, value in raw.items():
            if key not in cls._KEYS:
                raise CliError(2, "config", f"unknown config key {key!r}")
            attr = cls._KEYS[key]
            setattr(cfg, attr, _typed(value, type(getattr(cfg, attr)), "config", key))
        return cfg

    def validate(self) -> None:
        if not (self.t_half > 0 and self.w_half > 0):
            raise CliError(2, "config", "T and W must be positive")
        if self.grid_halfwidth < self.t_half:
            raise CliError(2, "config", "grid_halfwidth must be >= T")
        if self.grid_n % 2 == 0:
            raise CliError(2, "config", "grid_n must be odd so the origin is a node")
        if self.grid_n < 3:
            raise CliError(2, "config", "grid_n must be >= 3")
        if self.quad_n < 2 * self.basis_count:
            raise CliError(2, "config", "quad_n must be >= 2 * basis_count")
        step = 2 * self.grid_halfwidth / (self.grid_n - 1)
        ratio = self.t_half / step
        if abs(ratio - round(ratio)) > 1e-9:
            raise CliError(2, "config",
                           "T must land on a grid node (adjust grid_halfwidth/grid_n)")

    def grid_axes(self):
        from .grid import GridAxis
        ax = GridAxis.symmetric(self.grid_halfwidth, self.grid_n)
        return ax, ax


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _build_basis(cfg: RunConfig, grid=None):
    from .errors import ConvergenceFailure, QpswfError
    from .prolate import build_basis
    try:
        return build_basis(cfg.t_half, cfg.w_half, cfg.quad_n, cfg.basis_count,
                           grid=grid or cfg.grid_axes())
    except ConvergenceFailure as exc:
        raise CliError(3, "eigensolver", str(exc))
    except QpswfError as exc:
        raise CliError(2, "config", str(exc))


def cmd_basis(cfg: RunConfig, out: Path) -> int:
    from .qgrid_io import save_qgrid
    basis = _build_basis(cfg)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for q, el in enumerate(basis.items):
        fname = f"psi_{q:03d}.qgrid"
        save_qgrid(out / fname, el.values)
        entries.append({
            "m": el.m, "n": el.n, "lambda2d": el.lambda2d,
            "mu_x": [el.mu_x.real, el.mu_x.imag],
            "mu_y": [el.mu_y.real, el.mu_y.imag],
            "file": fname,
        })
    manifest = {"T": cfg.t_half, "W": cfg.w_half, "c": cfg.t_half * cfg.w_half,
                "N": cfg.quad_n, "entries": entries}
    _write_json(out / "manifest.json", manifest)
    with open(out / "eigenvalues.csv", "w") as fh:
        fh.write("q,m,n,lambda2d\n")
        for q, e in enumerate(entries):
            fh.write(f"{q},{e['m']},{e['n']},{e['lambda2d']!r}\n")
    print(f"wrote {len(entries)} basis elements to {out}")
    return 0


def _load_element(path: Path):
    from .qgrid_io import load_qgrid
    if not path.exists():
        raise CliError(2, "manifest", f"missing element file {path}")
    try:
        return load_qgrid(path)
    except Exception as exc:
        raise CliError(2, "qgrid", f"{path}: {exc}")


def cmd_verify(cfg: RunConfig, out: Path, manifest_path: Path) -> int:
    import numpy as np

    from .grid import Region
    from .prolate import (EIG_FLOOR, gram_matrix, verify_allpass,
                          verify_finite_qft, verify_lowpass)

    try:
        manifest = json.loads(manifest_path.read_text())
        cfg.t_half, cfg.w_half, cfg.quad_n = manifest["T"], manifest["W"], manifest["N"]
        entries = [(e["file"], e["lambda2d"]) for e in manifest["entries"]]
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(2, "manifest", f"cannot read manifest: {exc}")
    except (KeyError, TypeError) as exc:
        raise CliError(2, "manifest", "need T, W, N and entries with file and lambda2d "
                       f"({type(exc).__name__}: {exc})")
    for name, value in (("T", cfg.t_half), ("W", cfg.w_half)):
        if not _typed(value, float, "manifest", name) > 0:
            raise CliError(2, "manifest", f"{name} must be positive, got {value!r}")
    _typed(cfg.quad_n, int, "manifest", "N")
    for fname, lam2d in entries:
        _typed(fname, str, "manifest", "entry file")
        _typed(lam2d, float, "manifest", "entry lambda2d")
    if not entries:
        raise CliError(2, "manifest", "entries is empty")
    cfg.basis_count = len(entries)

    # rebuild on the grid the elements were written on, not the config's
    base_dir = manifest_path.parent
    first = _load_element(base_dir / entries[0][0])
    basis = _build_basis(cfg, grid=(first.ax_x, first.ax_y))

    file_dev = 0.0
    lowpass_max = 0.0
    fqft_max = 0.0
    relation_max = 0.0
    allpass_excess = 0.0
    skipped = 0
    for q, (fname, lam2d) in enumerate(entries):
        stored = _load_element(base_dir / fname)
        if (stored.ax_x, stored.ax_y) != (basis.ax_x, basis.ax_y):
            raise CliError(2, "manifest", f"{fname}: grid axes differ from those of "
                           f"{entries[0][0]}")
        el = basis[q]
        file_dev = max(file_dev, float(np.abs(stored.values - el.values.values).max()))
        if el.lambda2d < EIG_FLOOR:
            skipped += 1
            continue
        lowpass_max = max(lowpass_max, verify_lowpass(el, lam_override=lam2d))
        chk = verify_finite_qft(el)
        fqft_max = max(fqft_max, chk.residual)
        relation_max = max(relation_max, chk.relation_residual)
        ap = verify_allpass(el, window_halfwidth=4 * basis.t_half)
        allpass_excess = max(allpass_excess, ap.residual - ap.tail_bound)

    g_r2 = gram_matrix(basis, Region.full())
    eye = np.zeros_like(g_r2)
    idx = np.arange(len(basis))
    eye[idx, idx, 0] = 1.0
    gram_r2_dev = float(np.abs(g_r2 - eye).max())
    g_t = gram_matrix(basis, Region.square(basis.t_half))
    diag = np.zeros_like(g_t)
    diag[idx, idx, 0] = basis.eigenvalues()
    gram_t_dev = float(np.abs(g_t - diag).max())

    checks = {
        "file_consistency": file_dev,
        "verify_lowpass": lowpass_max,
        "verify_finite_qft": fqft_max,
        "mu_lambda_relation": relation_max,
        "verify_allpass_excess": max(0.0, allpass_excess),
        "gram_r2": gram_r2_dev,
        "gram_t": gram_t_dev,
    }
    report = {"tol": cfg.tol, "skipped_below_floor": skipped, "checks": checks}
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_report.json", report)
    for name, value in checks.items():
        if value > cfg.tol:
            raise CliError(4, name, f"residual {value:.3e} exceeds tol {cfg.tol:.1e}")
    print(f"verify passed: {len(entries)} elements "
          f"({skipped} below eigenvalue floor skipped), report in {out}")
    return 0


def cmd_concentration(cfg: RunConfig, out: Path, input_path: Path = None) -> int:
    from .concentration import energy_ratios, sweep_admissible_region
    from .errors import QpswfError
    from .qgrid_io import load_qgrid
    from .svgplot import SvgFigure

    basis = _build_basis(cfg)
    sweep = sweep_admissible_region(basis)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "region.csv", "w") as fh:
        fh.write("xi,eta_q,deficit,source\n")
        for x, e in sweep.curve:
            fh.write(f"{x!r},{e!r},0.0,curve\n")
        for pt in sweep.points:
            fh.write(f"{pt['xi']!r},{pt['eta_q']!r},{pt['angle_sum_deficit']!r},"
                     f"{pt['source']}\n")

    fig = SvgFigure("Admissible energy-concentration region",
                    "xi (time ratio)", "eta_Q (band ratio)")
    fig.add_line([c[0] for c in sweep.curve], [c[1] for c in sweep.curve],
                 "boundary")
    fig.add_scatter([p["xi"] for p in sweep.points],
                    [p["eta_q"] for p in sweep.points], "constructions")
    fig.save(out / "region.svg")

    report = {"lambda0": basis.lambda0, "points": sweep.points}
    if input_path is not None:
        try:
            sig = load_qgrid(input_path)
        except Exception as exc:
            raise CliError(2, "input", f"{input_path}: {exc}")
        try:
            rep = energy_ratios(sig, basis)
        except QpswfError as exc:
            raise CliError(2, "input", f"{input_path}: {exc}")
        report["input"] = rep.as_dict()
    _write_json(out / "report.json", report)
    print(f"concentration outputs in {out}")
    return 0


def cmd_extrapolate(cfg: RunConfig, out: Path, problem_path: Path,
                    observation_path: Path) -> int:
    from .errors import QpswfError
    from .extrapolate import ExtrapolationProblem, pg_run
    from .qgrid_io import load_qgrid, save_qgrid
    from .svgplot import SvgFigure

    try:
        spec = json.loads(problem_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(2, "problem", f"cannot read problem spec: {exc}")
    if not isinstance(spec, dict):
        raise CliError(2, "problem", f"problem spec {problem_path} must be a JSON object")
    # a missing d or W reads as None and fails the type check
    d_half = _typed(spec.get("d"), float, "problem", "d")
    w_half = _typed(spec.get("W"), float, "problem", "W")
    max_steps = _typed(spec.get("max_steps", 500), int, "problem", "max_steps")
    stop_tol = _typed(spec.get("stop_tol", 1e-10), float, "problem", "stop_tol")
    truth_file = _typed(spec.get("truth_file", ""), str, "problem", "truth_file")
    try:
        observed = load_qgrid(observation_path)
    except Exception as exc:
        raise CliError(2, "qgrid", f"{observation_path}: {exc}")
    truth = None
    if truth_file:
        try:
            truth = load_qgrid(problem_path.parent / truth_file)
        except Exception as exc:
            raise CliError(2, "qgrid", f"truth file: {exc}")
    try:
        problem = ExtrapolationProblem(observed=observed, d_half=d_half, w_half=w_half,
                                       truth=truth)
        trace = pg_run(problem, max_steps=max_steps, stop_tol=stop_tol)
    except (QpswfError, ValueError) as exc:
        raise CliError(2, "problem", str(exc))

    out.mkdir(parents=True, exist_ok=True)
    save_qgrid(out / "final.qgrid", trace.final)
    with open(out / "trace.csv", "w") as fh:
        fh.write("n,E_n,sup_e,bound,delta\n")
        for r in trace.rows:
            fh.write(f"{r.n},{r.e_energy!r},{r.sup_e!r},{r.bound!r},{r.delta!r}\n")
    fig = SvgFigure("Extrapolation error decay", "iteration", "energy", logy=True)
    es = [r.e_energy for r in trace.rows]
    if any(e == e and e > 0 for e in es):  # skip all-NaN traces
        fig.add_line([r.n for r in trace.rows], es, "E_n")
    fig.add_line([r.n for r in trace.rows], [max(r.delta, 1e-300) for r in trace.rows],
                 "relative update")
    fig.save(out / "trace.svg")

    if not trace.converged:
        print(f"ERROR 5 extrapolate: max_steps reached without convergence "
              f"(last delta {trace.rows[-1].delta:.3e})", file=sys.stderr)
        return 5
    print(f"converged in {trace.steps} steps, outputs in {out}")
    return 0


def cmd_qft(cfg: RunConfig, out: Path, direction: str, input_path: Path) -> int:
    from .qft import (dual_frequency_axes, dual_frequency_axis, forward_qft,
                      inverse_qft)
    from .qgrid_io import load_qgrid, load_spectrum, save_qgrid, save_spectrum

    out.mkdir(parents=True, exist_ok=True)
    try:
        if direction == "forward":
            sig = load_qgrid(input_path)
            if sig.ax_x.count % 2 == 0 or sig.ax_y.count % 2 == 0:
                raise ValueError("axis counts must be odd; qft inverse cannot restore an even one")
            ax_u, ax_v = dual_frequency_axes(sig)
            spec = forward_qft(sig, ax_u, ax_v)
            written = save_spectrum(out / "spectrum.qgrid", spec)
            print(f"wrote {', '.join(str(p) for p in written)}")
        else:
            spec = load_spectrum(input_path)
            # the dual of each frequency axis is the spatial axis it came from
            sig = inverse_qft(spec, dual_frequency_axis(spec.ax_u),
                              dual_frequency_axis(spec.ax_v))
            save_qgrid(out / "signal.qgrid", sig)
            print(f"wrote {out / 'signal.qgrid'}")
    except Exception as exc:
        raise CliError(2, "qgrid", f"{input_path}: {exc}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qpswf",
                                description="Quaternionic prolate toolbox")
    p.add_argument("--config", type=Path, help="JSON run configuration")
    p.add_argument("--output", type=Path, help="output directory")
    p.add_argument("--seed", type=int, help="seed for deterministic corpora")
    p.add_argument("--tol", type=float, help="residual tolerance")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("basis", help="compute and store the eigenbasis")

    v = sub.add_parser("verify", help="re-derive and check a stored basis")
    v.add_argument("--manifest", type=Path, required=True)

    c = sub.add_parser("concentration", help="emit the admissible-region artifacts")
    c.add_argument("--input", type=Path, help="optional QGRID signal to report on")

    e = sub.add_parser("extrapolate", help="run the bandlimited extrapolation")
    e.add_argument("--problem", type=Path, required=True)
    e.add_argument("--observation", type=Path, required=True)

    q = sub.add_parser("qft", help="transform a QGRID file")
    q.add_argument("direction", choices=["forward", "inverse"])
    q.add_argument("--input", type=Path, required=True)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.tol is not None:
            cfg.tol = args.tol
        if args.output is not None:
            cfg.output_dir = str(args.output)
        cfg.validate()
        out = Path(cfg.output_dir)
        if args.command == "basis":
            return cmd_basis(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.manifest)
        if args.command == "concentration":
            return cmd_concentration(cfg, out, args.input)
        if args.command == "extrapolate":
            return cmd_extrapolate(cfg, out, args.problem, args.observation)
        if args.command == "qft":
            return cmd_qft(cfg, out, args.direction, args.input)
        raise CliError(2, "command", f"unknown command {args.command}")
    except CliError as exc:
        code, check, detail = exc.code, exc.check, exc.detail
    except OSError as exc:
        # every input read is wrapped above, so what reaches here is a write
        code, check, detail = 2, "output", str(exc)
    except Exception as exc:
        code, check, detail = 1, "internal", f"{type(exc).__name__}: {exc}"
    print(f"ERROR {code} {check}: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
