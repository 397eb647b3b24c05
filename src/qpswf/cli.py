"""Command-line interface: basis, verify, concentration, extrapolate, qft.

Exit codes: 0 success, 1 internal error, 2 configuration/input validation
or an output that cannot be written, 3 eigensolver failure, 4 residual
violation, 5 iteration hit max_steps without converging.  Every error path
prints one machine-parsable line `ERROR <code> <check>: <detail>` to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np


class CliError(Exception):
    def __init__(self, code: int, check: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.check = check
        self.detail = detail


def _typed(value, kind: type, check: str, name: str):
    """value if it has type kind, else an ERROR 2 <check> line.  A float field also
    takes an int; NaN, infinity and bools (which Python counts as ints) pass for no field."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind) \
            or (isinstance(value, float) and not math.isfinite(value)):
        want = "a finite number" if kind is float else f"of type {kind.__name__}"
        raise CliError(2, check, f"{name} must be {want}, got {value!r}")
    return value


REQUIRED = object()  # a table default: the key must be given

_POSITIVE = (lambda v: v > 0, "> 0")


def _at_least(lo):
    return (lambda v: v >= lo), f">= {lo}"


def _finite_numbers(count: int, word: str):
    # a range: count numbers as a JSON list; type() leaves out bools
    return (lambda v: len(v) == count and all(type(x) in (int, float) and math.isfinite(x)
                                               for x in v)), f"{word} finite numbers"


# each input's keys: (type, default or REQUIRED, range or None); unknown keys are rejected
CONFIG = {
    "T": (float, 1.0, _POSITIVE),
    "W": (float, 1.0, _POSITIVE),
    "grid_halfwidth": (float, 4.0, _POSITIVE),
    "grid_n": (int, 257, (lambda v: v >= 3 and v % 2 == 1, "odd and >= 3")),  # origin on a node
    "quad_n": (int, 256, _at_least(16)),
    "basis_count": (int, 36, _at_least(1)),
    "tol": (float, 1e-6, _at_least(0)),
    "seed": (int, 1, None),  # accepted and ignored: no command draws random numbers
    "output_dir": (str, "out", None),
}
PROBLEM = {
    "d": (float, REQUIRED, _POSITIVE),
    "W": (float, REQUIRED, _POSITIVE),
    "max_steps": (int, 500, _at_least(1)),
    "stop_tol": (float, 1e-10, _at_least(0)),
    "truth_file": (str, "", None),
}
MANIFEST = {
    "T": (float, REQUIRED, _POSITIVE),
    "W": (float, REQUIRED, _POSITIVE),
    "c": (float, None, None),
    "N": (int, REQUIRED, _at_least(16)),
    # the grid of the mode table, typed and ranged as in the config
    **{key: (CONFIG[key][0], REQUIRED, CONFIG[key][2]) for key in ("grid_halfwidth", "grid_n")},
    "coeff": (list, REQUIRED, _finite_numbers(4, "four")),  # (w, i, j, k)
    "modes": (str, REQUIRED, None),
    "entries": (list, REQUIRED, (len, "non-empty")),
}
MANIFEST_ENTRY = {
    "lambda2d": (float, REQUIRED, _POSITIVE),
    "m": (int, None, _at_least(0)),
    "n": (int, None, _at_least(0)),
    "mu_x": (list, None, _finite_numbers(2, "two")),  # [real, imaginary]
    "mu_y": (list, None, _finite_numbers(2, "two")),
}


def _read_table(raw, table: dict, check: str, name: str = None) -> dict:
    """raw's values typed and range-checked against table, with its defaults filled in."""
    if not isinstance(raw, dict):
        raise CliError(2, check, f"{name or check} must be a JSON object")
    for key in raw:
        if key not in table:
            raise CliError(2, check, f"unknown {name or check} key {key!r}")
    values = {}
    for key, (kind, default, valid) in table.items():
        if key in raw:
            values[key] = _typed(raw[key], kind, check, key)
            if valid is not None and not valid[0](values[key]):
                raise CliError(2, check, f"{key} must be {valid[1]}, got {values[key]!r}")
        elif default is REQUIRED:
            raise CliError(2, check, f"{name or check} needs the key {key!r}")
        else:
            values[key] = default
    return values


def _read_json(path: Path, check: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise CliError(2, check, f"cannot read {path}: {exc}")


@contextlib.contextmanager
def _reading(path: Path, check: str = "qgrid"):
    """Any failure in the body but a CliError is one ERROR 2 <check> line naming path."""
    try:
        yield
    except CliError:
        raise
    except Exception as exc:
        raise CliError(2, check, f"{path}: {exc}")


def _read_qgrid(path: Path, check: str = "qgrid", read=None):
    """read(path), load_qgrid by default; any failure is one ERROR 2 <check> line."""
    from .qgrid_io import load_qgrid
    with _reading(path, check):
        return (read or load_qgrid)(path)


def _check_config(cfg: dict) -> dict:
    """The checks that relate config keys to each other."""
    step = 2 * cfg["grid_halfwidth"] / (cfg["grid_n"] - 1)
    ratio = cfg["T"] / step
    for bad, detail in (
            (cfg["grid_halfwidth"] < cfg["T"], "grid_halfwidth must be >= T"),
            (cfg["T"] < step, f"T must be >= one grid step ({step:.6g})"),
            (cfg["quad_n"] < 2 * cfg["basis_count"], "quad_n must be >= 2 * basis_count"),
            (abs(ratio - round(ratio)) > 1e-9,
             "T must land on a grid node (adjust grid_halfwidth/grid_n)"),
            (cfg["W"] > math.pi / step,
             f"W must be <= pi / step = {math.pi / step:.6g}, or the grids alias")):
        if bad:
            raise CliError(2, "config", detail)
    return cfg


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _build_basis(check: str, t_half, w_half, quad_n, count, grid):
    """The basis, or ERROR 3 on a solver failure and ERROR 2 <check> on a rejected value."""
    from .errors import ConvergenceFailure, QpswfError
    from .prolate import build_basis
    try:
        return build_basis(t_half, w_half, quad_n, count, grid=grid)
    except ConvergenceFailure as exc:
        raise CliError(3, "eigensolver", str(exc))
    except QpswfError as exc:
        raise CliError(2, check, str(exc))


def _config_basis(cfg: dict):
    from .grid import GridAxis
    ax = GridAxis.symmetric(cfg["grid_halfwidth"], cfg["grid_n"])
    return _build_basis("config", cfg["T"], cfg["W"], cfg["quad_n"], cfg["basis_count"],
                        (ax, ax))


def cmd_basis(cfg: dict, out: Path) -> int:
    basis = _config_basis(cfg)
    out.mkdir(parents=True, exist_ok=True)
    # the long-double mode table as the exact pair hi + lo of doubles
    ext = basis.tables.ext_x
    hi = ext.astype(np.float64)
    np.save(out / "modes.npy", np.stack([hi, (ext - hi).astype(np.float64)]))
    entries = [{"m": el.m, "n": el.n, "lambda2d": el.lambda2d,
                "mu_x": [el.mu_x.real, el.mu_x.imag], "mu_y": [el.mu_y.real, el.mu_y.imag]}
               for el in basis.items]
    manifest = {"T": cfg["T"], "W": cfg["W"], "c": cfg["T"] * cfg["W"], "N": cfg["quad_n"],
                "grid_halfwidth": cfg["grid_halfwidth"], "grid_n": cfg["grid_n"],
                "coeff": basis.coeff.as_array().tolist(), "modes": "modes.npy",
                "entries": entries}
    _write_json(out / "manifest.json", manifest)
    with open(out / "eigenvalues.csv", "w") as fh:
        fh.write("q,m,n,lambda2d\n")
        for q, e in enumerate(entries):
            fh.write(f"{q},{e['m']},{e['n']},{e['lambda2d']!r}\n")
    print(f"wrote {len(entries)} basis elements to {out}")
    return 0


def _check_declared(name: str, manifest: dict, entries: list, basis, tol: float) -> None:
    """ERROR 4 manifest_consistency unless each c, coeff, m, n, lambda2d, mu_x and mu_y the
    manifest declares is that of the rebuilt basis: c and coeff to 1e-12 and lambda2d and
    mu to tol, relative."""
    from .quaternion import Quaternion
    declared = [(name, "c", manifest["c"], manifest["T"] * manifest["W"], 1e-12),
                (name, "coeff", Quaternion(*manifest["coeff"]), basis.coeff, 1e-12)]
    for q, (e, el) in enumerate(zip(entries, basis.items)):
        where = f"entry {q}"
        declared += [(where, "m", e["m"], el.m, 0), (where, "n", e["n"], el.n, 0),
                     (where, "lambda2d", e["lambda2d"], el.lambda2d, tol)]
        declared += [(where, key, e[key] and complex(*e[key]), want, tol)
                     for key, want in (("mu_x", el.mu_x), ("mu_y", el.mu_y))]
    for where, key, got, want, rel in declared:
        if got is not None and not abs(got - want) <= rel * abs(want):
            raise CliError(4, "manifest_consistency",
                           f"{where}: {key} = {got!r} but the rebuilt basis has {want!r}")


def cmd_verify(tol: float, out: Path, manifest_path: Path) -> int:
    from .grid import GridAxis, Region
    from .prolate import EIG_FLOOR, gram_matrix, verify_allpass, verify_finite_qft, verify_lowpass

    manifest = _read_table(_read_json(manifest_path, "manifest"), MANIFEST, "manifest")
    entries = [_read_table(e, MANIFEST_ENTRY, "manifest", "manifest entry")
               for e in manifest["entries"]]
    # rebuild on the grid the manifest declares, not the config's
    ax = GridAxis.symmetric(manifest["grid_halfwidth"], manifest["grid_n"])
    basis = _build_basis("manifest", manifest["T"], manifest["W"], manifest["N"],
                         len(entries), (ax, ax))
    path = manifest_path.parent / manifest["modes"]
    shape = (2, len(basis.tables.band), ax.count)
    with _reading(path, "manifest"), open(path, "rb") as fh:
        table = np.load(fh, allow_pickle=False)
        if not (table.dtype == np.float64 and table.shape == shape and np.isfinite(table).all()):
            raise CliError(2, "manifest", f"{path}: not a finite float64 array of shape {shape}")
    _check_declared(manifest_path.name, manifest, entries, basis, tol)

    skipped = 0
    # per element: lowpass, finite QFT, mu-lambda relation and allpass excess
    residuals = [(0.0, 0.0, 0.0, 0.0)]
    for el in basis.items:
        if el.lambda2d < EIG_FLOOR:
            skipped += 1
            continue
        lowpass = verify_lowpass(el)
        chk = verify_finite_qft(el)
        ap = verify_allpass(el, window_halfwidth=4 * basis.t_half)
        residuals.append((lowpass, chk.residual, chk.relation_residual,
                          ap.residual - ap.tail_bound))
    idx = np.arange(len(basis))

    def gram_dev(region, diagonal):
        # the Gram is the identity over the plane and diag(lambda) over the time square
        g = gram_matrix(basis, region)
        g[idx, idx, 0] -= diagonal
        return float(np.abs(g).max())

    lowpass, fqft, relation, allpass_excess = (max(r) for r in zip(*residuals))
    checks = {
        # the stored table hi + lo against the rebuilt long-double table
        "file_consistency": float(np.abs(table[0].astype(np.longdouble) + table[1]
                                         - basis.tables.ext_x).max()),
        "verify_lowpass": lowpass,
        "verify_finite_qft": fqft,
        "mu_lambda_relation": relation,
        "verify_allpass_excess": allpass_excess,
        "gram_r2": gram_dev(Region.full(), 1.0),
        "gram_t": gram_dev(Region.square(basis.t_half), basis.eigenvalues()),
    }
    report = {"tol": tol, "skipped_below_floor": skipped, "checks": checks}
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_report.json", report)
    for name, value in checks.items():
        if value > tol:
            raise CliError(4, name, f"residual {value:.3e} exceeds tol {tol:.1e}")
    print(f"verify passed: {len(entries)} elements "
          f"({skipped} below eigenvalue floor skipped), report in {out}")
    return 0


def cmd_concentration(cfg: dict, out: Path, input_path: Path = None) -> int:
    from .concentration import energy_ratios, sweep_admissible_region
    from .errors import QpswfError
    from .svgplot import SvgFigure

    basis = _config_basis(cfg)
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
    fig.add_line([c[0] for c in sweep.curve], [c[1] for c in sweep.curve], "boundary")
    fig.add_scatter([p["xi"] for p in sweep.points],
                    [p["eta_q"] for p in sweep.points], "constructions")
    fig.save(out / "region.svg")

    report = {"lambda0": basis.lambda0, "points": sweep.points}
    if input_path is not None:
        sig = _read_qgrid(input_path, "input")
        try:
            rep = energy_ratios(sig, basis)
        except QpswfError as exc:
            raise CliError(2, "input", f"{input_path}: {exc}")
        report["input"] = rep.as_dict()
    _write_json(out / "report.json", report)
    print(f"concentration outputs in {out}")
    return 0


def cmd_extrapolate(out: Path, problem_path: Path, observation_path: Path) -> int:
    from .errors import ConvergenceFailure, QpswfError
    from .extrapolate import ExtrapolationProblem, pg_run
    from .qgrid_io import save_qgrid
    from .svgplot import SvgFigure

    spec = _read_table(_read_json(problem_path, "problem"), PROBLEM, "problem")
    observed = _read_qgrid(observation_path)
    truth = _read_qgrid(problem_path.parent / spec["truth_file"]) if spec["truth_file"] else None
    try:
        problem = ExtrapolationProblem(observed=observed, d_half=spec["d"], w_half=spec["W"],
                                       truth=truth)
        trace = pg_run(problem, max_steps=spec["max_steps"], stop_tol=spec["stop_tol"])
    except ConvergenceFailure as exc:
        raise CliError(3, "eigensolver", str(exc))
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


def cmd_qft(out: Path, direction: str, input_path: Path) -> int:
    from .qft import _SYM_TOL, _two_sided, dual_frequency_axis
    from .qgrid_io import open_qgrid, write_qgrid

    def dual_axes(*axes):
        # the opposite direction maps each dual back to its own dual, which must be the axis
        duals = [dual_frequency_axis(ax) for ax in axes]
        for ax, back in zip(axes, map(dual_frequency_axis, duals)):
            if back.count != ax.count or abs(back.start - ax.start) > _SYM_TOL * ax.step:
                raise ValueError(f"axis of {ax.count} nodes from {ax.start:.6g} is not symmetric"
                                 " about 0 with an odd count; the opposite direction changes it")
        return duals

    def transform(path):
        # the whole input is read and transformed here; its output rows are combined as
        # they are written
        with open_qgrid(path) as (ax_x, ax_y, read):
            axes = dual_axes(ax_x, ax_y)
            return axes, _two_sided(read, ax_x, ax_y, *axes, -1 if direction == "forward" else 1)

    # only reading and transforming count as a bad input; a failed write is ERROR 2 output
    axes, blocks = _read_qgrid(input_path, read=transform)
    out.mkdir(parents=True, exist_ok=True)
    written = out / ("spectrum.qgrid" if direction == "forward" else "signal.qgrid")
    write_qgrid(written, *axes, blocks)
    print(f"wrote {written}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qpswf", description="Quaternionic prolate toolbox")
    p.add_argument("--config", type=Path, help="JSON run configuration")
    p.add_argument("--output", dest="output_dir", help="output directory")
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
        with np.errstate(over="raise"):  # an input too large for double precision
            raw = _read_json(args.config, "config") if args.config else {}
            # type the file's values first, then the flags as the values they replace
            flags = {key: vars(args)[key] for key in ("tol", "output_dir")
                     if vars(args)[key] is not None}
            cfg = _check_config(_read_table({**_read_table(raw, CONFIG, "config"), **flags},
                                            CONFIG, "config"))
            out = Path(cfg["output_dir"])
            if args.command == "basis":
                return cmd_basis(cfg, out)
            if args.command == "verify":
                return cmd_verify(cfg["tol"], out, args.manifest)
            if args.command == "concentration":
                return cmd_concentration(cfg, out, args.input)
            if args.command == "extrapolate":
                return cmd_extrapolate(out, args.problem, args.observation)
            return cmd_qft(out, args.direction, args.input)
    except CliError as exc:
        code, check, detail = exc.code, exc.check, exc.detail
    except (FloatingPointError, OverflowError) as exc:  # numpy's and Python's float overflow
        code, check, detail = 2, "range", f"{exc}: an input is too large for double precision"
    except MemoryError as exc:
        reason = str(exc) or type(exc).__name__
        code, check, detail = 2, "range", f"{reason}: an input is too large for memory"
    except OSError as exc:
        # every input read is wrapped above, so what reaches here is a write
        code, check, detail = 2, "output", str(exc)
    except Exception as exc:
        code, check, detail = 1, "internal", f"{type(exc).__name__}: {exc}"
    print(f"ERROR {code} {check}: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
