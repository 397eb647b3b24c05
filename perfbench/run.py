"""qpswf benchmark: one workload, one seed, timed for a fixed number of seconds.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up makes the seeded inputs in fresh
processes (several times; setup_s is their median).  The measured part
then repeats the workload's iteration until S seconds have passed, checking
the outputs of every iteration:

  cli_pipeline   qpswf basis, verify --manifest, concentration (default config)
  cli_grid       qpswf extrapolate at grid_n 257, then qft forward/inverse at 1025^2
  lib_synthetic  make_synthetic_problem + 50 band-side pg_run steps, in-process

CLI commands run one after another, each in its own `python3 -m qpswf.cli`
process; BLAS threads are capped at the number of usable CPUs.  With
--trace 0 the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 iterations run
untraced, traced, traced, untraced, ... and it holds every per-layer metric.
The full record (environment, samples, every computed value, failures) is
written to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
from tracer import TARGETS, layer_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set-up is repeated at least SETUP_MIN_REPEATS times and for at least
# SETUP_MIN_S seconds, so that a cheap set-up still gets a steady median
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
CHILD_TIMEOUT_S = 150
CLI_COMMANDS = ("basis", "verify", "concentration", "extrapolate", "qft_forward", "qft_inverse")
WORKLOADS = ("cli_pipeline", "cli_grid", "lib_synthetic")
SPAWNED = "{spawned}"  # replaced by the parent's clock reading at spawn time


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


# ---------------------------------------------------------------------------
# child processes


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # QPSWF_THREADS is the CLI's documented cap; the BLAS variables are set as
    # well because the CLI applies QPSWF_THREADS only after numpy is imported
    for var in ("QPSWF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def last_line(path: Path) -> str:
    lines = Path(path).read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def spawn(argv, env, log_path: Path, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run argv to completion; wall time, CPU time and max RSS from wait4."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        argv = [a.replace(SPAWNED, repr(t0)) for a in argv]
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "start": t0, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "log": log_path}


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tree_digest(path: Path, pattern: str = "*") -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob(pattern) if q.is_file()):
        h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, run_dir: Path, env: dict):
    """Make the inputs several times, each in a fresh process.

    Returns the input directory, the wall times, and whether every repeat
    wrote byte-identical files.
    """
    times, digests = [], []
    while len(times) < SETUP_MAX_REPEATS and (len(times) < SETUP_MIN_REPEATS
                                             or sum(times) < SETUP_MIN_S):
        r = len(times)
        out = run_dir / f"inputs{r}"
        child = spawn([sys.executable, str(BENCH_DIR / "inputs.py"), workload, str(seed),
                       str(out)], env, run_dir / f"setup{r}.log")
        if child["code"] != 0:
            raise BenchError(f"set-up exited {child['code']}: {last_line(child['log'])}")
        times.append(child["wall_s"])
        digests.append(tree_digest(out))
        if r:
            shutil.rmtree(out)
    return run_dir / "inputs0", times, len(set(digests)) == 1


# ---------------------------------------------------------------------------
# CLI workloads


def cli_commands(workload: str, inputs: Path, out: Path):
    """(name, CLI arguments) of one iteration, in order."""
    cfg = ["--config", str(inputs / "config.json")]
    if workload == "cli_pipeline":
        return [
            ("basis", cfg + ["--output", str(out / "basis"), "basis"]),
            ("verify", cfg + ["--output", str(out / "verify"), "verify",
                              "--manifest", str(out / "basis" / "manifest.json")]),
            ("concentration", cfg + ["--output", str(out / "concentration"),
                                     "concentration"]),
        ]
    return [
        ("extrapolate", cfg + ["--output", str(out / "extrapolate"), "extrapolate",
                               "--problem", str(inputs / "problem.json"),
                               "--observation", str(inputs / "obs.qgrid")]),
        ("qft_forward", cfg + ["--output", str(out / "forward"), "qft", "forward",
                               "--input", str(inputs / "signal.qgrid")]),
        ("qft_inverse", cfg + ["--output", str(out / "inverse"), "qft", "inverse",
                               "--input", str(out / "forward" / "spectrum.qgrid")]),
    ]


def check_cli_outputs(workload: str, inputs: Path, out: Path):
    try:
        if workload == "cli_pipeline":
            tol = json.loads((inputs / "config.json").read_text())["tol"]
            return (checks.check_verify_report(out / "verify" / "verify_report.json", tol)
                    or checks.check_concentration_report(
                        out / "concentration" / "report.json"))
        return (checks.check_extrapolate_trace(out / "extrapolate" / "trace.csv")
                or checks.check_qft_roundtrip(inputs / "signal.qgrid",
                                              out / "inverse" / "signal.qgrid"))
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"


def cli_argv(args, traced: bool, spans: Path, k: int, span_id: str, alloc: bool = False):
    if not traced:
        return [sys.executable, "-m", "qpswf.cli", *args]
    return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), str(k), span_id,
            SPAWNED, "1" if alloc else "0", "--", *args]


def run_cli_iteration(workload: str, inputs: Path, run_dir: Path, env: dict, k: int,
                      traced: bool = False, after: dict = None):
    """One iteration: the workload's commands in order, then the output checks.

    after maps a command name to a callable(out_dir) run once it has exited
    (tests use it to corrupt an intermediate output).  Returns the iteration
    record and, when traced, its spans.
    """
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (run_dir / "spans").mkdir(exist_ok=True)
    record = {"iteration": k, "traced": traced, "cmd_s": {}, "cpu_s": 0.0, "rss_mb": 0.0,
              "failure": None}
    spans = []
    it_id = f"it{k}"
    t0 = time.perf_counter()
    for name, args in cli_commands(workload, inputs, out):
        span_id = f"{it_id}.{name}"
        spans_file = run_dir / "spans" / f"{span_id}.json"
        child = spawn(cli_argv(args, traced, spans_file, k, span_id), env,
                      run_dir / f"{name}.log")
        record["cmd_s"][name] = child["wall_s"]
        record["cpu_s"] += child["cpu_s"]
        record["rss_mb"] = max(record["rss_mb"], child["rss_mb"])
        if traced:
            spans.append({"id": span_id, "name": f"cmd.{name}", "parent": it_id,
                          "iteration": k, "start": child["start"],
                          "end": child["start"] + child["wall_s"]})
            if spans_file.exists():
                spans.extend(json.loads(spans_file.read_text()))
        if after and name in after:
            after[name](out)
        if child["code"] != 0:
            record["failure"] = f"{name} exited {child['code']}: {last_line(child['log'])}"
            break
    record["wall_s"] = time.perf_counter() - t0
    if traced:
        spans.append({"id": it_id, "name": "iteration", "parent": None, "iteration": k,
                      "start": t0, "end": t0 + record["wall_s"]})
    record["output_mb"] = tree_bytes(out) / 2 ** 20
    if record["failure"] is None:
        record["failure"] = check_cli_outputs(workload, inputs, out)
    if workload == "cli_grid" and (out / "extrapolate" / "trace.csv").exists():
        record["bound_violations"] = checks.bound_violations(out / "extrapolate" / "trace.csv")
    return record, spans


def alloc_probe(workload: str, inputs: Path, run_dir: Path, env: dict) -> float:
    """tracemalloc peak of build_basis, from a separate run of the commands.

    Runs the iteration's commands in order with allocation tracking until
    one of them has called build_basis; kept out of the timed iterations
    because tracemalloc slows every allocation.
    """
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for name, args in cli_commands(workload, inputs, out):
        spans_file = run_dir / "spans" / f"probe.{name}.json"
        spawn(cli_argv(args, True, spans_file, -1, f"probe.{name}", alloc=True), env,
              run_dir / f"probe.{name}.log")
        peaks = [s["alloc_peak_mb"] for s in json.loads(spans_file.read_text())
                 if "alloc_peak_mb" in s] if spans_file.exists() else []
        if peaks:
            return max(peaks)
    return 0.0


def measure_cli(workload, inputs, run_dir, env, seconds, trace):
    records, spans = [], []
    start = time.perf_counter()
    while len(records) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        k = len(records)
        record, it_spans = run_cli_iteration(workload, inputs, run_dir, env, k,
                                             traced=trace and k % 4 in (1, 2))
        records.append(record)
        spans.extend(it_spans)
    return records, spans


# ---------------------------------------------------------------------------
# lib_synthetic


def measure_lib(inputs, run_dir, env, seconds, trace):
    result_path = run_dir / "lib_result.json"
    child = spawn([sys.executable, str(BENCH_DIR / "lib_worker.py"), str(inputs),
                   repr(seconds), "1" if trace else "0", str(result_path)],
                  env, run_dir / "lib_worker.log", timeout=seconds + CHILD_TIMEOUT_S)
    if child["code"] != 0:
        return [{"iteration": 0, "traced": False, "wall_s": child["wall_s"],
                 "cpu_s": child["cpu_s"], "rss_mb": child["rss_mb"], "output_mb": 0.0,
                 "cmd_s": {}, "failure": f"worker exited {child['code']}: "
                                         f"{last_line(child['log'])}"}], []
    result = json.loads(result_path.read_text())
    records = result["iterations"]
    for r in records:
        r.update(rss_mb=child["rss_mb"], output_mb=0.0, cmd_s={})
    return records, result["spans"]


# ---------------------------------------------------------------------------
# metrics


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end_metrics(records, setup_times) -> dict:
    return {
        "iter_s": median(r["wall_s"] for r in records),
        "peak_rss_mb": median(r["rss_mb"] for r in records),
        "setup_s": median(setup_times),
    }


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1],
            "samples": n}


def layer_metrics(records, spans, alloc_peak_mb: float):
    """Per-layer metrics: medians over traced iterations of per-iteration totals.

    cmd.* and trace.iter_untraced_s come from the untraced iterations of the
    same run.  Returns every value computed, a superset of BENCHMARK.json's.
    """
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    by_iteration = {}
    for s in spans:
        by_iteration.setdefault(s["iteration"], []).append(s)
    totals = [layer_totals(by_iteration.get(r["iteration"], [])) for r in traced]

    m = {}
    for mod, attr, extra_field in TARGETS:
        name = f"{mod}.{attr}"
        for field in ("calls", "total_s", "self_s") + ((extra_field,) if extra_field else ()):
            m[f"{name}.{field}"] = median(t[name][field] for t in totals)
    m["cli.import_s"] = median(s["end"] - s["start"] for s in spans if s["name"] == "cli.import")
    for cmd in CLI_COMMANDS:
        m[f"cmd.{cmd}_s"] = median(r["cmd_s"][cmd] for r in plain if cmd in r["cmd_s"])
    m["output_mb"] = median(r["output_mb"] for r in records)
    m["extrapolate.bound_violation_steps"] = median(r.get("bound_violations", 0)
                                                    for r in records)
    untraced_s = median(r["wall_s"] for r in plain)
    traced_s = median(r["wall_s"] for r in traced)
    m["trace.iter_untraced_s"] = untraced_s
    m["trace.iter_traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    m["prolate.build_basis.alloc_peak_mb"] = alloc_peak_mb
    bases = m["prolate.build_basis.calls"]
    m["prolate.solves_per_basis"] = m["prolate.eig_prolate_1d.calls"] / bases if bases else 0.0
    return m


# ---------------------------------------------------------------------------
# environment record


def git_commit(root: Path):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "src_sha256": tree_digest(SRC / "qpswf", "*.py"),
    }


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "qpswf" / "cli.py").is_file():
        raise BenchError(f"no qpswf sources under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs, setup_times, inputs_identical = set_up(workload, seed, run_dir, env)
        if workload == "lib_synthetic":
            records, spans = measure_lib(inputs, run_dir, env, seconds, trace)
        else:
            records, spans = measure_cli(workload, inputs, run_dir, env, seconds, trace)
        alloc = 0.0
        if trace and any(s["name"] == "prolate.build_basis" for s in spans):
            alloc = alloc_probe(workload, inputs, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = end_to_end_metrics(records, setup_times)
    if trace:
        values.update(layer_metrics(records, spans, alloc))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")

    failures = [r["failure"] for r in records if r["failure"]]
    if not inputs_identical:
        failures.append("set-up repeats wrote different inputs for the same seed")
    failed = sum(1 for r in records if r["failure"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(threads),
        "setup_s_samples": setup_times,
        "inputs_identical": inputs_identical,
        "iter_s_samples": [r["wall_s"] for r in records if not r["traced"]],
        "iter_s_tail": tail_percentile([r["wall_s"] for r in records if not r["traced"]]),
        "failed_ratio": failed / len(records),
        "failures": failures,
        "iterations": records,
        "metrics": values,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))

    env_rec = record["environment"]
    print(f"workload {workload} seed {seed}: {len(records)} iterations, {failed} failed; "
          f"python {env_rec['python']}, numpy {env_rec['numpy']}, "
          f"{threads} BLAS threads, longdouble eps {env_rec['longdouble_eps']:.3g}")
    for msg in failures:
        print(f"  FAILED: {msg}")
    if workload == "cli_grid":
        worst = max((r.get("bound_violations", 0) for r in records), default=0)
        print(f"  note: up to {worst} extrapolation steps per iteration have sup_e above "
              f"the stated pointwise bound (diagnostic, not a failure)")
    for m in wanted:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"  full record: {results / (stem + '.json')}")
    return {"correct": not failures, "attempted": len(records), "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
