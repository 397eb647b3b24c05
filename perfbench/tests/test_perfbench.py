"""Tests of the benchmark's own checks, input generation and tracing.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

ENV = bench.child_env(1)


def cli(*args):
    return subprocess.run([sys.executable, "-m", "qpswf.cli", *map(str, args)],
                          env=ENV, capture_output=True, text=True)


def test_perturbed_manifest_counts_as_failure(tmp_path):
    inp = tmp_path / "inputs"
    inp.mkdir()
    inputs.write_config(inp, seed=1, grid_n=129, quad_n=128, basis_count=6)

    def perturb(out):
        path = out / "basis" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["entries"][0]["lambda2d"] *= 1.2
        path.write_text(json.dumps(manifest))

    record, _ = bench.run_cli_iteration("cli_pipeline", inp, tmp_path / "run", ENV, 0,
                                        after={"basis": perturb})
    assert record["failure"].startswith("verify exited 4")
    record, _ = bench.run_cli_iteration("cli_pipeline", inp, tmp_path / "run", ENV, 1)
    assert record["failure"] is None


def test_flipped_roundtrip_sample_fails_qft_check(tmp_path):
    from qpswf.grid import GridAxis
    from qpswf.qgrid_io import save_qgrid
    from qpswf.rng import CounterRng
    from qpswf.signals import gaussian_mixed_qsignal

    ax = GridAxis.symmetric(4.0, 65)
    save_qgrid(tmp_path / "signal.qgrid",
               gaussian_mixed_qsignal(ax, ax, CounterRng(3), 1.0, 1.0))
    assert cli("--output", tmp_path / "fwd", "qft", "forward",
               "--input", tmp_path / "signal.qgrid").returncode == 0
    assert cli("--output", tmp_path / "inv", "qft", "inverse",
               "--input", tmp_path / "fwd" / "spectrum.qgrid").returncode == 0
    back = tmp_path / "inv" / "signal.qgrid"
    assert checks.check_qft_roundtrip(tmp_path / "signal.qgrid", back) is None

    raw = bytearray(back.read_bytes())
    values = np.frombuffer(raw, dtype="<f8", offset=checks._QGRID_HEADER.size)
    i = int(np.argmax(np.abs(values)))
    values[i] = -values[i]
    back.write_bytes(bytes(raw))
    assert "roundtrip error" in checks.check_qft_roundtrip(tmp_path / "signal.qgrid", back)


@pytest.mark.parametrize("workload", ["cli_pipeline", "cli_grid", "lib_synthetic"])
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    digests = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        subprocess.run([sys.executable, str(BENCH / "inputs.py"), workload, str(seed),
                        str(tmp_path / name)], env=ENV, check=True)
        digests[name] = bench.tree_digest(tmp_path / name)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_tracer_patches_imported_names_and_restores_them():
    import qpswf.extrapolate
    import qpswf.grid
    from qpswf.grid import GridAxis, QSignal

    original = qpswf.grid.energy
    tracer = Tracer(tag="t", iteration=0)
    tracer.install()
    try:
        assert qpswf.extrapolate.energy is qpswf.grid.energy is not original
        ax = GridAxis.symmetric(1.0, 5)
        qpswf.extrapolate.energy(QSignal.zeros(ax, ax))
    finally:
        tracer.uninstall()
    assert qpswf.extrapolate.energy is qpswf.grid.energy is original
    assert [s["name"] for s in tracer.spans] == ["grid.energy"]


def test_self_time_subtracts_covered_child_intervals():
    spans = [{"id": "p", "parent": None, "start": 0.0, "end": 10.0},
             {"id": "a", "parent": "p", "start": 1.0, "end": 3.0},
             {"id": "b", "parent": "p", "start": 2.0, "end": 5.0},
             {"id": "c", "parent": "p", "start": 7.0, "end": 8.0}]
    assert self_times(spans)["p"] == pytest.approx(5.0)


def test_result_line_holds_every_end_to_end_metric(capsys):
    assert bench.main(["--workload", "cli_pipeline", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_grid",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert r.returncode != 0
    assert r.stdout == ""
