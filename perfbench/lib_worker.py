"""lib_synthetic measurement process: band-side extrapolation through the library.

Usage: python3 perfbench/lib_worker.py INPUTS SECONDS TRACE RESULT

Builds the basis named in INPUTS/synthetic.json (not timed: the parent
times the same build as part of set-up), then repeats one iteration --
make_synthetic_problem followed by a fixed-length pg_run with the
closed-form comparison -- until SECONDS have passed, checking every
iteration against criterion 6.  With TRACE = 1, iterations run untraced,
traced, traced, untraced, and so on.  Per-iteration records (and spans) go
to the JSON file RESULT.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_synthetic_trace
from tracer import Tracer


def main(inputs: Path, seconds: float, trace: bool, result_path: Path) -> None:
    from qpswf import extrapolate, prolate

    spec = json.loads((inputs / "synthetic.json").read_text())
    basis = prolate.build_basis(spec["T"], spec["W"], spec["quad_n"], spec["basis_count"])
    coeffs = np.array(spec["coeffs"])
    lambdas = basis.eigenvalues()[: len(coeffs)]
    steps = spec["steps"]

    def iteration():
        problem = extrapolate.make_synthetic_problem(basis, coeffs)
        return extrapolate.pg_run(problem, max_steps=steps, stop_tol=0.0,
                                  compare_closed_form=True)

    tracer = Tracer(tag="lib")
    records = []
    start = time.perf_counter()
    while len(records) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        k = len(records)
        traced = trace and k % 4 in (1, 2)
        if traced:
            tracer.iteration = k
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        run = tracer.call("iteration", iteration) if traced else iteration()
        t1, cpu1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        records.append({"iteration": k, "traced": traced, "wall_s": t1 - t0,
                        "cpu_s": cpu1 - cpu0,
                        "failure": check_synthetic_trace(run.rows, coeffs, lambdas, steps)})
    result_path.write_text(json.dumps({"iterations": records, "spans": tracer.spans}))


if __name__ == "__main__":
    main(Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4]))
