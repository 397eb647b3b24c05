"""Run one qpswf CLI command with spans around the library's public functions.

Usage: python3 perfbench/traced_cli.py SPANS ITERATION PARENT SPAWNED ALLOC -- CLI-ARGS...

SPANS is the JSON file the spans are written to when the command ends,
ITERATION and PARENT tie them to the caller's iteration and command span,
SPAWNED is the caller's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by all processes), and ALLOC = 1 records the
tracemalloc peak of build_basis.  The exit code is the CLI's.
"""

import sys
import time


def main(argv) -> int:
    spans_path, iteration, parent, spawned, alloc, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS ITERATION PARENT SPAWNED ALLOC -- ARGS")
    import qpswf.cli
    imported = time.perf_counter()

    from tracer import Tracer

    tracer = Tracer(tag=parent, root=parent, iteration=int(iteration), alloc=alloc == "1")
    tracer.record("cli.import", float(spawned), imported)
    tracer.install()
    try:
        code = tracer.call("cli.main", qpswf.cli.main, cli_args)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
