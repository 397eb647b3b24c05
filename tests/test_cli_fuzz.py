"""Fuzzed CLI inputs end in a result or in one `ERROR <code> <check>:` line.

Config, problem and manifest JSON get values of every JSON type (NaN and
+-Infinity included), a manifest names its table, a missing file or a JSON
file, and QGRID files get truncated or garbled bytes.  Every
draw is bounded so that an accepted input stays small: grid_n <= 65,
quad_n <= 64, max_steps <= 64.
"""

import contextlib
import io
import json
import math
import re
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qpswf import cli  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
TINY = {"T": 1.0, "W": 1.0, "grid_halfwidth": 4.0, "grid_n": 33, "quad_n": 32,
        "basis_count": 4}

NUMBERS = st.one_of(st.integers(-8, 64), st.floats(-70, 70),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
JUNK = st.one_of(NUMBERS, st.booleans(), st.text(max_size=4),
                 st.lists(st.integers(0, 3), max_size=2), st.none())


def _values(*plausible):
    """One of the plausible values three times in four, else any JSON value."""
    return st.integers(0, 3).flatmap(lambda k: JUNK if k == 3 else st.sampled_from(plausible))


def _json_text(objects):
    """Mostly JSON text of a drawn object, some with an unknown key; else a
    JSON value of another type or a few arbitrary bytes."""
    def text(k):
        if k == 9:
            return st.binary(max_size=12)
        drawn = JUNK if k == 8 else objects.map(lambda obj: {**obj, "bogus": 1}) if k == 7 \
            else objects
        return drawn.map(lambda obj: json.dumps(obj).encode())
    return st.integers(0, 9).flatmap(text)


CONFIGS = st.fixed_dictionaries(
    {"grid_n": _values(33, 65), "quad_n": _values(32, 64), "basis_count": _values(1, 4)},
    optional={"T": _values(0.5, 1.0, 2.0), "W": _values(0.5, 1.0, 2.0),
              "grid_halfwidth": _values(2.0, 4.0), "tol": _values(1e-6),
              "seed": _values(1), "output_dir": _values("x")})
PROBLEMS = st.fixed_dictionaries(
    {"d": _values(1.0, 2.0), "W": _values(0.5, 1.0), "max_steps": _values(3, 10)},
    optional={"stop_tol": _values(0.0, 1e-3),
              "truth_file": _values("truth.qgrid", "obs.qgrid", "missing.qgrid")})


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny config, its basis, a band-limited truth and its observation on D."""
    from qpswf.concentration import time_limit
    from qpswf.grid import GridAxis, QSignal
    from qpswf.qft import dual_frequency_axes, inverse_qft, spectrum_from_complex_components
    from qpswf.qgrid_io import save_qgrid
    from qpswf.rng import CounterRng
    from qpswf.signals import random_bandlimited_grid_spectrum

    tmp = tmp_path_factory.mktemp("cli_fuzz")
    (tmp / "tiny.json").write_text(json.dumps(TINY))
    assert cli.main(["--config", str(tmp / "tiny.json"), "--output", str(tmp / "basis"),
                     "basis"]) == 0
    ax = GridAxis.symmetric(4.0, 33)
    ax_u, ax_v = dual_frequency_axes(QSignal.zeros(ax, ax))
    g = random_bandlimited_grid_spectrum(ax_u, ax_v, 1.0, CounterRng(5))
    truth = inverse_qft(spectrum_from_complex_components(ax_u, ax_v, g), ax, ax)
    save_qgrid(tmp / "truth.qgrid", truth)
    save_qgrid(tmp / "obs.qgrid", time_limit(truth, 1.0))
    assert cli.main(["--output", str(tmp / "spectrum"), "qft", "forward",
                     "--input", str(tmp / "truth.qgrid")]) == 0
    return tmp


def _run(*argv):
    """Exit code of cli.main, checked against the ERROR contract on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert not caught, [str(w.message) for w in caught]  # a warning would print to stderr
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and re.match(rf"ERROR {code} \w+: ", lines[0]), lines
    return code


@FUZZ
@given(text=_json_text(CONFIGS), command=st.sampled_from(["basis", "concentration"]),
       tol=st.one_of(st.none(), st.floats(-1, 1), st.sampled_from([math.nan, math.inf])))
def test_fuzzed_config(files, text, command, tol):
    (files / "config.json").write_bytes(text)
    flags = [] if tol is None else [f"--tol={tol!r}"]
    _run("--config", files / "config.json", "--output", files / "out", *flags, command)


@FUZZ
@given(text=_json_text(PROBLEMS))
def test_fuzzed_problem(files, text):
    (files / "problem.json").write_bytes(text)
    _run("--output", files / "out", "extrapolate", "--problem", files / "problem.json",
         "--observation", files / "obs.qgrid")


@FUZZ
@given(data=st.data())
def test_fuzzed_manifest(files, data):
    good = json.loads((files / "basis" / "manifest.json").read_text())
    entry = st.fixed_dictionaries(
        {"lambda2d": _values(*(e["lambda2d"] for e in good["entries"]))},
        optional={"m": _values(0, 1), "n": _values(0, 1), "mu_x": _values([1.0, 0.0])})
    manifest = st.fixed_dictionaries(
        {"T": _values(good["T"]), "W": _values(good["W"]), "N": _values(good["N"], 64),
         "grid_halfwidth": _values(good["grid_halfwidth"], 2.0),
         "grid_n": _values(good["grid_n"], 65),
         "coeff": _values(good["coeff"], [1.0, 0.0, 0.0, 0.0]),
         "modes": _values(good["modes"], "missing.npy", "manifest.json"),
         "entries": st.one_of(st.just(good["entries"]), st.lists(entry, max_size=4), JUNK)},
        optional={"c": _values(good["c"])})
    (files / "basis" / "fuzzed.json").write_bytes(data.draw(_json_text(manifest)))
    _run("--output", files / "out", "verify", "--manifest", files / "basis" / "fuzzed.json")


@FUZZ
@given(data=st.data(), command=st.sampled_from(["forward", "inverse", "extrapolate",
                                                "concentration"]))
def test_fuzzed_qgrid_bytes(files, data, command):
    source = files / ("spectrum/spectrum.qgrid" if command == "inverse" else "obs.qgrid")
    raw = bytearray(source.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        # the 48 header bytes hold the magic, the version, the counts and the axes
        for pos, byte in data.draw(st.lists(st.tuples(
                st.one_of(st.integers(0, 47), st.integers(0, len(raw) - 1)),
                st.integers(0, 255)), min_size=1, max_size=4), label="garble"):
            raw[pos] = byte
    bad = files / "fuzzed" / "bad.qgrid"
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(bytes(raw))
    out = ["--output", files / "out"]
    if command == "inverse":
        _run(*out, "qft", "inverse", "--input", bad)
    elif command == "forward":
        _run(*out, "qft", "forward", "--input", bad)
    elif command == "extrapolate":
        (files / "fuzzed" / "problem.json").write_text(json.dumps({"d": 1.0, "W": 1.0,
                                                                   "max_steps": 5}))
        _run(*out, "extrapolate", "--problem", files / "fuzzed" / "problem.json",
             "--observation", bad)
    else:
        _run("--config", files / "tiny.json", *out, "concentration", "--input", bad)
