import numpy as np
import pytest

from qpswf.errors import QgridFormatError
from qpswf.grid import GridAxis, QSignal
from qpswf.qft import dual_frequency_axes, forward_qft
from qpswf.qgrid_io import (load_qgrid, load_spectrum, save_csv, save_qgrid,
                            save_spectrum)
from qpswf.rng import CounterRng


def _signal():
    ax = GridAxis.symmetric(2.0, 33)
    rng = CounterRng(61)
    return QSignal(ax, ax, rng.normal_field((33, 33, 4)))


def test_roundtrip_bit_exact(tmp_path):
    f = _signal()
    path = tmp_path / "f.qgrid"
    save_qgrid(path, f)
    g = load_qgrid(path)
    assert np.array_equal(g.values, f.values)
    assert g.ax_x == f.ax_x and g.ax_y == f.ax_y


def test_format_errors(tmp_path):
    f = _signal()
    path = tmp_path / "f.qgrid"
    save_qgrid(path, f)
    raw = path.read_bytes()

    bad = tmp_path / "bad.qgrid"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(QgridFormatError):
        load_qgrid(bad)
    bad.write_bytes(raw[:100])
    with pytest.raises(QgridFormatError):
        load_qgrid(bad)
    bad.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(QgridFormatError):
        load_qgrid(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected(tmp_path, value):
    f = _signal()
    vals = f.values.copy()
    vals[5, 7, 2] = value
    path = tmp_path / "f.qgrid"
    save_qgrid(path, f.with_values(vals))
    with pytest.raises(QgridFormatError, match="non-finite"):
        load_qgrid(path)


@pytest.mark.parametrize("field", [0, 1, 2, 3], ids=["x0", "dx", "y0", "dy"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_axis_rejected(tmp_path, field, value):
    # the header's f64 fields x0, dx, y0, dy start at byte 16
    path = tmp_path / "f.qgrid"
    save_qgrid(path, _signal())
    raw = bytearray(path.read_bytes())
    raw[16 + 8 * field: 24 + 8 * field] = np.float64(value).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(QgridFormatError, match="axis metadata"):
        load_qgrid(path)


@pytest.mark.parametrize("field", [0, 2], ids=["x0", "y0"])
def test_axis_nodes_not_distinct_rejected(tmp_path, field):
    # with x0 = 1e300 and dx = 0.0625 every node rounds to x0
    path = tmp_path / "f.qgrid"
    save_qgrid(path, _signal())
    raw = bytearray(path.read_bytes())
    raw[16 + 8 * field: 24 + 8 * field] = np.float64(1e300).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(QgridFormatError, match="not distinct"):
        load_qgrid(path)


def test_csv_export(tmp_path):
    f = _signal()
    path = tmp_path / "f.csv"
    save_csv(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,w,i,j,k"
    assert len(lines) == 1 + 33 * 33
    first = lines[1].split(",")
    assert float(first[0]) == f.ax_x.start
    assert float(first[2]) == f.values[0, 0, 0]


def test_spectrum_roundtrip(tmp_path):
    f = _signal()
    ax_u, ax_v = dual_frequency_axes(f)
    spec = forward_qft(f, ax_u, ax_v)
    assert save_spectrum(tmp_path / "s.qgrid", spec) == tmp_path / "s.qgrid"
    assert [p.name for p in tmp_path.iterdir()] == ["s.qgrid"]
    back = load_spectrum(tmp_path / "s.qgrid")
    assert np.array_equal(back.combined, spec.combined)
    for c in range(4):
        assert np.array_equal(back.component(c), spec.component(c))
