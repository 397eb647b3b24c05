import gc
import struct
import sys
import warnings

import numpy as np
import pytest

from qpswf.errors import QgridFormatError
from qpswf.grid import GridAxis, QSignal
from qpswf.qft import dual_frequency_axes, forward_qft
from qpswf.qgrid_io import (load_qgrid, load_spectrum, open_qgrid, save_csv, save_qgrid,
                            save_spectrum, write_qgrid)
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


def test_blocks_write_and_read_the_one_block_bytes(tmp_path):
    # uneven blocks of x-rows, one of them a non-contiguous view, give the bytes of one block
    f = _signal()
    save_qgrid(tmp_path / "one.qgrid", f)
    cuts = [0, 5, 6, 20, 33]
    blocks = [f.values[a:b] for a, b in zip(cuts, cuts[1:])]
    blocks[1] = np.asfortranarray(blocks[1])
    write_qgrid(tmp_path / "blocks.qgrid", f.ax_x, f.ax_y, blocks)
    assert (tmp_path / "blocks.qgrid").read_bytes() == (tmp_path / "one.qgrid").read_bytes()
    g = load_qgrid(tmp_path / "blocks.qgrid")
    assert np.array_equal(g.values, f.values) and (g.ax_x, g.ax_y) == (f.ax_x, f.ax_y)
    with open_qgrid(tmp_path / "blocks.qgrid") as (ax_x, ax_y, read):
        assert (ax_x, ax_y) == (f.ax_x, f.ax_y)
        for a, b in zip(cuts, cuts[1:]):
            assert np.array_equal(read(b - a), f.values[a:b])
        with pytest.raises(QgridFormatError, match="truncated samples"):
            read(1)


@pytest.mark.parametrize("shapes", [[(3, 5, 4), (1, 7, 4)], [(5, 5, 3)],
                                    [(3, 5, 4), (1, 5, 4)], [(3, 5, 4), (3, 5, 4)]],
                         ids=["row_length", "components", "too_few_rows", "too_many_rows"])
def test_blocks_not_matching_the_header_rejected(tmp_path, shapes):
    # each would make a file that every reader rejects; the partial file is removed
    ax = GridAxis.symmetric(2.0, 5)
    path = tmp_path / "f.qgrid"
    with pytest.raises(QgridFormatError, match="rows"):
        write_qgrid(path, ax, ax, [np.zeros(shape) for shape in shapes])
    assert not path.exists()


def test_non_finite_sample_found_in_its_own_block(tmp_path):
    # the blocks before the one holding the NaN read as they are
    vals = _signal().values.copy()
    vals[-1, -1, -1] = np.nan
    path = tmp_path / "f.qgrid"
    save_qgrid(path, _signal().with_values(vals))
    with open_qgrid(path) as (_, _, read):
        assert np.array_equal(read(32), vals[:32])
        with pytest.raises(QgridFormatError, match="non-finite"):
            read(1)


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


@pytest.mark.parametrize("view", ["transposed", "reversed", "float32_reversed"])
def test_saved_bytes_do_not_depend_on_memory_layout(tmp_path, view):
    vals = _signal().values
    vals = {"transposed": vals.transpose(1, 0, 2), "reversed": vals[::-1, ::-1],
            "float32_reversed": vals.astype(np.float32)[::-1]}[view]
    ax_x, ax_y = GridAxis.symmetric(2.0, 33), GridAxis.symmetric(1.5, 33)
    save_qgrid(tmp_path / "view.qgrid", QSignal(ax_x, ax_y, vals))
    copy = np.ascontiguousarray(vals, dtype=np.float64)
    save_qgrid(tmp_path / "copy.qgrid", QSignal(ax_x, ax_y, copy))
    raw = (tmp_path / "view.qgrid").read_bytes()
    assert raw == (tmp_path / "copy.qgrid").read_bytes()
    header = struct.pack("<4sIII4d", b"QGRD", 1, 33, 33, ax_x.start, ax_x.step,
                         ax_y.start, ax_y.step)
    assert raw == header + copy.astype("<f8").tobytes()


def test_loaded_values_are_a_writable_native_array(tmp_path):
    save_qgrid(tmp_path / "f.qgrid", _signal())
    values = load_qgrid(tmp_path / "f.qgrid").values
    assert values.dtype == np.float64 and values.dtype.isnative
    assert values.flags.c_contiguous and values.flags.writeable


@pytest.mark.parametrize("counts", [(34, 33), (33, 32), (2**32 - 1, 2**32 - 1)],
                         ids=["larger", "smaller", "huge"])
def test_counts_not_matching_the_size_rejected(tmp_path, monkeypatch, counts):
    # the counts are u32 at bytes 8 and 12; a file left open on the way out
    # would warn when collected
    path = tmp_path / "f.qgrid"
    save_qgrid(path, _signal())
    raw = bytearray(path.read_bytes())
    raw[8:16] = np.array(counts, dtype="<u4").tobytes()
    path.write_bytes(bytes(raw))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(QgridFormatError, match="size"):
            load_qgrid(path)
        gc.collect()
    assert not unraisable


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
