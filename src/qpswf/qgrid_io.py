"""QGRID binary container and CSV export for sampled quaternion fields.

Layout (little-endian): magic "QGRD", u32 version = 1, u32 nx, u32 ny,
f64 x0, dx, y0, dy, then nx*ny*4 f64 samples, row-major with the x index
outermost, component order (w, i, j, k).  Spectra reuse the container with
the axes interpreted as (u, v); the component spectra derived from the
combined one get suffixes .c0 - .c3.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import QgridFormatError
from .grid import GridAxis, QSignal
from .qft import SpectrumQ

MAGIC = b"QGRD"
VERSION = 1
_HEADER = struct.Struct("<4sIII4d")  # magic, version, nx, ny, x0, dx, y0, dy


def save_qgrid(path, f: QSignal) -> None:
    path = Path(path)
    header = _HEADER.pack(MAGIC, VERSION, f.ax_x.count, f.ax_y.count,
                          f.ax_x.start, f.ax_x.step, f.ax_y.start, f.ax_y.step)
    payload = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    path.write_bytes(header + payload)


def load_qgrid(path) -> QSignal:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise QgridFormatError(f"{path}: truncated header")
    magic, version, nx, ny, x0, dx, y0, dy = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise QgridFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise QgridFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + nx * ny * 4 * 8
    if len(raw) != expected:
        raise QgridFormatError(f"{path}: size {len(raw)} != expected {expected}")
    if not np.isfinite([x0, dx, y0, dy]).all() or dx <= 0 or dy <= 0 or nx < 2 or ny < 2:
        raise QgridFormatError(f"{path}: invalid axis metadata")
    ax_x, ax_y = GridAxis(x0, dx, int(nx)), GridAxis(y0, dy, int(ny))
    for name, ax in (("x", ax_x), ("y", ax_y)):
        if not np.all(np.diff(ax.samples()) > 0):
            raise QgridFormatError(f"{path}: {name} axis nodes are not distinct in double")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size) \
        .reshape(nx, ny, 4).astype(np.float64)
    if not np.isfinite(values).all():
        raise QgridFormatError(f"{path}: non-finite samples (NaN or Inf)")
    return QSignal(ax_x, ax_y, values)


def save_csv(path, f: QSignal) -> None:
    x = f.ax_x.samples()
    y = f.ax_y.samples()
    with open(path, "w") as fh:
        fh.write("x,y,w,i,j,k\n")
        for p in range(f.ax_x.count):
            for q in range(f.ax_y.count):
                v = f.values[p, q]
                row = (x[p], y[q], v[0], v[1], v[2], v[3])
                fh.write(",".join(repr(float(c)) for c in row) + "\n")


def save_spectrum(path, spec: SpectrumQ) -> list:
    """Write combined plus the four component spectra, one at a time; returns the paths."""
    path = Path(path)
    save_qgrid(path, QSignal(spec.ax_u, spec.ax_v, spec.combined))
    written = [path]
    for c in range(4):
        written.append(path.with_name(path.name + f".c{c}"))
        save_qgrid(written[-1], QSignal(spec.ax_u, spec.ax_v, spec.component(c)))
    return written


def load_spectrum(path) -> SpectrumQ:
    """Read the combined spectrum; the component files are derived from it and not read."""
    combined = load_qgrid(path)
    return SpectrumQ(combined.ax_x, combined.ax_y, combined.values)
