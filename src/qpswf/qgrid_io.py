"""QGRID binary container and CSV export for sampled quaternion fields.

Layout (little-endian): magic "QGRD", u32 version = 1, u32 nx, u32 ny,
f64 x0, dx, y0, dy, then nx*ny*4 f64 samples, row-major with the x index
outermost, component order (w, i, j, k).  A spectrum is one such file
holding the combined F(f), with the axes interpreted as (u, v).
Samples are written (write_qgrid) and read (open_qgrid) in blocks of
x-rows; save_qgrid and load_qgrid, and save_spectrum and load_spectrum, are
the one-block case.
"""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import QgridFormatError
from .grid import GridAxis, QSignal

if TYPE_CHECKING:
    from .qft import SpectrumQ

MAGIC = b"QGRD"
VERSION = 1
_HEADER = struct.Struct("<4sIII4d")  # magic, version, nx, ny, x0, dx, y0, dy


def write_qgrid(path, ax_x: GridAxis, ax_y: GridAxis, blocks) -> None:
    """Write a QGRID file from its axes and its samples as (rows, ny, 4) blocks, in order.

    A block of another shape, or blocks whose rows do not add up to nx, raise
    QgridFormatError before that block is written; on any failure while the
    samples are written the partial file is removed.
    """
    with open(path, "wb") as fh:
        try:
            fh.write(_HEADER.pack(MAGIC, VERSION, ax_x.count, ax_y.count,
                                  ax_x.start, ax_x.step, ax_y.start, ax_y.step))
            rows = 0
            for block in blocks:
                block = np.ascontiguousarray(block, dtype="<f8")
                if block.shape[1:] != (ax_y.count, 4) or rows + len(block) > ax_x.count:
                    raise QgridFormatError(f"{path}: a block of shape {block.shape} after "
                                           f"{rows} rows does not fit {ax_x.count} rows of "
                                           f"shape ({ax_y.count}, 4)")
                fh.write(memoryview(block).cast("B"))
                rows += len(block)
            if rows != ax_x.count:
                raise QgridFormatError(f"{path}: blocks hold {rows} rows, not {ax_x.count}")
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def save_qgrid(path, f: QSignal) -> None:
    write_qgrid(path, f.ax_x, f.ax_y, [f.values])


@contextlib.contextmanager
def open_qgrid(path):
    """(ax_x, ax_y, read) of a QGRID file whose header, size and axes pass their checks;
    read(rows) returns its next rows x-rows, shape (rows, ny, 4), checked finite."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise QgridFormatError(f"{path}: truncated header")
        magic, version, nx, ny, x0, dx, y0, dy = _HEADER.unpack(header)
        if magic != MAGIC:
            raise QgridFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise QgridFormatError(f"{path}: unsupported version {version}")
        expected = _HEADER.size + nx * ny * 4 * 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise QgridFormatError(f"{path}: size {size} != expected {expected}")
        if not np.isfinite([x0, dx, y0, dy]).all() or dx <= 0 or dy <= 0 or nx < 2 or ny < 2:
            raise QgridFormatError(f"{path}: invalid axis metadata")
        ax_x, ax_y = GridAxis(x0, dx, int(nx)), GridAxis(y0, dy, int(ny))
        for name, ax in (("x", ax_x), ("y", ax_y)):
            if not np.all(np.diff(ax.samples()) > 0):
                raise QgridFormatError(f"{path}: {name} axis nodes are not distinct in double")

        def read(rows: int) -> np.ndarray:
            block = np.empty((rows, ny, 4), dtype="<f8")
            if fh.readinto(memoryview(block).cast("B")) != block.nbytes:
                raise QgridFormatError(f"{path}: truncated samples")
            block = block.astype(np.float64, copy=False)  # a copy only on big-endian hosts
            if not np.isfinite(block).all():
                raise QgridFormatError(f"{path}: non-finite samples (NaN or Inf)")
            return block

        yield ax_x, ax_y, read


def load_qgrid(path) -> QSignal:
    with open_qgrid(path) as (ax_x, ax_y, read):
        return QSignal(ax_x, ax_y, read(ax_x.count))


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


def save_spectrum(path, spec: SpectrumQ) -> Path:
    """Write the combined spectrum F(f) on its (u, v) axes; returns its path."""
    write_qgrid(path, spec.ax_u, spec.ax_v, [spec.combined])
    return Path(path)


def load_spectrum(path) -> SpectrumQ:
    """Read the combined spectrum F(f); SpectrumQ.component derives each F(f_c)."""
    from .qft import SpectrumQ
    with open_qgrid(path) as (ax_u, ax_v, read):
        return SpectrumQ(ax_u, ax_v, read(ax_u.count))
