"""On-disk formats: PGM rasters, the flux-field binary, trace CSV.

``dmfield`` is imported only inside the trace-CSV reader, so writing a
raster or a trace CSV does not load it.
"""

from __future__ import annotations

import io
import math
import struct
from typing import TYPE_CHECKING

import numpy as np

from ._util import atomic_write_bytes, atomic_write_text, format_float, read_utf8
from .domain import RoughSet
from .errors import InputError
from .gridcore import MINUS, PLUS, Grid

if TYPE_CHECKING:
    from .dmfield import FluxField, TraceData

MAGIC = b"DMF1"


def pgm_bytes(levels: np.ndarray) -> bytes:
    """P5 image from a 2D uint8 array indexed [ix, iy]; the first axis
    maps to image columns and the second to rows, top row = largest iy."""
    if levels.ndim != 2:
        raise InputError("PGM export needs a 2D array")
    img = levels.T[::-1, :]
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(img, dtype=np.uint8).tobytes()


def write_pgm(path: str, levels: np.ndarray) -> None:
    atomic_write_bytes(path, pgm_bytes(levels))


def trace_strip_levels(side_weights: dict, grid: Grid) -> np.ndarray:
    """Trace densities unrolled along lexicographically ordered boundary
    facet sides, mapped to gray levels (128 = zero), 16 pixels high."""
    keys = sorted(side_weights)
    if not keys:
        return np.full((1, 16), 128, dtype=np.uint8)
    vals = np.array([side_weights[k] for k in keys]) / grid.facet_area
    vmax = np.abs(vals).max() or 1.0
    gray = np.clip(128 + 127 * vals / vmax, 0, 255).astype(np.uint8)
    return np.repeat(gray[:, None], 16, axis=1)


def flux_field_bytes(F: FluxField) -> bytes:
    """Binary layout: magic, u8 n, u64 extents, f64 spacing, f64 origin,
    f64 sup bound; per axis the canonical facet array (lexicographic
    C-order, zero where two-sided); then a sparse section of two-sided
    records (u8 axis, u64 index, u8 side, f64 value)."""
    grid = F.grid
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<B", grid.n))
    buf.write(struct.pack(f"<{grid.n}Q", *grid.extents))
    buf.write(struct.pack("<d", grid.spacing))
    buf.write(struct.pack(f"<{grid.n}d", *grid.origin))
    buf.write(struct.pack("<d", F.sup_bound))
    twosided = []
    for a in range(grid.n):
        two = F.topology.crack[a] | F.topology.boundary[a]
        canonical = np.where(two, 0.0, F.vminus[a])
        buf.write(np.ascontiguousarray(canonical, dtype="<f8").tobytes())
        for i in np.argwhere(two):
            idx = tuple(int(v) for v in i)
            twosided.append((a, idx, MINUS, float(F.vminus[a][idx])))
            twosided.append((a, idx, PLUS, float(F.vplus[a][idx])))
    buf.write(struct.pack("<Q", len(twosided)))
    for a, idx, side, value in twosided:
        buf.write(struct.pack("<B", a))
        buf.write(struct.pack(f"<{grid.n}Q", *idx))
        buf.write(struct.pack("<Bd", side, value))
    return buf.getvalue()


def write_flux_field(path: str, F: FluxField) -> None:
    atomic_write_bytes(path, flux_field_bytes(F))


def trace_csv_text(side_weights: dict, grid: Grid) -> str:
    lines = ["axis," + ",".join(f"i{d}" for d in range(grid.n)) + ",side,g"]
    for key in sorted(side_weights):
        a, idx, side = key
        g = side_weights[key] / grid.facet_area
        lines.append(
            f"{a}," + ",".join(str(v) for v in idx) + f",{side},{format_float(g)}"
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str, side_weights: dict, grid: Grid) -> None:
    atomic_write_text(path, trace_csv_text(side_weights, grid))


def read_trace_csv(path: str, set_: RoughSet) -> TraceData:
    """Read (axis, facet index, side, g) rows into a ``TraceData`` on ``set_``.

    Every row must name an existing facet of the grid: the axis lies in
    [0, n) and each index in [0, facet_shape(axis)), so no index wraps.
    No facet side may be named twice, each side must be a trace side of
    ``set_`` (both sides of a crack facet, the body side of a reduced
    facet), and every density is finite and at most
    ``dmfield.MAX_DENSITY`` in magnitude.  Each refusal names its line.
    """
    from .dmfield import MAX_DENSITY, TraceData

    grid = set_.grid
    td = TraceData(set_)
    line_of: dict[tuple, int] = {}  # (axis, side, idx) -> the line that gave it
    # line breaks as a text-mode file reads them
    with io.StringIO(read_utf8(path, "trace CSV"), newline=None) as handle:
        header = handle.readline()
        if not header.startswith("axis,"):
            raise InputError("trace CSV must start with the axis header")
        for line_no, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != grid.n + 3:
                raise InputError(f"trace CSV line {line_no}: wrong column count")
            try:
                axis = int(parts[0])
                idx = tuple(int(v) for v in parts[1 : 1 + grid.n])
                side = int(parts[1 + grid.n])
                g = float(parts[2 + grid.n])
            except ValueError as exc:
                raise InputError(f"trace CSV line {line_no}: {exc}") from exc
            if not math.isfinite(g):
                raise InputError(
                    f"trace CSV line {line_no}: non-finite prescribed trace density {g}")
            if abs(g) > MAX_DENSITY:
                raise InputError(f"trace CSV line {line_no}: prescribed trace density "
                                 f"{g:g} exceeds {MAX_DENSITY:g} in magnitude")
            if side not in (MINUS, PLUS):
                raise InputError(f"trace CSV line {line_no}: side must be 0 or 1")
            if not 0 <= axis < grid.n:
                raise InputError(
                    f"trace CSV line {line_no}: axis {axis} outside [0, {grid.n})")
            shape = grid.facet_shape(axis)
            if not all(0 <= i < k for i, k in zip(idx, shape)):
                raise InputError(
                    f"trace CSV line {line_no}: facet index {idx} outside "
                    f"the axis-{axis} facet grid {shape}")
            seen = line_of.get((axis, side, idx))
            if seen:
                raise InputError(f"trace CSV line {line_no}: facet side {(axis, idx, side)} "
                                 f"already given on line {seen}")
            try:
                td.set_side(axis, idx, side, g)
            except InputError as exc:
                raise InputError(f"trace CSV line {line_no}: {exc}") from exc
            line_of[axis, side, idx] = line_no
    return td
