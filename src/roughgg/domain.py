"""Declarative domain language, rasterization, and the preset gallery.

A domain document is JSON: a constructive-solid-geometry ``shape`` tree
(disk/ball, box, polygon, union, inter, diff), a list of ``cracks``
(segments in 2D, axis-aligned rectangles in 3D), or a named ``preset``.
Rasterization marks a cell when its center lies in the shape and snaps
each crack to a facet chain on the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CrackPlacementError,
    DomainSemanticError,
    DomainSyntaxError,
    GridTooCoarseError,
    InputError,
)
from .gridcore import FacetArrays, Grid, lift


# ---------------------------------------------------------------------------
# shape expression tree
# ---------------------------------------------------------------------------


class Shape:
    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


@dataclass(frozen=True)
class Disk(Shape):
    center: tuple[float, ...]
    r: float

    def contains(self, pts):
        d2 = np.zeros(pts.shape[:-1])
        for a, c in enumerate(self.center):
            d2 = d2 + (pts[..., a] - c) ** 2
        return d2 < self.r**2

    def bbox(self):
        c = np.asarray(self.center)
        return c - self.r, c + self.r


@dataclass(frozen=True)
class Box(Shape):
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def contains(self, pts):
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for a in range(len(self.lo)):
            ok &= (pts[..., a] > self.lo[a]) & (pts[..., a] < self.hi[a])
        return ok

    def bbox(self):
        return np.asarray(self.lo), np.asarray(self.hi)


@dataclass(frozen=True)
class Polygon(Shape):
    pts: tuple[tuple[float, float], ...]

    def contains(self, p):
        # even-odd ray casting, vectorized over sample points
        x, y = p[..., 0], p[..., 1]
        inside = np.zeros(x.shape, dtype=bool)
        v = self.pts
        for i in range(len(v)):
            x0, y0 = v[i - 1]
            x1, y1 = v[i]
            crosses = (y0 > y) != (y1 > y)
            with np.errstate(invalid="ignore", divide="ignore"):
                xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            inside ^= crosses & (x < xi)
        return inside

    def bbox(self):
        arr = np.asarray(self.pts)
        return arr.min(axis=0), arr.max(axis=0)


@dataclass(frozen=True)
class BoolOp(Shape):
    op: str
    args: tuple[Shape, ...]

    def contains(self, pts):
        masks = [s.contains(pts) for s in self.args]
        if self.op == "union":
            out = masks[0]
            for m in masks[1:]:
                out = out | m
            return out
        if self.op == "inter":
            out = masks[0]
            for m in masks[1:]:
                out = out & m
            return out
        # diff: first minus the rest
        out = masks[0]
        for m in masks[1:]:
            out = out & ~m
        return out

    def bbox(self):
        los, his = zip(*(s.bbox() for s in self.args))
        if self.op == "inter":
            return np.max(los, axis=0), np.min(his, axis=0)
        if self.op == "diff":
            return self.args[0].bbox()
        return np.min(los, axis=0), np.max(his, axis=0)


@dataclass(frozen=True)
class Segment:
    """A crack segment (2D) with positive length."""

    a: tuple[float, float]
    b: tuple[float, float]

    def length(self) -> float:
        return math.dist(self.a, self.b)


@dataclass(frozen=True)
class RectCrack:
    """Axis-aligned rectangle crack (3D): corners with one equal coordinate."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def flat_axis(self) -> int:
        for a in range(3):
            if self.lo[a] == self.hi[a]:
                return a
        raise DomainSemanticError("3D crack rectangle must be axis-degenerate")


@dataclass(frozen=True)
class DomainSpec:
    shape: Shape
    cracks: tuple = ()
    preset: str | None = None
    k: int | None = None  # generation parameter for generator presets

    def bbox(self):
        return self.shape.bbox()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# the keys each shape op's node takes besides "op"
_SHAPE_KEYS = {"disk": ("center", "r"), "ball": ("center", "r"), "box": ("min", "max"),
               "polygon": ("pts",), **dict.fromkeys(("union", "inter", "diff"), ("args",))}


def _numbers(value, path: str, shape: tuple = ()):
    """Read finite JSON numbers nested as ``shape`` (one entry per list
    level: its required length, or None for any); anything else is a
    DomainSemanticError naming the node path."""
    if not shape:
        try:  # a JSON integer too large for a float overflows here
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise DomainSemanticError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, list) or shape[0] not in (None, len(value)):
        size = "a list" if shape[0] is None else f"a list of {shape[0]}"
        raise DomainSemanticError(f"{path}: expected {size}, got {value!r}")
    return tuple(_numbers(v, f"{path}[{i}]", shape[1:]) for i, v in enumerate(value))


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise DomainSemanticError(f"{path}: expected a JSON array, got {value!r}")
    return value


def _known_keys(node: dict, keys: tuple, path: str) -> None:
    for key in node:
        if key not in keys:
            raise DomainSemanticError(f"{path}: unknown key {key!r}; it takes {', '.join(keys)}")


def _parse_shape(node, path: str) -> Shape:
    if not isinstance(node, dict) or "op" not in node:
        raise DomainSemanticError(f"{path}: shape node must be an object with 'op'")
    op = node["op"]
    if not isinstance(op, str) or op not in _SHAPE_KEYS:
        raise DomainSemanticError(f"{path}: unknown shape op {op!r}")
    _known_keys(node, ("op", *_SHAPE_KEYS[op]), path)
    if op in ("disk", "ball"):
        center = _numbers(node.get("center", [0.0, 0.0]), f"{path}.center", (None,))
        r = _numbers(node.get("r", 0.0), f"{path}.r")
        if r <= 0.0:
            raise DomainSemanticError(f"{path}: radius must be positive, got {r}")
        return Disk(center, r)
    if op == "box":
        lo = _numbers(node.get("min"), f"{path}.min", (None,))
        hi = _numbers(node.get("max"), f"{path}.max", (None,))
        if len(lo) != len(hi) or any(l >= h for l, h in zip(lo, hi)):
            raise DomainSemanticError(f"{path}: box needs min < max per axis")
        return Box(lo, hi)
    if op == "polygon":
        pts = _numbers(node.get("pts", []), f"{path}.pts", (None, 2))
        if len(pts) < 3:
            raise DomainSemanticError(f"{path}: polygon needs >= 3 vertices")
        return Polygon(pts)
    args = _array(node.get("args", []), f"{path}.args")
    if len(args) < 2:
        raise DomainSemanticError(f"{path}: {op} needs >= 2 operands")
    shapes = tuple(_parse_shape(s, f"{path}.args[{i}]") for i, s in enumerate(args))
    dims = [len(s.bbox()[0]) for s in shapes]  # a polygon's bbox has 2 coordinates
    for i, dim in enumerate(dims):
        if dim != dims[0]:
            raise DomainSemanticError(f"{path}.args[{i}]: {dim}D operand in a {dims[0]}D {op}")
    return BoolOp(op, shapes)


def _parse_crack(node, path: str):
    if not isinstance(node, dict):
        raise DomainSemanticError(f"{path}: crack must be an object")
    _known_keys(node, ("seg", "rect"), path)
    if "seg" in node and "rect" in node:
        raise DomainSemanticError(f"{path}: crack takes one of 'seg' and 'rect', not both")
    if "seg" in node:
        seg = Segment(*_numbers(node["seg"], f"{path}.seg", (2, 2)))
        if seg.length() <= 0.0:
            raise DomainSemanticError(f"{path}: crack segment has zero length")
        return seg
    if "rect" in node:
        rect = RectCrack(*_numbers(node["rect"], f"{path}.rect", (2, 3)))
        rect.flat_axis()
        return rect
    raise DomainSemanticError(f"{path}: crack needs 'seg' or 'rect'")


def parse_domain(text: str) -> DomainSpec:
    """Parse a UTF-8 domain document into a DomainSpec.

    Syntax errors report line/column; semantic errors, an unknown key among
    them, name the offending node path.  Parsing is total and deterministic.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise DomainSyntaxError("the document nests too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise DomainSemanticError("top level must be an object")
    if "preset" in doc and "shape" in doc:
        raise DomainSemanticError("'preset' and 'shape' are mutually exclusive")
    _known_keys(doc, ("preset", "k") if "preset" in doc else ("shape", "cracks"), "top level")
    if "preset" in doc:
        k = doc.get("k")
        if k is not None and _numbers(k, "k") != int(k):
            raise DomainSemanticError(f"k: generation must be an integer, got {k!r}")
        return preset_spec(doc["preset"], k=k)
    if "shape" not in doc:
        raise DomainSemanticError("document needs 'shape' or 'preset'")
    shape = _parse_shape(doc["shape"], "shape")
    cracks = tuple(_parse_crack(c, f"cracks[{i}]")
                   for i, c in enumerate(_array(doc.get("cracks", []), "cracks")))
    return DomainSpec(shape=shape, cracks=cracks)


# ---------------------------------------------------------------------------
# rough sets
# ---------------------------------------------------------------------------


@dataclass
class FacetTopology:
    """Facet roles induced by a rough set, per axis.

    ``interior``: facets between two body cells, off the cracks (one
    value); ``crack``: crack facets; ``boundary``: reduced facets, with
    the body on one side, the lower one where ``inside_lower``.
    ``minus`` / ``plus`` are the one-sided slots on the MINUS / PLUS side
    of each facet: both sides of a crack facet and the body side of a
    reduced facet.  Together they are the boundary minus the exterior,
    where a normal trace lives.
    """

    interior: list[np.ndarray]
    crack: list[np.ndarray]
    boundary: list[np.ndarray]
    inside_lower: list[np.ndarray]
    minus: list[np.ndarray]
    plus: list[np.ndarray]


class RoughSet:
    """Rasterized open set: cell indicator plus explicit crack facets.

    The indicator carries the Lebesgue body; crack facets are a
    Lebesgue-null part of the topological boundary lying strictly inside
    the body (both incident cells are indicator-true).  Neither is
    written to after construction, so ``topology`` is computed once and
    shared by every field and trace on the set.
    """

    def __init__(self, grid: Grid, cells: np.ndarray, cracks: FacetArrays | None = None,
                 crack_records: tuple = ()):
        self.grid = grid
        self.cells = np.asarray(cells, dtype=bool)
        if self.cells.shape != grid.extents:
            raise InputError("cell indicator shape must equal grid extents")
        self.cracks = cracks if cracks is not None else FacetArrays(grid)
        self.crack_records = tuple(crack_records)
        for a in range(self.grid.n):
            mask = self.cracks.masks[a]
            if not mask.any():
                continue
            lo_ok, hi_ok = lift(self.cells, a)  # both cells exist and are true
            bad = mask & ~(lo_ok & hi_ok)
            if bad.any():
                where = tuple(int(v) for v in np.argwhere(bad)[0])
                raise CrackPlacementError(
                    f"crack facet (axis {a}, {where}) is not interior to the body"
                )

    @cached_property
    def topology(self) -> FacetTopology:
        """The facet roles and one-sided slots of this set (read-only)."""
        top = FacetTopology([], [], [], [], [], [])
        for a in range(self.grid.n):
            lower, upper = lift(self.cells, a)
            crack = self.cracks.masks[a]  # shared: written only before the set exists
            boundary = lower != upper
            inside_lower = boundary & lower
            top.interior.append(lower & upper & ~crack)
            top.crack.append(crack)
            top.boundary.append(boundary)
            top.inside_lower.append(inside_lower)
            top.minus.append(crack | inside_lower)
            top.plus.append(crack | (boundary & ~inside_lower))
        return top

    @property
    def cell_count(self) -> int:
        return int(self.cells.sum())

    @property
    def volume(self) -> float:
        return self.cell_count * self.grid.cell_volume

    @property
    def reduced_measure(self) -> float:
        """(n-1)-measure of the reduced boundary: reduced facets times
        facet area."""
        count = sum(int(m.sum()) for m in self.topology.boundary)
        return count * self.grid.facet_area

    @property
    def star_measure(self) -> float:
        """H^{n-1}(boundary minus the measure-theoretic exterior), the
        measure of condition (*): the reduced boundary plus the cracks."""
        return self.reduced_measure + self.crack_length()

    def crack_length(self) -> float:
        """Total crack size with the polyline correction applied."""
        total_facets = self.cracks.count()
        if not self.crack_records:
            return total_facets * self.grid.facet_area
        rec_facets = sum(c for c, _ in self.crack_records)
        rec_length = sum(length for _, length in self.crack_records)
        if rec_facets == total_facets:
            return rec_length
        # overlapping records: fall back to facet counting
        return total_facets * self.grid.facet_area


def _snap_node(grid: Grid, p) -> tuple[int, ...]:
    """Nearest grid node (vertex) to a point; each coordinate moves < dx/2."""
    rel = (np.asarray(p, dtype=float) - np.asarray(grid.origin)) / grid.spacing
    return tuple(int(round(v)) for v in rel)


def _walk_segment(a_node, b_node) -> list[tuple[int, tuple[int, ...]]]:
    """Monotone staircase walk on the node lattice from a to b (2D).

    Each unit step along axis ``a`` emits the facet normal to the *other*
    axis that the step traverses.  Steps are ordered by the parameter of
    the true segment at which each gridline is crossed; ties go to the
    x-step so the walk is deterministic.
    """
    ax, ay = a_node
    bx, by = b_node
    nx, ny = abs(bx - ax), abs(by - ay)
    sx = 1 if bx >= ax else -1
    sy = 1 if by >= ay else -1
    facets = []
    x, y = ax, ay
    ix = iy = 0
    while ix < nx or iy < ny:
        step_x = iy >= ny or (ix < nx and (ix + 0.5) * ny <= (iy + 0.5) * nx)
        if step_x:
            # node edge (x, y) -> (x + sx, y): an axis-1 facet
            base = (x if sx > 0 else x - 1, y)
            facets.append((1, base))
            x += sx
            ix += 1
        else:
            base = (x, y if sy > 0 else y - 1)
            facets.append((0, base))
            y += sy
            iy += 1
    return facets


def _snap_crack(grid: Grid, crack, cracks: FacetArrays) -> tuple[int, float]:
    """Rasterize one crack onto the facet masks; returns (count, length)."""
    if isinstance(crack, Segment):
        if grid.n != 2:
            raise InputError("segment cracks are 2D only")
        a = _snap_node(grid, crack.a)
        b = _snap_node(grid, crack.b)
        if a == b:
            raise GridTooCoarseError("crack snaps to zero facets")
        # the walk is monotone, so it stays on the grid's nodes iff both
        # ends do; checked first, as a far end would make it unbounded
        for end in (a, b):
            if any(not 0 <= v <= m for v, m in zip(end, grid.extents)):
                raise CrackPlacementError(f"crack end node {end} leaves the grid")
        steps = _walk_segment(a, b)
        for axis, base in steps:
            cracks.masks[axis][base] = True
        length = math.dist(a, b) * grid.spacing
        return len(steps), length
    if isinstance(crack, RectCrack):
        if grid.n != 3:
            raise InputError("rectangle cracks are 3D only")
        axis = crack.flat_axis()
        plane = round((crack.lo[axis] - grid.origin[axis]) / grid.spacing)
        lo_idx, hi_idx = [], []
        for a in range(3):
            if a == axis:
                lo_idx.append(plane)
                hi_idx.append(plane + 1)
            else:
                l = round((crack.lo[a] - grid.origin[a]) / grid.spacing)
                h = round((crack.hi[a] - grid.origin[a]) / grid.spacing)
                if h <= l:
                    raise GridTooCoarseError("crack snaps to zero facets")
                lo_idx.append(l)
                hi_idx.append(h)
        sl = tuple(slice(l, h) for l, h in zip(lo_idx, hi_idx))
        before = int(cracks.masks[axis].sum())
        cracks.masks[axis][sl] = True
        count = int(cracks.masks[axis].sum()) - before
        return count, count * grid.facet_area
    raise InputError(f"unknown crack primitive {type(crack).__name__}")


def rasterize(spec: DomainSpec, grid: Grid) -> RoughSet:
    """Rasterize a DomainSpec onto a grid.

    A cell is true iff its center lies in the shape; cracks snap to the
    nearest facet chain (each endpoint moves less than half a cell per
    axis).  The Cantor-cross preset needs spacing <= 3^-k to resolve its
    generation k; the check runs before its 4^(k+1) cracks are built.
    Identical inputs give bit-identical results.
    """
    cracks = spec.cracks
    if spec.preset == "cantor-cross":
        # clamped so a huge k cannot overflow the power; 3^-1000 is 0.0
        if grid.spacing > 3.0 ** -min(spec.k, 1000) + 1e-12:
            raise GridTooCoarseError(f"spacing {grid.spacing} too coarse for "
                                     f"generation {spec.k} (need <= 3^-{spec.k})")
        cracks = _cantor_cracks(spec.k)
    lo, hi = spec.bbox()
    glo, ghi = grid.bounds()
    if np.any(lo - grid.spacing < glo) or np.any(hi + grid.spacing > ghi):
        raise InputError("grid must cover the shape bounding box with one cell of margin")
    centers = np.stack(np.broadcast_arrays(*grid.cell_center_mesh()), axis=-1)
    cells = spec.shape.contains(centers)
    masks = FacetArrays(grid)
    records = tuple(_snap_crack(grid, crack, masks) for crack in cracks)
    return RoughSet(grid, cells, masks, records)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("square", "disk", "slit-square", "slit-disk", "l-shape", "cantor-cross")


def _cantor_intervals(k: int) -> list[tuple[float, float]]:
    intervals = [(0.0, 1.0)]
    for _ in range(k):
        nxt = []
        for lo, hi in intervals:
            third = (hi - lo) / 3.0
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        intervals = nxt
    return intervals


def _cantor_cracks(k: int) -> list[Segment]:
    """The 4^(k+1) edges of the generation-k Cantor squares."""
    cracks = []
    iv = _cantor_intervals(k)
    for x0, x1 in iv:
        for y0, y1 in iv:
            cracks.append(Segment((x0, y0), (x1, y0)))
            cracks.append(Segment((x0, y1), (x1, y1)))
            cracks.append(Segment((x0, y0), (x0, y1)))
            cracks.append(Segment((x1, y0), (x1, y1)))
    return cracks


def cantor_cross_spec(k: int) -> DomainSpec:
    """Disk of radius 2 with cracks on the boundaries of the generation-k
    Cantor-square grid inside the unit square.  Only ``k`` is recorded:
    ``rasterize`` checks the spacing, then builds the cracks."""
    if k < 0:
        raise DomainSemanticError("generation must be >= 0")
    return DomainSpec(shape=Disk((0.0, 0.0), 2.0), preset="cantor-cross", k=k)


def preset_spec(name: str, k: int | None = None) -> DomainSpec:
    """The named preset; a generation ``k`` is refused on any preset but
    cantor-cross, which alone has one."""
    if k is not None and name != "cantor-cross" and name in PRESET_NAMES:
        raise DomainSemanticError(f"k: preset {name!r} has no generation, got k={k!r}")
    if name == "square":
        return DomainSpec(Box((-1.0, -1.0), (1.0, 1.0)), preset=name)
    if name == "disk":
        return DomainSpec(Disk((0.0, 0.0), 1.0), preset=name)
    if name == "slit-square":
        return DomainSpec(
            Box((-1.0, -1.0), (1.0, 1.0)),
            cracks=(Segment((-1.0, 0.0), (1.0, 0.0)),),
            preset=name,
        )
    if name == "slit-disk":
        return DomainSpec(
            Disk((0.0, 0.0), 1.0),
            cracks=(Segment((0.0, 0.0), (1.0, 0.0)),),
            preset=name,
        )
    if name == "l-shape":
        return DomainSpec(
            BoolOp("diff", (Box((-1.0, -1.0), (1.0, 1.0)), Box((0.0, 0.0), (1.0, 1.0)))),
            preset=name,
        )
    if name == "cantor-cross":
        return cantor_cross_spec(2 if k is None else int(k))
    raise DomainSemanticError(f"unknown preset {name!r}")


def make_grid(spec: DomainSpec, spacing: float, margin_cells: int = 2) -> Grid:
    """Grid covering the document's bounding box with a cell margin, with
    the origin placed so the box's low corner lands on a grid node."""
    lo, hi = spec.bbox()
    origin = tuple(float(l) - margin_cells * spacing for l in lo)
    extents = tuple(
        int(math.ceil((h - l) / spacing - 1e-12)) + 2 * margin_cells
        for l, h in zip(lo, hi)
    )
    return Grid(n=len(origin), spacing=spacing, origin=origin, extents=extents)


def preset_set(name: str, spacing: float, k: int | None = None,
               margin_cells: int = 2) -> RoughSet:
    """Convenience: rasterize a named preset at the given spacing."""
    spec = preset_spec(name, k=k)
    return rasterize(spec, make_grid(spec, spacing, margin_cells=margin_cells))
