"""Uniform cell grids and facet indexing.

Conventions used throughout the package:

- Cells are indexed by integer tuples ``i`` with ``0 <= i[a] < extents[a]``;
  the cell center is ``origin + (i + 0.5) * spacing``.
- An axis-``a`` facet is indexed by a tuple ``f`` with ``f[a]`` in
  ``0..extents[a]`` (one more slot than cells along ``a``).  The facet lies
  in the hyperplane ``x_a = origin[a] + f[a] * spacing`` between the lower
  cell ``f - e_a`` and the upper cell ``f`` (either may fall off the grid).
- A facet has two sides: MINUS (seen from the lower cell) and PLUS (seen
  from the upper cell).  ``orient(MINUS) = +1`` because the facet is the
  lower cell's outgoing face in the +a direction; ``orient(PLUS) = -1``.
  The classical outward flux seen from side ``s`` is therefore
  ``orient(s) * value(s)`` where ``value`` is the stored +a component.
- A facet centre has one formula, ``Grid.facet_centers``: ``origin[b] +
  (f[b] + 0.5) * spacing`` across the facet, ``origin[a] + f[a] * spacing``
  along it; ``facet_center_mesh`` and every facet centre handed out read it.
- The facets or cells within ``r`` of a facet centre are one stencil
  (``lattice``), a closed ball: one at distance exactly ``r`` counts.
- ``box_any`` is the one box filter.  Slots off the array hold False in the
  mask being dilated (``box_any(mask, r)``) or eroded
  (``~box_any(~mask, r, outside=True)``), so an erosion clears the outer layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

MINUS = 0
PLUS = 1

_SIDE_ORIENT = (1.0, -1.0)


def side_orient(side: int) -> float:
    """+1 for the MINUS (lower-cell) side, -1 for the PLUS side."""
    return _SIDE_ORIENT[side]


def unit_ball_volume(n: int) -> float:
    """Volume of the n-dimensional unit ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def lift(cells: np.ndarray, axis: int, fill=0) -> tuple[np.ndarray, np.ndarray]:
    """Lower-cell and upper-cell value of every axis-``axis`` facet slot.

    Slot ``f`` gets cell ``f - e_axis`` in the first array and cell ``f``
    in the second; a slot whose cell falls off the grid holds ``fill``.
    """
    shape = list(cells.shape)
    shape[axis] += 1
    lower = np.full(shape, fill, dtype=cells.dtype)
    upper = np.full(shape, fill, dtype=cells.dtype)
    faces(lower, axis)[1][...] = cells
    faces(upper, axis)[0][...] = cells
    return lower, upper


def faces(facets: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``lift``: views giving each cell its lower and its upper
    axis-``axis`` face of a facet array."""
    lower = [slice(None)] * facets.ndim
    upper = [slice(None)] * facets.ndim
    lower[axis] = slice(0, -1)
    upper[axis] = slice(1, None)
    return facets[tuple(lower)], facets[tuple(upper)]


def box_any(mask: np.ndarray, r: int, outside: bool = False) -> np.ndarray:
    """True where the (2r+1)^n box around a slot holds a true slot; slots
    off the array count as ``outside``."""
    out = np.pad(np.asarray(mask, dtype=bool), r, constant_values=outside)
    for a in range(out.ndim):
        view = np.moveaxis(out, a, 0)
        m = view.shape[0] - 2 * r
        acc = view[:m].copy()
        for k in range(1, 2 * r + 1):
            acc |= view[k:k + m]
        out = np.moveaxis(acc, 0, a)
    return out


def touching(masks) -> np.ndarray:
    """Cells with at least one face in the facet set given by per-axis
    ``masks``."""
    out = np.zeros(faces(masks[0], 0)[0].shape, dtype=bool)
    for a, mask in enumerate(masks):
        lower, upper = faces(mask, a)
        out |= lower | upper
    return out


def nonzero(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """``np.nonzero(mask)`` by flat positions: several times faster in 2-D."""
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def touches_edge(cells: np.ndarray) -> bool:
    """True if a true cell lies in the grid's outer layer of cells, so the
    grid does not strictly contain the set."""
    return any(np.take(cells, [0, -1], axis=a).any() for a in range(cells.ndim))


# solve-div peaks at up to ~345 B per grid cell, so a grid at the cap fits in about 3 GB
MAX_CELLS = 2**23


def lattice_reach(reach: float, n: int, what: str) -> int:
    """``reach``, a whole number of cells, as an int, once the (2 reach +
    1)^n lattice it spans is known to stay within ``MAX_CELLS`` points;
    otherwise ``InputError`` naming ``what``, before any array is built."""
    if not 2.0 * reach + 1.0 <= MAX_CELLS ** (1.0 / n):
        raise InputError(f"{what} is too large for the grid: it spans a lattice of "
                         f"{2.0 * reach + 1.0:.4g}^{n} points, over the cap of {MAX_CELLS}")
    return int(reach)


def _stencil(n: int, dx: float, radius: float, what: str, shifts=None) -> list:
    """Index offsets ``o``, per ball facet axis ``a`` and target lattice
    ``b``, of the targets whose centres lie within ``radius`` of an
    axis-``a`` facet centre: ``|(o + e_a / 2 - shifts[b]) dx|^2 <=
    radius^2``.  The targets are the facets of each axis (``shifts[b] =
    e_b / 2``) unless ``shifts`` is given; the cells are shift 0.  The
    refusal of a lattice past ``MAX_CELLS`` names "{what} {radius}"."""
    r = lattice_reach(np.ceil(radius / dx) + 1, n, f"{what} {radius}")
    box = np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * n, indexing="ij"), -1)
    box = box.reshape(-1, n)
    half = 0.5 * np.eye(n)
    return [[box[(((box + half[a] - s) * dx) ** 2).sum(axis=1) <= radius**2]
             for s in (half if shifts is None else shifts)] for a in range(n)]


def lattice(grid: Grid, radius: float, what: str, shifts=None):
    """Every target lattice's slots (see ``_stencil``) in one flat array,
    each padded past the stencil in a common box, so an index offset is
    one flat offset.  Returns ``slot(axes, idx)``, the flat offsets per
    ball axis of the targets within ``radius``, the array's shape
    (targets, *box) and the padding."""
    rows = _stencil(grid.n, grid.spacing, radius, what, shifts)
    pad = int(math.ceil(radius / grid.spacing)) + 1
    shape = (len(rows[0]),) + tuple(m + 1 + 2 * pad for m in grid.extents)
    size = math.prod(shape[1:])
    strides = np.array([math.prod(shape[j + 2:]) for j in range(grid.n)])
    offsets = [np.concatenate([(b - a) * size + o @ strides for b, o in enumerate(row)])
               for a, row in enumerate(rows)]
    return (lambda axes, idx: axes * size + (idx + pad) @ strides), offsets, shape, pad


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``extents`` cells with edge length ``spacing``.

    ``origin`` is the low corner of cell (0, ..., 0).
    """

    n: int
    spacing: float
    origin: tuple[float, ...]
    extents: tuple[int, ...]

    def __post_init__(self):
        if self.n not in (2, 3):
            raise InputError(f"dimension must be 2 or 3, got {self.n}")
        if not self.spacing > 0.0:
            raise InputError(f"spacing must be positive, got {self.spacing}")
        if len(self.origin) != self.n or len(self.extents) != self.n:
            raise InputError("origin/extents length must match dimension")
        if any(m < 1 for m in self.extents):
            raise InputError("extents must be >= 1 per axis")
        if math.prod(self.extents) > MAX_CELLS:
            raise InputError(f"grid of {math.prod(self.extents)} cells exceeds "
                             f"the cap of {MAX_CELLS}")
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "extents", tuple(int(m) for m in self.extents))

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.n

    @property
    def facet_area(self) -> float:
        return self.spacing ** (self.n - 1)

    def facet_shape(self, axis: int) -> tuple[int, ...]:
        shape = list(self.extents)
        shape[axis] += 1
        return tuple(shape)

    def axis_coords(self, axis: int) -> np.ndarray:
        """1D cell-center coordinates along ``axis``."""
        return self.origin[axis] + (np.arange(self.extents[axis]) + 0.5) * self.spacing

    def cell_center_mesh(self) -> list[np.ndarray]:
        """Broadcastable per-axis coordinate arrays at cell centers."""
        coords = []
        for a in range(self.n):
            shape = [1] * self.n
            shape[a] = self.extents[a]
            coords.append(self.axis_coords(a).reshape(shape))
        return coords

    def facet_center_mesh(self, axis: int) -> list[np.ndarray]:
        """Broadcastable coordinate arrays at axis-``axis`` facet centers."""
        return self.facet_centers(axis, np.ogrid[tuple(slice(m) for m in self.facet_shape(axis))])

    def facet_centers(self, axis: int, idx) -> list[np.ndarray]:
        """Per-axis coordinates of the axis-``axis`` facets at ``idx`` (index
        arrays, broadcastable or as from ``nonzero``, or one index tuple):
        the one facet-centre formula."""
        return [o + (i + 0.5 * (b != axis)) * self.spacing
                for b, (o, i) in enumerate(zip(self.origin, idx))]

    def cell_center(self, idx) -> np.ndarray:
        return np.asarray(self.origin) + (np.asarray(idx) + 0.5) * self.spacing

    def facet_center(self, axis: int, fidx) -> np.ndarray:
        return np.array(self.facet_centers(axis, tuple(fidx)))

    def ball(self, center, r2: float) -> tuple[tuple[slice, ...], np.ndarray]:
        """Cell window around the ball ``|x - center|^2 <= r2`` and the mask
        of the window cells whose centers lie in that ball.  Cells left
        out of the window lie more than one spacing outside the ball."""
        c = np.asarray(center, dtype=float)
        r = math.sqrt(r2)
        origin = np.asarray(self.origin)
        lo = np.maximum(np.floor((c - r - origin) / self.spacing - 0.5), 0)
        hi = np.minimum(np.ceil((c + r - origin) / self.spacing + 0.5),
                        np.asarray(self.extents))
        window = tuple(slice(int(l), int(h)) for l, h in zip(lo, hi))
        coords = []
        for a, sl in enumerate(window):
            shape = [1] * self.n
            shape[a] = -1
            x = self.origin[a] + (np.arange(sl.start, sl.stop) + 0.5) * self.spacing
            coords.append(((x - c[a]) ** 2).reshape(shape))
        return window, sum(np.broadcast_arrays(*coords)) <= r2

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.origin)
        return lo, lo + np.asarray(self.extents) * self.spacing


class FacetArrays:
    """Per-axis boolean masks over facet slots; a set of facets in bulk form.

    ``centers()`` lists facets in lexicographic (axis, index) order, the
    canonical deterministic order everywhere in this package.
    """

    def __init__(self, grid: Grid, masks: list[np.ndarray] | None = None):
        self.grid = grid
        if masks is None:
            masks = [np.zeros(grid.facet_shape(a), dtype=bool) for a in range(grid.n)]
        self.masks = masks

    def copy(self) -> "FacetArrays":
        return FacetArrays(self.grid, [m.copy() for m in self.masks])

    def count(self) -> int:
        return int(sum(int(m.sum()) for m in self.masks))

    def centers(self) -> np.ndarray:
        """(N, n) facet-center coordinates in lexicographic order."""
        return np.concatenate([np.stack(self.grid.facet_centers(a, nonzero(m)), axis=-1)
                               for a, m in enumerate(self.masks)])

    def union(self, other: "FacetArrays") -> "FacetArrays":
        return FacetArrays(
            self.grid, [a | b for a, b in zip(self.masks, other.masks)]
        )

    def intersection_count(self, other: "FacetArrays") -> int:
        return int(sum(int((a & b).sum()) for a, b in zip(self.masks, other.masks)))
