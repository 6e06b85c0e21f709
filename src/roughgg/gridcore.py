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

    def axis_coords(self, axis: int, *, centered: bool = True) -> np.ndarray:
        """1D coordinates along ``axis``: cell centers or facet planes."""
        m = self.extents[axis]
        if centered:
            return self.origin[axis] + (np.arange(m) + 0.5) * self.spacing
        return self.origin[axis] + np.arange(m + 1) * self.spacing

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
        coords = []
        for a in range(self.n):
            shape = [1] * self.n
            shape[a] = self.facet_shape(axis)[a]
            c = self.axis_coords(a, centered=(a != axis))
            coords.append(c.reshape(shape))
        return coords

    def cell_center(self, idx) -> np.ndarray:
        return np.asarray(self.origin) + (np.asarray(idx) + 0.5) * self.spacing

    def facet_center(self, axis: int, fidx) -> np.ndarray:
        x = np.asarray(self.origin) + (np.asarray(fidx) + 0.5) * self.spacing
        x[axis] -= 0.5 * self.spacing
        return x

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

    Supports iteration in lexicographic (axis, index) order, which is the
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
        rows = []
        dx = self.grid.spacing
        for a in range(self.grid.n):
            idx = nonzero(self.masks[a])
            if idx[0].size == 0:
                continue
            x = np.empty((idx[0].size, self.grid.n))
            for b, (i, o) in enumerate(zip(idx, self.grid.origin)):
                x[:, b] = (i + 0.5) * dx + o
            x[:, a] -= 0.5 * dx
            rows.append(x)
        if not rows:
            return np.zeros((0, self.grid.n))
        return np.concatenate(rows, axis=0)

    def union(self, other: "FacetArrays") -> "FacetArrays":
        return FacetArrays(
            self.grid, [a | b for a, b in zip(self.masks, other.masks)]
        )

    def intersection_count(self, other: "FacetArrays") -> int:
        return int(sum(int((a & b).sum()) for a, b in zip(self.masks, other.masks)))
