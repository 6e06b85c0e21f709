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
- A closed ball is counted one way, ``ball_count``: the true slots within
  ``r`` of a point in lattice units, one at distance exactly ``r`` included,
  read off a prefix sum at the two ends of each of the ball's rows; density,
  the half-density balls and the Ahlfors bound all read it.  The facet
  cover's equal balls, many and small, mark one stencil (``lattice``).
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


def _ball_rows(r2: float, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed balls ``|o - c|^2 <= r2`` about ``points`` c ((N, n)
    lattice coordinates, any reals) as rows along the last axis: per point
    and row its slot across that axis (N, R, n - 1) and its slice
    ``lo:stop`` along it (N, R), not clipped to any array."""
    points = np.asarray(points, dtype=float)
    base = np.floor(points)
    t = points - base
    t = t if t.any() else t[:1]  # centres on slots share one set of rows
    k, n = int(math.sqrt(r2)) + 1, points.shape[1]
    across = np.indices((2 * k + 1,) * (n - 1)).reshape(n - 1, -1).T - k
    rem = r2 - ((across - t[:, None, :-1]) ** 2).sum(axis=-1)
    # a root rounded up onto a whole number, or a row outside the ball, takes in no slot
    s = np.sqrt(np.maximum(rem, 0.0))
    s = np.where(np.floor(s) ** 2 > rem, np.nextafter(s, -1.0), s)
    lo = np.ceil(t[:, -1:] - s).astype(int)
    stop = np.maximum(np.floor(t[:, -1:] + s).astype(int) + 1, lo)
    base = base.astype(int)
    return base[:, None, :-1] + across, lo + base[:, -1:], stop + base[:, -1:]


def ball_count(mask: np.ndarray, r2: float, points=None) -> np.ndarray:
    """Number of true slots ``o`` of ``mask`` in the closed ball ``|o -
    c|^2 <= r2`` (lattice units) about every slot ``c``, or about each row
    of ``points`` (any reals); slots off the array count as false.  One
    prefix sum along the last axis, read at the two ends of each row of
    the ball (``_ball_rows``), makes every count exact in integers."""
    k = int(math.sqrt(r2)) + 1  # past every half-width
    if points is not None:  # sum only the box the balls reach, False off the array
        points = np.asarray(points, dtype=float)
        if not len(points):
            return np.zeros(0, dtype=np.int64)
        corner = np.floor(points.min(axis=0)).astype(int) - k
        box = np.zeros(np.floor(points.max(axis=0)).astype(int) + k + 2 - corner, dtype=bool)
        src = tuple(slice(max(c, 0), max(min(c + b, m), c, 0))
                    for c, b, m in zip(corner.tolist(), box.shape, mask.shape))
        box[tuple(slice(sl.start - c, sl.stop - c) for sl, c in zip(src, corner))] = mask[src]
        mask, points = box, points - corner
    # the sum up to slot i - 1 sits at k - 1 + i, for -k < i <= m + k
    m = mask.shape[-1]
    cum = np.zeros(mask.shape[:-1] + (m + 2 * k,), dtype=np.int32)
    np.cumsum(mask, axis=-1, out=cum[..., k:k + m])
    cum[..., k + m:] = cum[..., k + m - 1:k + m]
    if points is not None:
        cum, counts = cum.reshape(-1, m + 2 * k)[:, k - 1:], []
        step = max(1, 2**16 // (2 * k + 1) ** (mask.ndim - 1))
        for j in range(0, len(points), step):
            at, lo, stop = _ball_rows(r2, points[j:j + step])
            flat = np.ravel_multi_index(at.T, mask.shape[:-1]).T
            counts.append((cum[flat, stop] - cum[flat, lo]).sum(axis=-1))
        return np.concatenate(counts)
    across, lo, stop = (a[0] for a in _ball_rows(r2, np.zeros((1, mask.ndim))))
    across, half = across[stop > lo], stop[stop > lo] - 1
    # the ball is symmetric about a slot: its rows, grouped by half-width, add
    # shifted copies of one run sum each, in the narrowest integers that hold a count
    out = np.zeros(mask.shape, dtype=np.min_scalar_type(-(2 * k + 1) ** mask.ndim))
    for h in np.unique(half):
        runs = (cum[..., k + h:k + h + m] - cum[..., k - 1 - h:k - 1 - h + m]).astype(out.dtype)
        for o in across[half == h]:
            out[tuple(slice(max(0, -s), n - max(0, s)) for s, n in zip(o, mask.shape))] += \
                runs[tuple(slice(max(0, s), n - max(0, -s)) for s, n in zip(o, mask.shape))]
    return out


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


def _stencil(n: int, dx: float, radius: float, shifts=None) -> list:
    """Index offsets ``o``, per ball facet axis ``a`` and target lattice
    ``b``, of the targets whose centres lie within ``radius`` of an
    axis-``a`` facet centre: ``|(o + e_a / 2 - shifts[b]) dx|^2 <=
    radius^2``.  The targets are the facets of each axis (``shifts[b] =
    e_b / 2``) unless ``shifts`` is given; the cells are shift 0.  The
    refusal of a lattice past ``MAX_CELLS`` names the cover ball radius."""
    r = lattice_reach(np.ceil(radius / dx) + 1, n, f"cover ball radius {radius}")
    box = np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * n, indexing="ij"), -1)
    box = box.reshape(-1, n)
    half = 0.5 * np.eye(n)
    return [[box[(((box + half[a] - s) * dx) ** 2).sum(axis=1) <= radius**2]
             for s in (half if shifts is None else shifts)] for a in range(n)]


def lattice(grid: Grid, radius: float, shifts=None):
    """Every target lattice's slots (see ``_stencil``) in one flat array,
    each padded past the stencil in a common box, so an index offset is
    one flat offset.  Returns ``slot(axes, idx)``, the flat offsets per
    ball axis of the targets within ``radius``, the array's shape
    (targets, *box) and the padding."""
    rows = _stencil(grid.n, grid.spacing, radius, shifts)
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

    def facet_center(self, axis: int, fidx) -> np.ndarray:
        return np.array(self.facet_centers(axis, tuple(fidx)))

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
