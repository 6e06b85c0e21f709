"""Interior approximation by sets of uniformly bounded perimeter.

The construction removes a controlled ball cover of the boundary from
the body: the exterior-density cells (``bd.exterior_part``) are removed
through balls certified to hold less than half body volume (greedy
disjoint family, largest radius first), and the rest of the boundary
(reduced facets and cracks) is covered by equal balls marched along the
facet set, whose total sphere area is proportional to the boundary
measure.  What remains is compactly contained, its perimeter is bounded
by a fixed multiple of the boundary measure uniformly in the scale, and
the removed volume is linear in the scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import RoughSet, cantor_cross_spec, make_grid, rasterize
from .errors import InputError, InvariantViolation
from .gridcore import FacetArrays, Grid, ball_count, box_any, lattice, nonzero, touching
from .measure import (
    BoundaryDecomposition,
    Classification,
    boundary_decomposition,
    classify,
    density_field,
    perimeter,
)

EXTERIOR_HALF_DENSITY = "EXTERIOR_HALF_DENSITY"
STAR_COVER = "STAR_COVER"


def _sphere_area(n: int, r: float) -> float:
    return 2.0 * math.pi * r if n == 2 else 4.0 * math.pi * r * r


@dataclass
class BallCover:
    """Removal balls: certified low-density balls plus the boundary cover."""

    balls: list  # (center tuple, radius, kind)
    totals: dict


@dataclass
class ApproxReport:
    delta: float
    e_cells: np.ndarray
    perimeter_estimate: float
    perimeter_facets: float
    removed_volume: float
    star_measure: float
    ratio: float
    cover: BallCover
    kappa: float  # cover sphere area over the boundary measure


def _half_density_balls(set_: RoughSet, bd: BoundaryDecomposition, delta: float) -> list:
    """Balls of certified density < 1/2 around the exterior-density
    boundary cells ``bd.exterior_part``: halving radius search, then
    greedy disjoint selection."""
    grid = set_.grid
    dx = grid.spacing
    idx = np.stack(nonzero(bd.exterior_part), axis=1)
    glo, ghi = grid.bounds()
    centers = glo + (idx + 0.5) * dx
    found = []
    r = delta * 0.999  # keep radii strictly below the scale
    # halving search, one count per radius over the cells still unplaced;
    # the floor sits at 4 cells so the window is nonempty even at the
    # smallest admissible scale (delta = 8 cells).  Cells with no
    # admissible radius are ordinary boundary material: the facet cover
    # below takes care of them
    while r >= 4.0 * dx and len(centers):
        fits = np.all(centers - r >= glo, axis=1) & np.all(centers + r <= ghi, axis=1)
        low = np.zeros_like(fits)
        low[fits] = density_field(set_, r, idx[fits]) < 0.5
        found += [(tuple(c), r) for c in centers[low].tolist()]
        centers, idx = centers[~low], idx[~low]
        r *= 0.5
    found.sort(key=lambda cr: (-cr[1], cr[0]))
    if not found:
        return []
    # buckets just wider than the largest diameter: an accepted ball is filed
    # under the 3^n buckets about its own, and a found ball is tested exactly
    # against those filed under its bucket (the rest are provably apart)
    side = 2.0 * found[0][1] * (1.0 + 1e-9)
    keys = np.floor((np.array([c for c, _ in found]) - glo) / side).astype(int).tolist()
    block = np.array(list(itertools.product((-1, 0, 1), repeat=grid.n)))
    near, accepted = {}, []
    for (center, r), key in zip(found, keys):
        c = np.asarray(center)
        if all(np.linalg.norm(c - c2) >= r + r2 for c2, r2 in near.get(tuple(key), ())):
            accepted.append((center, r))
            for k in (block + key).tolist():
                near.setdefault(tuple(k), []).append((c, r))
    return [(c, r, EXTERIOR_HALF_DENSITY) for c, r in accepted]


def _hits(grid: Grid, radius: float, centers, cells: bool = False) -> list[np.ndarray]:
    """Per target lattice (each axis's facets, or with ``cells`` the cells)
    the slots within ``radius`` of a ball centred on a facet centre in
    ``centers``, marked by stencil a chunk of balls at a time."""
    # 2 (c - origin) / dx - 1 is even on the axes across a facet and odd
    # on its own axis
    u = 2.0 * (np.asarray(centers) - np.asarray(grid.origin)) / grid.spacing - 1.0
    q = np.rint(u).astype(int)
    odd = q % 2 == 1
    idx, axes = (q + odd) // 2, np.argmax(odd, axis=1)
    if (np.abs(u - q).max() > 1e-6 or np.any(odd.sum(axis=1) != 1)
            or np.any(idx < 0) or np.any(idx > np.asarray(grid.extents))):
        raise InvariantViolation("a cover ball is not centred on a facet of the grid")
    slot, offsets, shape, pad = lattice(grid, radius, np.zeros((1, grid.n)) if cells else None)
    hit = np.zeros(math.prod(shape), dtype=bool)
    for a in range(grid.n):
        base = slot(a, idx[axes == a])
        step = max(1, 2**20 // offsets[a].size)
        for k in range(0, base.size, step):
            hit[(base[k:k + step, None] + offsets[a]).ravel()] = True
    targets = [grid.extents] if cells else [grid.facet_shape(b) for b in range(grid.n)]
    return [h[tuple(slice(pad, pad + m) for m in t)]
            for h, t in zip(hit.reshape(shape), targets)]


def _facet_cover(grid: Grid, targets: FacetArrays, delta: float) -> list:
    """Equal balls greedily marched along the facet set until every facet
    sits fully inside some ball; each ball marks its facets by stencil."""
    dx = grid.spacing
    rho = max(2.0 * dx, dx * float(np.floor(delta / (2.0 * dx))))
    rho = min(rho, delta * 0.999)
    # marking margin: every cell whose closed cube touches a covered facet
    # (corner contact included) must land inside the ball
    reach = rho - dx * math.sqrt(0.25 + (grid.n - 1))
    slot, offsets, shape, _ = lattice(grid, reach + 1e-12 * dx)
    slots = [(a, s) for a, mask in enumerate(targets.masks)
             for s in slot(a, np.stack(nonzero(mask), axis=1)).tolist()]
    covered = np.zeros(math.prod(shape), dtype=bool)
    balls = []
    for c, (a, s) in zip(targets.centers(), slots):
        if covered[s]:
            continue
        balls.append((tuple(float(v) for v in c), rho, STAR_COVER))
        covered[s + offsets[a]] = True
    return balls


def _remove_balls(set_: RoughSet, balls) -> np.ndarray:
    """Cells whose centres lie in a removal ball: per radius of the
    half-density balls, a cell whose ball holds a ball's centre cell.  Star
    balls (radius k dx, k >= 4, on facet centres) mark a cell stencil: a
    cell at offset o from an axis-a facet lies at d^2 / dx^2 = |o|^2 + o_a
    + 1/4, never within 1/4 of k^2, so no roundoff or slack moves it across."""
    grid = set_.grid
    # hair of slack: facets marked covered at the marking tolerance
    # must see both incident cells removed
    slack = 1e-9 * grid.spacing
    removed = np.zeros(grid.extents, dtype=bool)
    half = [(c, r) for c, r, kind in balls if kind != STAR_COVER]
    for r in {r for _, r in half}:
        marks = np.zeros(grid.extents, dtype=bool)
        at = (np.array([c for c, rc in half if rc == r]) - grid.origin) / grid.spacing
        marks[tuple(np.rint(at - 0.5).astype(int).T)] = True
        removed |= ball_count(marks, ((r + slack) / grid.spacing) ** 2) > 0
    star = [(c, r) for c, r, kind in balls if kind == STAR_COVER]
    if star:  # one radius, as the cover makes them
        removed |= _hits(grid, star[0][1] + slack, [c for c, _ in star], cells=True)[0]
    return removed


def audit_cover(set_: RoughSet, cover: BallCover,
                targets: FacetArrays) -> None:
    """Post-hoc exactness audit: low-density balls re-pass the half
    check, and the facet cover, centred on facets, covers every target."""
    grid = set_.grid
    half = [(c, r) for c, r, kind in cover.balls if kind == EXTERIOR_HALF_DENSITY]
    for r in sorted({r for _, r in half}, reverse=True):  # in the cover's order
        centers = [c for c, rc in half if rc == r]
        at = (np.array(centers) - grid.origin) / grid.spacing - 0.5
        low = density_field(set_, r, at) < 0.5
        if not low.all():
            raise InvariantViolation(
                f"cover ball at {centers[np.argmin(low)]} (r={r}) fails the density check"
            )
    star_balls = [(c, r) for c, r, k in cover.balls if k == STAR_COVER]
    if targets.count() == 0:
        return
    if not star_balls:
        raise InvariantViolation("boundary facets exist but the cover is empty")
    dx = grid.spacing
    half_diag = 0.5 * dx * math.sqrt(grid.n - 1)
    rho = star_balls[0][1]
    hits = _hits(grid, rho - half_diag + 1e-9 * dx, [c for c, _ in star_balls])
    for a, mask in enumerate(targets.masks):
        missed = np.argwhere(mask & ~hits[a])
        if missed.size:
            raise InvariantViolation(
                f"facet at {grid.facet_center(a, missed[0])} is not inside any cover ball"
            )


def interior_approximation(set_: RoughSet, delta: float,
                           cls: Classification | None = None,
                           bd: BoundaryDecomposition | None = None) -> ApproxReport:
    """Remove a ball cover of the boundary at scale delta from the body.

    The result is compactly contained (one-cell clearance from every
    boundary and crack facet, audited), its perimeter is measured both by
    the mollified estimator and by facet counting, and the cover is
    returned for post-hoc certification.
    """
    grid = set_.grid
    dx = grid.spacing
    if not math.isfinite(delta):
        raise InputError(f"approximation scale {delta} is not finite")
    if delta < 8.0 * dx:
        raise InputError(f"approximation scale {delta} must be >= 8 spacings")
    if set_.cell_count == 0:
        raise InputError("the body has no volume")
    if bd is None:
        bd = boundary_decomposition(set_, classify(set_) if cls is None else cls)
    targets = bd.reduced.union(bd.crack_part)
    balls = _half_density_balls(set_, bd, delta)
    balls += _facet_cover(grid, targets, delta)
    totals: dict = {}
    for _c, r, kind in balls:
        totals[kind] = totals.get(kind, 0.0) + _sphere_area(grid.n, r)
    cover = BallCover(balls=balls, totals=totals)
    removed = _remove_balls(set_, balls)
    e_cells = set_.cells & ~removed
    if not e_cells.any():
        raise InputError("removal at this scale leaves an empty set")
    # compact containment: one-cell clearance from non-body cells and cracks
    grown = box_any(e_cells, 1)
    if bool(np.any(grown & ~set_.cells)):
        raise InvariantViolation("result touches the exterior")
    if bool(np.any(touching(set_.cracks.masks) & e_cells)):
        raise InvariantViolation("result touches a crack facet")
    audit_cover(set_, cover, targets)
    per_est = perimeter(grid, e_cells, 2.0 * dx)
    per_facets = RoughSet(grid, e_cells).reduced_measure
    removed_volume = (set_.cell_count - int(e_cells.sum())) * grid.cell_volume
    star = bd.star_measure
    kappa = totals.get(STAR_COVER, 0.0) / star if star > 0.0 else 0.0
    return ApproxReport(
        delta=delta,
        e_cells=e_cells,
        perimeter_estimate=per_est,
        perimeter_facets=per_facets,
        removed_volume=removed_volume,
        star_measure=star,
        ratio=per_est / star if star > 0.0 else math.inf,
        cover=cover,
        kappa=kappa,
    )


def approximation_sweep(set_: RoughSet, deltas,
                        cls: Classification | None = None,
                        bd: BoundaryDecomposition | None = None) -> dict:
    """Scale sweep on one domain; verdict BOUNDED when the perimeter to
    boundary-measure ratios stay within a factor of four."""
    deltas = sorted(float(d) for d in deltas)[::-1]
    if len(deltas) < 3:
        raise InputError("sweep needs >= 3 scales")
    if bd is None:
        bd = boundary_decomposition(set_, classify(set_) if cls is None else cls)
    rows = []
    for d in deltas:
        rep = interior_approximation(set_, d, bd=bd)
        rows.append(
            {
                "delta": d,
                "spacing": set_.grid.spacing,
                "perimeter": rep.perimeter_estimate,
                "removed": rep.removed_volume,
                "ratio": rep.ratio,
                "kappa": rep.kappa,
            }
        )
    ratios = [r["ratio"] for r in rows]
    bounded = max(ratios) <= 4.0 * min(ratios)
    return {"rows": rows, "verdict": "BOUNDED" if bounded else "GROWING"}


def cantor_generation_sweep(ks) -> dict:
    """Generation ladder for the Cantor-cross family: the scale refines
    with the generation, and the smallest achievable perimeter (over
    approximation scales of 8, 12 and 16 spacings) grows, witnessing an
    unbounded boundary measure."""
    rows = []
    for k in ks:
        dx = 3.0 ** (-k) / 4.0
        spec = cantor_cross_spec(k)
        set_ = rasterize(spec, make_grid(spec, dx))
        bd = boundary_decomposition(set_, classify(set_))
        best = math.inf
        sub = []
        for m in (8, 12, 16):
            rep = interior_approximation(set_, m * dx, bd=bd)
            best = min(best, rep.perimeter_estimate)
            sub.append({"delta": m * dx, "perimeter": rep.perimeter_estimate,
                        "removed": rep.removed_volume, "ratio": rep.ratio})
        rows.append({"k": k, "spacing": dx, "min_perimeter": best,
                     "star_measure": bd.star_measure, "sweep": sub})
    mins = [r["min_perimeter"] for r in rows]
    growing = all(b > a for a, b in zip(mins, mins[1:]))
    return {"rows": rows, "verdict": "GROWING" if growing else "BOUNDED"}
