"""Measure-theoretic classification and size estimation on rough sets.

Cells are labeled interior / exterior / essential-boundary by the volume
fraction of the body in a reference ball (radius 8 spacings, thresholds
at tau and 1-tau).  The boundary measure every bound here is measured
against, H^{n-1} of the boundary minus the measure-theoretic exterior, is
``RoughSet.star_measure``: the reduced facets and cracks are the set's
own.  The boundary decomposition adds only what classification decides,
the exterior-density cells on a reduced facet, body cells included, which
the interior approximation removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import RoughSet, cantor_cross_spec, make_grid, rasterize
from .errors import InputError
from .gridcore import (FacetArrays, Grid, ball_count, box_any, lattice_reach, nonzero, touching,
                       unit_ball_volume)
from .mollify import MollifierKernel

EXTERIOR = 0
ESSBOUNDARY = 1
INTERIOR = 2

DEFAULT_TAU = 0.05


@dataclass
class Classification:
    """Per-cell labels partitioning the grid, and the radius and threshold."""

    labels: np.ndarray  # int8: EXTERIOR / ESSBOUNDARY / INTERIOR
    r_star: float
    tau: float

    def count(self, label: int) -> int:
        return int((self.labels == label).sum())

    def to_pgm_levels(self) -> np.ndarray:
        out = np.zeros(self.labels.shape, dtype=np.uint8)
        out[self.labels == ESSBOUNDARY] = 128
        out[self.labels == INTERIOR] = 255
        return out


@dataclass
class BoundaryDecomposition:
    """What classification adds to a set's boundary: the exterior-density
    cells on a reduced facet, beside the set's ``star_measure``."""

    exterior_part: np.ndarray  # bool cells labeled exterior on a reduced facet
    star_measure: float  # RoughSet.star_measure of the set


def density(set_: RoughSet, center, r: float) -> float:
    """Volume fraction of the body in the closed ball B_r(center), counted
    as ``classify`` counts it about a cell (``density_field``)."""
    grid = set_.grid
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.n,):
        raise InputError(f"density center of shape {center.shape} is not a {grid.n}-D point")
    if not (math.isfinite(r) and np.isfinite(center).all()):
        raise InputError(f"density ball of radius {r} at {center.tolist()} is not finite")
    if r < 2.0 * grid.spacing:
        raise InputError(f"density radius {r} must be >= 2 spacings")
    glo, ghi = grid.bounds()
    if np.any(center - r < glo) or np.any(center + r > ghi):
        raise InputError("density ball exits the grid")
    return float(density_field(set_, r, [(center - glo) / grid.spacing - 0.5])[0])


def density_field(set_: RoughSet, r: float, points=None) -> np.ndarray:
    """Volume fraction of the body in the closed ball B_r about every cell,
    or about ``points`` in cell units: indicator-true cell centres counted
    by ``ball_count`` (off the grid counts as exterior), scaled by the
    analytic ball volume, clamped to [0, 1]."""
    grid = set_.grid
    counts = ball_count(set_.cells, (r / grid.spacing) ** 2 * (1 + 1e-12), points)
    ratio = counts * grid.cell_volume / (unit_ball_volume(grid.n) * r**grid.n)
    return np.clip(ratio, 0.0, 1.0)


def classify(set_: RoughSet, tau: float = DEFAULT_TAU) -> Classification:
    """Label every cell interior / exterior / essential-boundary.

    Density at the reference radius, 8 spacings, decides the label; two
    exact overrides restore what openness guarantees in the vanishing-radius
    limit: a true cell whose full 3^n neighborhood is true is interior (and
    the mirrored rule for false cells), and cells touching a crack facet
    are interior since cracks live inside the body.
    """
    grid = set_.grid
    if not 0.0 < tau < 0.5:
        raise InputError("tau must lie in (0, 1/2)")
    r_star = 8.0 * grid.spacing
    dens = density_field(set_, r_star)
    labels = np.full(grid.extents, ESSBOUNDARY, dtype=np.int8)
    labels[dens >= 1.0 - tau] = INTERIOR
    labels[dens <= tau] = EXTERIOR
    deep_in = ~box_any(~set_.cells, 1, outside=True)
    deep_out = ~box_any(set_.cells, 1, outside=True)
    labels[deep_in] = INTERIOR
    labels[deep_out] = EXTERIOR
    labels[touching(set_.cracks.masks)] = INTERIOR
    return Classification(labels=labels, r_star=r_star, tau=tau)


def boundary_decomposition(set_: RoughSet, cls: Classification) -> BoundaryDecomposition:
    """The exterior-labeled cells on a reduced facet, with the set's
    boundary measure."""
    return BoundaryDecomposition(
        exterior_part=touching(set_.topology.boundary) & (cls.labels == EXTERIOR),
        star_measure=set_.star_measure,
    )


def perimeter(grid: Grid, cells: np.ndarray, eps: float) -> float:
    """Perimeter estimate: total variation of the mollified indicator.

    Integrates |grad(chi * rho_eps)| over the grid; for a smooth set the
    value converges to the true perimeter as spacing and eps shrink with
    eps/spacing fixed.
    """
    if eps < 2.0 * grid.spacing:
        raise InputError(f"mollification width {eps} must be >= 2 spacings")
    if not np.asarray(cells).any():
        return 0.0
    kernel = MollifierKernel(eps, grid)
    w = kernel.smooth_cells(np.asarray(cells, dtype=float))
    grads = np.gradient(w, grid.spacing)
    if grid.n == 2:
        mag = np.hypot(grads[0], grads[1])
    else:
        mag = np.sqrt(sum(g**2 for g in grads))
    return float(mag.sum() * grid.cell_volume)


def ahlfors_constant(grid: Grid, facets: FacetArrays, radii) -> float:
    """Best constant C with measure(set within B_r) <= C r^(n-1) over every
    facet center of the set and the given radii.  Each centre counts the
    facets of the set in its closed ball by ``gridcore.ball_count`` on one
    occupancy array in doubled coordinates, where the axis-a facet f sits
    at 2 f + 1 - e_a and the ball has radius 2 r / spacing."""
    radii = [float(r) for r in radii]
    if not radii:
        raise InputError("Ahlfors estimation needs at least one radius")
    if not all(math.isfinite(r) for r in radii):
        raise InputError(f"Ahlfors radii {radii} are not all finite")
    if facets.count() == 0:
        raise InputError("Ahlfors estimation needs a nonempty facet set")
    if min(radii) < 4.0 * grid.spacing:
        raise InputError("Ahlfors radii must be >= 4 spacings")
    points = np.concatenate([2 * np.stack(nonzero(mask), axis=1) + 1 - np.eye(grid.n, dtype=int)[a]
                             for a, mask in enumerate(facets.masks)])
    occupied = np.zeros(tuple(2 * m + 1 for m in grid.extents), dtype=bool)
    occupied[tuple(points.T)] = True
    constant = 0.0
    for r in radii:
        lattice_reach(np.ceil(r / grid.spacing) + 1, grid.n, f"Ahlfors radius {r}")
        counts = ball_count(occupied, (2.0 * r / grid.spacing) ** 2, points)
        constant = max(constant, float(counts.max()) * grid.facet_area / r ** (grid.n - 1))
    return constant


def refinement_order(scales, gaps) -> float | None:
    """Order p of gap ~ scale^p on a ladder: the least-squares slope of
    log gap (clamped at 1e-300) against log scale; None when every gap is
    at roundoff (<= 1e-250).  Callers pin their own threshold."""
    gaps = np.asarray(gaps, dtype=float)
    if not gaps.max() > 1e-250:
        return None
    xs = np.log(np.asarray(scales, dtype=float))
    ys = np.log(np.maximum(gaps, 1e-300))
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coeff, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(coeff[0])


@dataclass
class StarDiagnostic:
    """Boundary-measure ladder rows and the growth rate of the worst
    component; ~0 supports finiteness."""

    rows: list[dict]
    slope: float


def star_condition_diagnostic(spec, spacings) -> StarDiagnostic:
    """Fit log(boundary measure) against log(1/spacing) over a ladder.

    For the Cantor-cross generator the generation is tied to the spacing
    (k = round(log3(1/spacing))), so the crack component grows like
    (4/3)^k and its fitted slope is log(4/3)/log(3).  Flat slopes on every
    component support a finite boundary measure.
    """
    spacings = [float(s) for s in spacings]
    if len(spacings) < 3:
        raise InputError("refinement ladder needs >= 3 levels")
    rows = []
    for dx in spacings:
        level_spec = spec
        if spec.preset == "cantor-cross":
            level_spec = cantor_cross_spec(max(0, int(round(-math.log(dx) / math.log(3.0)))))
        set_ = rasterize(level_spec, make_grid(level_spec, dx))
        rows.append({"spacing": dx, "star_measure": set_.star_measure,
                     "reduced": set_.reduced_measure, "crack": set_.crack_length()})
    inv = [1.0 / r["spacing"] for r in rows]
    components = ["star_measure", "reduced"]
    if all(r["crack"] > 0.0 for r in rows):
        components.append("crack")
    # a component at roundoff on every level is flat
    slopes = [refinement_order(inv, [r[c] for r in rows]) or 0.0 for c in components]
    return StarDiagnostic(rows=rows, slope=max(slopes))
