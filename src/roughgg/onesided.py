"""Crack-respecting one-sided mollification of staggered fields.

Smoothing must not mix the two sides of a crack, or the very jump the
trace theory is about would be destroyed.  The rule is one line:
interior facets are smoothed, and crack and boundary sides keep their
values.  ``smooth_facet_values`` smooths one facet axis: it builds the
kernel, the crack planes, the plain normalized convolution of the
interior values and the band once, then fills the interior facets.  The
band is the interior facets whose kernel window holds a non-sample or
that lie near a crack (``_near_crack_band``).  Outside the band a facet
takes the plain convolution.  Inside it, samples are taken in
mirror-image pairs about the facet and a pair is kept only when both
members are interior samples visible from the facet (segments crossing a
crack facet are dropped).  A segment no longer than the kernel width can
cross a crack only from a start near it, so visibility is tested only at
the near-crack facets, and per crack plane only at those within the
offset's reach |delta_b| of it.  The surviving weight set is symmetric,
so the average is second-order faithful to smooth data and stays a
convex combination (the recorded field bound never grows).
"""

from __future__ import annotations

import numpy as np

from .gridcore import Grid, box_any
from .mollify import MollifierKernel, convolve_same


def _crack_planes(grid: Grid, crack_masks) -> list[tuple[int, float, np.ndarray]]:
    """Group crack facets into (normal axis, plane coordinate, transverse
    index mask) records for fast segment-crossing tests."""
    planes = []
    for b in range(grid.n):
        for lev in np.unique(np.nonzero(crack_masks[b])[b]):
            coord = grid.origin[b] + float(lev) * grid.spacing
            planes.append((b, coord, np.take(crack_masks[b], lev, axis=b)))
    return planes


def _plane_reach(planes, starts: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per crack plane, the starts ordered by their distance to the plane
    and those distances, so that the starts within some reach of it are a
    prefix of the order."""
    reach = []
    for b, coord, _ in planes:
        dist = np.abs(coord - starts[b])
        order = np.argsort(dist, kind="stable")
        reach.append((order, dist[order]))
    return reach


def _blocked(grid: Grid, planes, starts: list[np.ndarray], delta: np.ndarray,
             reach) -> np.ndarray:
    """Does a segment start -> start + delta or start -> start - delta
    cross any crack facet?  ``starts`` are per-axis 1-D coordinate arrays
    and ``reach`` is ``_plane_reach(planes, starts)``.

    A segment meets the plane of normal axis b at start + t * delta with
    0 < |t| < 1 only if the start lies within |delta_b| of it (division
    rounds monotonically, so a computed distance above |delta_b| gives
    |t| >= 1), so per plane only that prefix of the starts is tested, and
    only the starts that meet the plane are located in its transverse
    mask.  The -delta
    half meets it at -t, at the very same point: IEEE rounding is
    symmetric in sign, so both halves share one crossing point bit for
    bit.
    """
    blocked = np.zeros(starts[0].shape, dtype=bool)
    for (b, coord, transverse), (order, dist) in zip(planes, reach):
        if delta[b] == 0.0:
            continue
        cand = order[:np.searchsorted(dist, abs(delta[b]), side="right")]
        t = (coord - starts[b][cand]) / delta[b]
        hit = (t != 0.0) & (np.abs(t) < 1.0)
        cand, t = cand[hit], t[hit]
        inside = np.ones(cand.shape, dtype=bool)
        idx = []
        for a in range(grid.n):
            if a == b:
                continue
            xa = starts[a][cand] + t * delta[a]
            ia = np.floor((xa - grid.origin[a]) / grid.spacing).astype(int)
            size = transverse.shape[len(idx)]
            inside &= (ia >= 0) & (ia < size)
            idx.append(np.clip(ia, 0, size - 1))
        blocked[cand[inside & transverse[tuple(idx)]]] = True
    return blocked


def _near_crack_band(grid: Grid, axis: int, planes, eps: float) -> np.ndarray:
    """Facet slots of the given axis lattice within reach of some crack:
    within ``eps`` plus a cell of the crack's plane and of the bounding
    box of its facets.  Only from these can a segment no longer than
    ``eps`` cross a crack facet."""
    coords = grid.facet_center_mesh(axis)
    band = np.zeros(grid.facet_shape(axis), dtype=bool)
    reach = eps + grid.spacing
    for b, coord, transverse in planes:
        box = np.abs(coords[b] - coord) <= reach
        nz = np.argwhere(transverse)
        tr_axes = [a for a in range(grid.n) if a != b]
        for a, first, last in zip(tr_axes, nz.min(axis=0), nz.max(axis=0)):
            lo = grid.origin[a] + first * grid.spacing - reach
            hi = grid.origin[a] + (last + 1) * grid.spacing + reach
            box = box & (coords[a] >= lo) & (coords[a] <= hi)
        band |= box
    return band


def smooth_facet_values(F, eps: float, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided mollified (vminus, vplus) of ``F`` on the axis-``axis``
    facets, as new arrays.

    Interior facets take one smoothed value (written to both sides); MINUS,
    PLUS and exterior slots keep their values.  See the module docstring
    for the band rule.
    """
    grid, top = F.grid, F.topology
    kernel = MollifierKernel(eps, grid)
    weights, R = kernel.weights, kernel.radius_cells
    sample = top.interior[axis]
    values = np.where(sample, F.vminus[axis], 0.0)
    # outside the band a sample's kernel window holds only samples
    smoothed = (convolve_same(values, weights)
                / np.maximum(convolve_same(sample.astype(float), weights), 1e-300))
    planes = _crack_planes(grid, top.crack)
    # a segment no longer than eps crosses a crack only from a near start
    near = _near_crack_band(grid, axis, planes, eps)
    band = sample & (box_any(~sample, R) | near)

    # np.argwhere lists the symmetric support in an order that negation
    # reverses: its first half holds one offset of each mirror pair, and
    # the centre comes next.  Pairs are accumulated first, the centre last.
    support = np.argwhere(weights > 0.0)
    half = support.shape[0] // 2
    pair_w = weights[tuple(support[:half].T)]
    center_w = weights[(R,) * grid.n]
    pair_off = support[:half] - R
    # flat reads from arrays padded by R: every offset stays in bounds and
    # a padded slot is never a sample
    vpad = np.pad(values, R)
    strides = np.array(vpad.strides) // vpad.itemsize
    shifts = pair_off @ strides
    vpad = vpad.ravel()
    mpad = np.pad(sample, R).ravel()

    base = (np.argwhere(band) + R) @ strides
    sub = np.flatnonzero(near[band])
    starts = [np.broadcast_to(c, values.shape)[band & near]
              for c in grid.facet_center_mesh(axis)]
    reach = _plane_reach(planes, starts)
    acc_num = np.zeros(base.shape[0])
    acc_den = np.zeros(base.shape[0])
    for off, shift, w in zip(pair_off, shifts, pair_w):
        fwd, bwd = base + shift, base - shift
        ok = mpad[fwd] & mpad[bwd]
        if sub.size and ok[sub].any():
            ok[sub] &= ~_blocked(grid, planes, starts, off * grid.spacing, reach)
        okf = ok.astype(float)
        acc_num += w * (vpad[fwd] + vpad[bwd]) * okf
        acc_den += 2.0 * w * okf
    # the centre is the target itself, always a sample
    smoothed[band] = (acc_num + center_w * vpad[base]) / (acc_den + center_w)

    return (np.where(sample, smoothed, F.vminus[axis]),
            np.where(sample, smoothed, F.vplus[axis]))
