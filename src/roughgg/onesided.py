"""Crack-respecting one-sided mollification of staggered fields.

Smoothing must not mix the two sides of a crack, or the very jump the
trace theory is about would be destroyed.  The rule is one line:
interior facets are smoothed, and crack and boundary sides keep their
values.  ``smooth_facet_values`` smooths one facet axis: it builds the
kernel, the crack planes, the plain normalized convolution of the
interior values and the band that needs more care once, then fills the
interior facets.  Outside the band a facet takes the plain convolution.
Inside it, samples are taken in mirror-image pairs about the facet and a
pair is kept only when both members are interior samples visible from
the facet (segments crossing a crack facet are dropped).  The surviving
weight set is symmetric, so the average is second-order faithful to
smooth data and stays a convex combination (the recorded field bound
never grows).
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


def _blocked(grid: Grid, planes, starts: list[np.ndarray],
             delta: np.ndarray) -> np.ndarray:
    """Does the segment start -> start + delta cross any crack facet?
    ``starts`` are per-axis coordinate arrays of one shape."""
    blocked = np.zeros(starts[0].shape, dtype=bool)
    for b, coord, transverse in planes:
        if delta[b] == 0.0:
            continue
        t = (coord - starts[b]) / delta[b]
        hit = (t > 0.0) & (t < 1.0)
        if not hit.any():
            continue
        idx = []
        for a in range(grid.n):
            if a == b:
                continue
            xa = starts[a] + t * delta[a]
            ia = np.floor((xa - grid.origin[a]) / grid.spacing).astype(int)
            size = transverse.shape[len(idx)]
            hit &= (ia >= 0) & (ia < size)
            idx.append(np.clip(ia, 0, size - 1))
        blocked |= hit & transverse[tuple(idx)]
    return blocked


def _near_crack_band(grid: Grid, axis: int, planes, eps: float) -> np.ndarray:
    """Facet slots of the given axis lattice within reach of some crack:
    within ``eps`` plus a cell of the crack's plane and of the bounding
    box of its facets."""
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
    band = sample & (box_any(~sample, R) | _near_crack_band(grid, axis, planes, eps))

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
    points = [np.broadcast_to(c, values.shape)[band]
              for c in grid.facet_center_mesh(axis)]
    acc_num = np.zeros(base.shape[0])
    acc_den = np.zeros(base.shape[0])
    for off, shift, w in zip(pair_off, shifts, pair_w):
        ok = mpad[base + shift] & mpad[base - shift]
        if planes and ok.any():
            for d in (off * grid.spacing, -off * grid.spacing):
                ok &= ~_blocked(grid, planes, points, d)
        okf = ok.astype(float)
        acc_num += w * (vpad[base + shift] + vpad[base - shift]) * okf
        acc_den += 2.0 * w * okf
    # the centre is the target itself, always a sample
    smoothed[band] = (acc_num + center_w * vpad[base]) / (acc_den + center_w)

    return (np.where(sample, smoothed, F.vminus[axis]),
            np.where(sample, smoothed, F.vplus[axis]))
