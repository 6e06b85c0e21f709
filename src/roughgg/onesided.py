"""Crack-respecting one-sided mollification of staggered fields.

Smoothing near a crack must not mix the two sides, or the very jump the
trace theory is about would be destroyed.  ``smooth_facet_values`` smooths
one facet axis: it builds the kernel, the crack planes, the plain
normalized convolution of the interior values and the band that needs
more care once, then fills the interior facets and the MINUS and PLUS
sides from them.  Outside the band a facet takes the plain convolution.
Inside it, samples are taken in mirror-image pairs about the facet and a
pair is kept only when both members are interior samples visible from
the facet's probe point (segments crossing a crack facet are dropped);
a side is probed a quarter cell into its own cell.  The surviving weight
set is symmetric, so the average is second-order faithful to smooth data,
stays a convex combination (the recorded field bound never grows), and
degenerates to the identity on fully occluded sides.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .gridcore import Grid
from .mollify import MollifierKernel, convolve_same


def _crack_planes(grid: Grid, crack_masks) -> list[tuple[int, float, np.ndarray]]:
    """Group crack facets into (normal axis, plane coordinate, transverse
    index mask) records for fast segment-crossing tests."""
    planes = []
    for b in range(grid.n):
        mask = crack_masks[b]
        if not mask.any():
            continue
        levels = np.unique(np.argwhere(mask)[:, b])
        for lev in levels:
            sl = [slice(None)] * grid.n
            sl[b] = int(lev)
            transverse = mask[tuple(sl)]
            coord = grid.origin[b] + float(lev) * grid.spacing
            planes.append((b, coord, transverse.copy()))
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

    Interior facets take one value (written to both sides); each MINUS and
    PLUS slot averages only what its own side sees; exterior slots keep
    their values.  See the module docstring for the band rule.
    """
    grid, top = F.grid, F.topology
    kernel = MollifierKernel(eps, grid)
    weights, R = kernel.weights, kernel.radius_cells
    sample = top.interior[axis]
    values = np.where(sample, F.vminus[axis], 0.0)
    num = convolve_same(values, weights)
    den = convolve_same(sample.astype(float), weights)
    plain = num / np.maximum(den, 1e-300)
    planes = _crack_planes(grid, top.crack)
    near = ((ndimage.maximum_filter((~sample).astype(np.uint8), size=2 * R + 1) > 0)
            | _near_crack_band(grid, axis, planes, eps))

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

    centers = grid.facet_center_mesh(axis)
    vminus, vplus = F.vminus[axis].copy(), F.vplus[axis].copy()
    for targets, probe, fallback, dests in (
            (top.interior[axis], 0.0, F.vminus[axis], (vminus, vplus)),
            (top.minus[axis], -0.25 * grid.spacing, F.vminus[axis], (vminus,)),
            (top.plus[axis], 0.25 * grid.spacing, F.vplus[axis], (vplus,))):
        smoothed = np.where(den > 1e-12, plain, fallback)
        band = targets & near
        if band.any():
            base = (np.argwhere(band) + R) @ strides
            points = [np.broadcast_to(c, values.shape)[band] for c in centers]
            points[axis] = points[axis] + probe
            acc_num = np.zeros(base.shape[0])
            acc_den = np.zeros(base.shape[0])
            for off, shift, w in zip(pair_off, shifts, pair_w):
                ok = mpad[base + shift] & mpad[base - shift]
                if planes and ok.any():
                    for d in (off * grid.spacing, -off * grid.spacing):
                        d[axis] -= probe
                        ok &= ~_blocked(grid, planes, points, d)
                okf = ok.astype(float)
                acc_num += w * (vpad[base + shift] + vpad[base - shift]) * okf
                acc_den += 2.0 * w * okf
            ok0 = mpad[base].astype(float)
            acc_num += center_w * vpad[base] * ok0
            acc_den += center_w * ok0
            smoothed[band] = np.where(acc_den > 0.0,
                                      acc_num / np.maximum(acc_den, 1e-300),
                                      fallback[band])
        for dest in dests:
            dest[targets] = smoothed[targets]
    return vminus, vplus
