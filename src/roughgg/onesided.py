"""Crack-respecting one-sided mollification of staggered fields.

Smoothing near a crack must not mix the two sides, or the very jump the
trace theory is about would be destroyed.  Samples are taken in
mirror-image pairs about the target facet and a pair is kept only when
both members are body samples visible from the target's probe point
(segments crossing a crack facet are dropped).  The surviving weight set
is symmetric, so the average is second-order faithful to smooth data,
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
    ``starts`` are per-axis coordinate arrays of a common shape."""
    shape = np.broadcast_shapes(*(s.shape for s in starts))
    blocked = np.zeros(shape, dtype=bool)
    for b, coord, transverse in planes:
        db = delta[b]
        if db == 0.0:
            continue
        t = (coord - starts[b]) / db
        crossing = (t > 0.0) & (t < 1.0)
        if not np.any(crossing):
            continue
        hit = crossing.copy()
        tr_axes = [a for a in range(grid.n) if a != b]
        idx = []
        for a in tr_axes:
            xa = starts[a] + t * delta[a]
            ia = np.floor((xa - grid.origin[a]) / grid.spacing).astype(int)
            inside = (ia >= 0) & (ia < transverse.shape[len(idx)])
            hit &= inside
            idx.append(np.clip(ia, 0, transverse.shape[len(idx)] - 1))
        if grid.n == 2:
            hit &= transverse[idx[0]]
        else:
            hit &= transverse[idx[0], idx[1]]
        blocked |= hit
    return blocked


def _near_crack_band(grid: Grid, shape, axis: int, planes, eps: float) -> np.ndarray:
    """Facet slots of the given axis lattice within reach of some crack."""
    band = np.zeros(shape, dtype=bool)
    if not planes:
        return band
    coords = []
    for a in range(grid.n):
        sh = [1] * grid.n
        sh[a] = shape[a]
        c = grid.origin[a] + (np.arange(shape[a]) + (0.0 if a == axis else 0.5)) \
            * grid.spacing
        coords.append(c.reshape(sh))
    reach = eps + grid.spacing
    for b, coord, transverse in planes:
        slab = np.abs(coords[b] - coord) <= reach
        tr_axes = [a for a in range(grid.n) if a != b]
        box = np.broadcast_to(slab, shape).copy()
        for pos, a in enumerate(tr_axes):
            nz = np.nonzero(transverse.any(axis=tuple(i for i in range(transverse.ndim)
                                                      if i != pos))
                            if transverse.ndim > 1 else transverse)[0]
            lo = grid.origin[a] + nz.min() * grid.spacing - reach
            hi = grid.origin[a] + (nz.max() + 1) * grid.spacing + reach
            box &= np.broadcast_to((coords[a] >= lo) & (coords[a] <= hi), shape)
        band |= box
    return band


def smooth_facet_values(grid: Grid, eps: float, values: np.ndarray,
                        sample_mask: np.ndarray, starts: list[np.ndarray],
                        targets: np.ndarray, crack_planes,
                        axis_probe_offset: float = 0.0,
                        axis: int = 0,
                        fallback: np.ndarray | None = None) -> np.ndarray:
    """Symmetrized one-sided mollified values on ``targets``.

    Away from masked samples and cracks this is the plain normalized
    convolution; inside that band, samples enter in mirror pairs about
    the facet center and only when both members are visible from the
    probe point, keeping the effective kernel symmetric.
    """
    kernel = MollifierKernel(eps, grid)
    R = kernel.radius_cells
    shape = values.shape
    if fallback is None:
        fallback = values
    num = convolve_same(np.where(sample_mask, values, 0.0), kernel.weights)
    den = convolve_same(sample_mask.astype(float), kernel.weights)
    plain = np.where(den > 1e-12, num / np.maximum(den, 1e-300), fallback)
    out = np.where(targets, plain, fallback)

    near_bad = ndimage.maximum_filter((~sample_mask).astype(np.uint8),
                                      size=2 * R + 1) > 0
    band = targets & (near_bad
                      | _near_crack_band(grid, shape, axis, crack_planes, eps))
    if not band.any():
        return out
    idx = np.argwhere(band)
    npts = idx.shape[0]
    probe = [s if np.ndim(s) == 0 else np.broadcast_to(s, shape)[band]
             for s in starts]
    probe = [np.asarray(p, dtype=float) for p in probe]
    acc_num = np.zeros(npts)
    acc_den = np.zeros(npts)
    weights = kernel.weights
    center = np.array(weights.shape) // 2

    def gather(offset):
        pos = idx + np.asarray(offset)
        valid = np.ones(npts, dtype=bool)
        for a in range(grid.n):
            valid &= (pos[:, a] >= 0) & (pos[:, a] < shape[a])
        safe = np.where(valid[:, None], pos, 0)
        flat = np.ravel_multi_index(tuple(safe.T), shape)
        vals = values.ravel()[flat]
        mask = sample_mask.ravel()[flat] & valid
        return vals, mask

    offsets = np.argwhere(weights > 0.0) - center
    seen = set()
    for off in offsets:
        o = tuple(int(v) for v in off)
        if o in seen or tuple(-v for v in o) in seen:
            continue
        seen.add(o)
        w = float(weights[tuple(np.asarray(o) + center)])
        if all(v == 0 for v in o):
            v0, m0 = gather(o)
            ok = m0.astype(float)
            acc_num += w * v0 * ok
            acc_den += w * ok
            continue
        v1, m1 = gather(o)
        v2, m2 = gather(tuple(-v for v in o))
        ok = m1 & m2
        if crack_planes and ok.any():
            d1 = np.asarray(o, dtype=float) * grid.spacing
            d1[axis] -= axis_probe_offset
            d2 = -np.asarray(o, dtype=float) * grid.spacing
            d2[axis] -= axis_probe_offset
            ok = ok & ~_blocked(grid, crack_planes, probe, d1)
            ok = ok & ~_blocked(grid, crack_planes, probe, d2)
        okf = ok.astype(float)
        acc_num += w * (v1 + v2) * okf
        acc_den += 2.0 * w * okf
    band_vals = np.where(acc_den > 0.0, acc_num / np.maximum(acc_den, 1e-300),
                         fallback[band])
    out[band] = band_vals
    return out
