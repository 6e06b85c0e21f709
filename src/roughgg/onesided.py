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
crack facet are dropped).  The surviving weight set is symmetric, so the
average is second-order faithful to smooth data and stays a convex
combination (the recorded field bound never grows).

The band is summed in two regions, with one per-element order and
arithmetic of the pairs (``_pair_average``):

- the near box, the bounding box of the band's near-crack facets, on
  dense shifted slices, testing visibility exactly by slabs
  (``_clear_crossings``);
- the rest of the band by flat gathers, testing no visibility: a segment
  no longer than the kernel width cannot reach a crack facet from a start
  that is not near a crack.
"""

from __future__ import annotations

import numpy as np

from .gridcore import Grid, box_any, nonzero
from .mollify import MollifierKernel, convolve_same


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...] | None:
    """Slices of the smallest box holding every true slot, or None."""
    idx = nonzero(mask)
    if idx[0].size == 0:
        return None
    return tuple(slice(i.min(), i.max() + 1) for i in idx)


def _crack_planes(grid: Grid, crack_masks) -> list[tuple]:
    """Group crack facets into (normal axis, plane coordinate, transverse
    index mask, transverse extent) records.  Each transverse mask is padded
    by one False slot at the end of every axis, so that index -1 and the
    index one past the end both read False; the extent is the bounding box
    of its crack facets."""
    planes = []
    for b in range(grid.n):
        for lev in np.unique(nonzero(crack_masks[b])[b]):
            coord = grid.origin[b] + float(lev) * grid.spacing
            transverse = np.take(crack_masks[b], lev, axis=b)
            planes.append((b, coord, np.pad(transverse, [(0, 1)] * transverse.ndim),
                           _bounding_box(transverse)))
    return planes


def _clear_crossings(ok: np.ndarray, grid: Grid, planes, coords: list[np.ndarray],
                     delta: np.ndarray, cache: dict) -> None:
    """Clear the starts in ``ok`` from which the segment to start + delta
    or to start - delta crosses a crack facet; ``ok`` is laid out as the
    broadcast of the per-axis 1-D coordinate arrays ``coords``.

    A segment meets the plane of normal axis b at start + t * delta with
    0 < |t| < 1, and the -delta half at -t: IEEE rounding is symmetric in
    sign, so both halves share one crossing point bit for bit.  t depends
    only on a start's b coordinate, and the crossing's cell along a
    transverse axis a only on t and the start's a coordinate.  So per
    plane the crossings fill a slab (the levels that meet the plane, by the
    rows whose crossings reach the crack's extent), located by 2-D index
    tables cached per (plane, delta_b, delta_a) that evaluate the same IEEE
    expressions as a per-start test would.
    """
    for p, (b, coord, transverse, extent) in enumerate(planes):
        if delta[b] == 0.0:
            continue
        key = (p, delta[b])
        if key not in cache:
            t = (coord - coords[b]) / delta[b]
            hit = (t != 0.0) & (np.abs(t) < 1.0)
            levels = _bounding_box(hit)
            if levels is not None:
                shape = [-1 if i == b else 1 for i in range(grid.n)]
                levels = (levels[0], t[levels], hit[levels].reshape(shape))
            cache[key] = levels
        if cache[key] is None:
            continue
        levels, t, hit = cache[key]
        # index arrays broadcast to the slab, in the axis order of ok
        slab = [levels] * grid.n
        idx = []
        for k, a in enumerate(a for a in range(grid.n) if a != b):
            akey = (p, delta[b], a, delta[a])
            if akey not in cache:
                xa = coords[a][:, None] + t * delta[a]
                ia = np.floor((xa - grid.origin[a]) / grid.spacing).astype(int)
                lo, hi = extent[k].start, extent[k].stop
                rows = _bounding_box(((ia >= lo) & (ia < hi)).any(axis=1))
                if rows is not None:
                    ia = np.clip(ia[rows], -1, transverse.shape[k] - 1)
                    shape = [1] * grid.n
                    shape[a], shape[b] = ia.shape
                    rows = (rows[0], (ia if a < b else ia.T).reshape(shape))
                cache[akey] = rows
            if cache[akey] is None:
                break
            slab[a], ia = cache[akey]
            idx.append(ia)
        else:
            ok[tuple(slab)] &= ~(transverse[tuple(idx)] & hit)


def _near_crack_band(grid: Grid, axis: int, planes, eps: float) -> np.ndarray:
    """Facet slots of the given axis lattice within reach of some crack:
    within ``eps`` plus a cell of the crack's plane and of the bounding
    box of its facets.  Only from these can a segment no longer than
    ``eps`` cross a crack facet."""
    coords = grid.facet_center_mesh(axis)
    band = np.zeros(grid.facet_shape(axis), dtype=bool)
    reach = eps + grid.spacing
    for b, coord, _, extent in planes:
        box = np.abs(coords[b] - coord) <= reach
        tr_axes = [a for a in range(grid.n) if a != b]
        for a, span in zip(tr_axes, extent):
            lo = grid.origin[a] + span.start * grid.spacing - reach
            hi = grid.origin[a] + span.stop * grid.spacing + reach
            box = box & (coords[a] >= lo) & (coords[a] <= hi)
        band |= box
    return band


def _pair_average(pairs, pair_w, center_w: float, centre: np.ndarray) -> np.ndarray:
    """Kernel average at targets with values ``centre``.  ``pairs`` yields
    each mirror pair's (kept mask, forward values, backward values) in the
    order of ``pair_w``; the pairs are summed first and the centre, always
    kept, last.  One set of scratch buffers serves every pair; a dropped
    pair adds +-0 and doubling the half weights once is exact, so the sums
    equal those of w * (fwd + bwd) and 2 * w over the kept pairs."""
    acc_num = np.zeros(centre.shape)
    acc_half = np.zeros(centre.shape)
    okw = np.empty(centre.shape)
    term = np.empty(centre.shape)
    for (ok, fwd, bwd), w in zip(pairs, pair_w):
        np.multiply(ok, w, out=okw)
        np.add(fwd, bwd, out=term)
        term *= okw
        acc_num += term
        acc_half += okw
    return (acc_num + center_w * centre) / (2.0 * acc_half + center_w)


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
    num, den = convolve_same([values, sample.astype(float)], weights)
    smoothed = num / np.maximum(den, 1e-300)
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
    # reads from arrays padded by R: every offset stays in bounds and a
    # padded slot is never a sample
    vpad = np.pad(values, R)
    mpad = np.pad(sample, R)

    rest = band
    box = _bounding_box(band & near)
    if box is not None:
        # dense shifted slices over the near box, visibility by slabs
        coords = [c.ravel()[s] for c, s in zip(grid.facet_center_mesh(axis), box)]
        cache = {}

        def dense(off):
            fwd = tuple(slice(s.start + R + o, s.stop + R + o) for s, o in zip(box, off))
            bwd = tuple(slice(s.start + R - o, s.stop + R - o) for s, o in zip(box, off))
            ok = mpad[fwd] & mpad[bwd]
            _clear_crossings(ok, grid, planes, coords, off * grid.spacing, cache)
            return ok, vpad[fwd], vpad[bwd]

        centre = vpad[tuple(slice(s.start + R, s.stop + R) for s in box)]
        inner = band[box]
        smoothed[box][inner] = _pair_average(map(dense, pair_off), pair_w,
                                             center_w, centre)[inner]
        rest = band.copy()
        rest[box] = False

    # flat gathers over the rest of the band, where no segment reaches a
    # crack facet
    strides = np.array(vpad.strides) // vpad.itemsize
    vflat, mflat = vpad.ravel(), mpad.ravel()
    base = np.ravel_multi_index(tuple(i + R for i in nonzero(rest)), vpad.shape)

    def flat(shift):
        fwd, bwd = base + shift, base - shift
        return mflat[fwd] & mflat[bwd], vflat[fwd], vflat[bwd]

    smoothed[rest] = _pair_average(map(flat, pair_off @ strides), pair_w,
                                   center_w, vflat[base])
    return (np.where(sample, smoothed, F.vminus[axis]),
            np.where(sample, smoothed, F.vplus[axis]))
