"""Crack-respecting one-sided mollification of staggered fields.

Smoothing must not mix the two sides of a crack, or the very jump the
trace theory is about would be destroyed.  The rule is one line:
interior facets are smoothed, and crack and boundary sides keep their
values.  ``smooth_facet_values`` smooths one facet axis: it builds the
kernel, the crack planes, the plain convolution of the interior values
and the band once, then fills the interior facets.  The band is the
interior facets whose kernel window holds a non-sample (a slot off the
grid counts as one) or that lie near a crack (``_near_crack_band``).
Outside it a facet takes the plain convolution: its window holds samples
only, so the kernel's unit mass needs no renormalizing.  Inside it the
kernel is renormalized over mirror-image pairs about the facet, a pair
kept only when both members are interior samples visible from the facet
(segments crossing a crack facet are dropped).  The surviving weight set
is symmetric, so the average is second-order faithful to smooth data and
stays a convex combination (the recorded field bound never grows).

The band is summed by one per-element order and arithmetic of the pairs
(``_pair_average``): the pairs are grouped by exact kernel weight
(``_weight_classes``), the classes taken in increasing weight and the
pairs of a class in ``np.argwhere`` order; each class's kept pair sums
and its kept-pair count take the class weight once, and the centre comes
last.  The sum runs in at most two regions:

- the dense box, on dense shifted slices, testing visibility exactly by
  slabs (``_clear_crossings``) from tables built once per call in batches
  that keep the bits of a per-start test (``_crossing_tables``).  When the
  band fills at least ``_DENSE_FILL`` (one half) of its own bounding box,
  the dense box is that whole box and no facet is left to the flat
  gathers; otherwise it is the near box, the bounding box of the band's
  near-crack facets (``_dense_box``);
- the rest of the band by flat gathers, testing no visibility: a segment
  no longer than the kernel width cannot reach a crack facet from a start
  that is not near a crack.

Both regions give every facet the same bits, so the choice only moves
time: the slab test is exact for any start, near a crack or not, and
each facet's sum runs over the same pairs in the same order either way.
A band that fills its box pays less for dense slices than for a gather
per facet pair; a sparse band (a thin shell in a large box) pays more.
The plain convolution runs only when some sample lies outside the band.
"""

from __future__ import annotations

import numpy as np

from .gridcore import Grid, box_any, nonzero
from .mollify import MollifierKernel

# least share of its bounding box the band must fill to be summed there
# on dense slices as a whole (see the module docstring)
_DENSE_FILL = 0.5


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...] | None:
    """Slices of the smallest box holding every true slot, or None."""
    idx = nonzero(mask)
    if idx[0].size == 0:
        return None
    return tuple(slice(i.min(), i.max() + 1) for i in idx)


def _dense_box(band: np.ndarray, near: np.ndarray) -> tuple[slice, ...] | None:
    """The box summed on dense slices: the band's bounding box when the
    band fills at least ``_DENSE_FILL`` of it, else the bounding box of
    the band's near-crack facets (None when there are none)."""
    box = _bounding_box(band)
    if box is not None and band.sum() >= _DENSE_FILL * band[box].size:
        return box
    return _bounding_box(band & near)


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


def _spans(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a 2-D mask, the first true column and one past the last (0, 0 if none)."""
    first = mask.argmax(axis=1)
    return first, np.where(mask.any(axis=1), mask.shape[1] - mask[:, ::-1].argmax(axis=1), 0)


def _crossing_tables(grid: Grid, planes, coords: list[np.ndarray],
                     offsets: np.ndarray) -> list[list[tuple]]:
    """Per row of ``offsets`` (a mirror pair's offset in cells), the slabs
    ``_clear_crossings`` applies to a mask over the broadcast of ``coords``.

    A segment meets the plane of normal axis b at start + t * delta with
    0 < |t| < 1, and the -delta half at -t, the same point bit for bit (IEEE
    rounding is symmetric in sign).  t depends only on x_b, and the cell
    along a transverse axis a only on t and x_a, so per plane the crossings
    fill a slab (levels meeting the plane by rows reaching the crack's
    extent) indexed by a 2-D table per (delta_b, delta_a).  One numpy pass
    per plane and transverse axis builds all its tables, levels side by
    side, from the per-start expressions t = (coord - x_b) / delta_b and
    floor((x_a + t * delta_a - origin) / h): each entry keeps its bits.
    """
    h, m, tables = grid.spacing, 2 * int(np.abs(offsets).max()) + 1, [[] for _ in offsets]
    for b, coord, transverse, extent in planes:
        order = (*(a for a in range(grid.n) if a != b), b)  # the slab's axes
        live = np.flatnonzero(offsets[:, b])
        steps, step_of = np.unique(offsets[live, b], return_inverse=True)
        t = (coord - coords[b]) / (steps * h)[:, None]
        hit = (t != 0.0) & (np.abs(t) < 1.0)
        first, stop = _spans(hit)
        live, step_of = live[stop[step_of] > 0], step_of[stop[step_of] > 0]
        axes = []
        for k, a in enumerate(order[:-1]):
            # table c: step kb[c], delta_a ka[c] - m // 2 cells, ia columns start[c]:+size[c]
            code, key_of = np.unique(step_of * m + offsets[live, a], return_inverse=True)
            kb, ka = np.divmod(code + m // 2, m)
            size = stop[kb] - first[kb]
            start = np.cumsum(size) - size
            at = np.arange(size.sum()) + np.repeat(kb * t.shape[1] + first[kb] - start, size)
            xa = coords[a][:, None] + t.ravel()[at] * np.repeat((ka - m // 2) * h, size)
            ia = np.floor((xa - grid.origin[a]) / h).astype(np.int32)
            inside = (ia >= extent[k].start) & (ia < extent[k].stop)
            r0, r1 = _spans(np.logical_or.reduceat(inside, start, axis=1).T)
            # flat offsets into the padded mask: -1, past the end and t = 0 read padding
            np.clip(ia, -1, transverse.shape[k] - 1, out=ia)
            ia[:, ~hit.ravel()[at]] = -1
            ia *= transverse.strides[k]  # bytes, one per bool
            axes.append((key_of.tolist(), r0.tolist(), r1.tolist(), start.tolist(),
                         ia.reshape(ia.shape[0], *[1] * (grid.n - 2 - k), -1)))
        first, stop, clear = first.tolist(), stop.tolist(), ~transverse.ravel()
        for j, (i, s) in enumerate(zip(live.tolist(), step_of.tolist())):
            slab, idx = [], []
            for key_of, r0, r1, start, ia in axes:
                c = key_of[j]
                if r1[c] == 0:
                    break
                slab.append(slice(r0[c], r1[c]))
                idx.append(ia[r0[c]:r1[c], ..., start[c]:start[c] + stop[s] - first[s]])
            else:
                tables[i].append((order, (*slab, slice(first[s], stop[s])), clear, idx))
    return tables


def _clear_crossings(ok: np.ndarray, slabs: list[tuple]) -> None:
    """Clear the starts in ``ok`` from which the segment to start + delta
    or to start - delta crosses a crack facet, given the pair's slabs from
    ``_crossing_tables`` (built once per call for every pair, in batches,
    with the bits of a per-start test); a slab's axes are in ``order``."""
    for order, slab, clear, idx in slabs:
        ok.transpose(order)[slab] &= clear[sum(idx[1:], idx[0])]


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


def _weight_classes(pair_w: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """The mirror pairs grouped by exact weight: (weight, pair indices) per
    distinct value of ``pair_w``, in increasing weight, the pairs of a
    class in their order in ``pair_w``.  The kernel is radial, so few
    weights serve many pairs (53 for the 1,051 pairs of a 3D kernel 8
    cells wide on a power-of-two grid)."""
    order = np.argsort(pair_w, kind="stable")
    weights, first = np.unique(pair_w[order], return_index=True)
    return list(zip(weights.tolist(), np.split(order, first[1:])))


def _pair_average(pair, classes, center_w: float, centre: np.ndarray) -> np.ndarray:
    """Kernel average at targets with values ``centre``.  ``pair(i)`` gives
    mirror pair i's (kept mask, forward values, backward values) and
    ``classes`` the pairs by weight (``_weight_classes``).  Class by class,
    in increasing weight, the kept pairs' fwd + bwd are summed and counted
    in pair order, and the class weight multiplies the sum into the
    numerator and the count into the half-weight total once; the centre,
    always kept, comes last.  One set of scratch buffers serves every
    pair; a dropped pair adds +-0 and the count is exact."""
    acc_num = np.zeros(centre.shape)
    acc_half = np.zeros(centre.shape)
    total = np.empty(centre.shape)
    term = np.empty(centre.shape)
    count = np.empty(centre.shape, dtype=np.min_scalar_type(max(i.size for _, i in classes)))
    for w, members in classes:
        total.fill(0.0)
        count.fill(0)
        for i in members:
            ok, fwd, bwd = pair(i)
            np.add(fwd, bwd, out=term)
            term *= ok
            total += term
            count += ok
        total *= w
        acc_num += total
        np.multiply(count, w, out=term)
        acc_half += term
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
    planes = _crack_planes(grid, top.crack)
    # a segment no longer than eps crosses a crack only from a near start
    near = _near_crack_band(grid, axis, planes, eps)
    # off-array slots count as non-samples: a window outside the band holds samples only
    band = sample & (box_any(~sample, R, outside=True) | near)
    smoothed = kernel.smooth_cells(values) if (sample & ~band).any() else np.zeros(values.shape)

    # np.argwhere lists the symmetric support in an order that negation
    # reverses: its first half holds one offset of each mirror pair, and
    # the centre comes next.  Pairs are accumulated first, the centre last.
    support = np.argwhere(weights > 0.0)
    half = support.shape[0] // 2
    classes = _weight_classes(weights[tuple(support[:half].T)])
    center_w = weights[(R,) * grid.n]
    pair_off = support[:half] - R
    # reads from arrays padded by R: every offset stays in bounds and a
    # padded slot is never a sample
    vpad = np.pad(values, R)
    mpad = np.pad(sample, R)

    rest = band
    box = _dense_box(band, near)
    if box is not None:
        # dense shifted slices over the box, visibility by slabs
        coords = [c.ravel()[s] for c, s in zip(grid.facet_center_mesh(axis), box)]
        tables = _crossing_tables(grid, planes, coords, pair_off)
        ok = np.empty(tuple(s.stop - s.start for s in box), dtype=bool)

        def dense(i):
            off = pair_off[i]
            fwd = tuple(slice(s.start + R + o, s.stop + R + o) for s, o in zip(box, off))
            bwd = tuple(slice(s.start + R - o, s.stop + R - o) for s, o in zip(box, off))
            np.logical_and(mpad[fwd], mpad[bwd], out=ok)
            _clear_crossings(ok, tables[i])
            return ok, vpad[fwd], vpad[bwd]

        centre = vpad[tuple(slice(s.start + R, s.stop + R) for s in box)]
        inner = band[box]
        smoothed[box][inner] = _pair_average(dense, classes, center_w, centre)[inner]
        rest = band.copy()
        rest[box] = False

    if rest.any():
        # flat gathers over the rest of the band, where no segment reaches
        # a crack facet.  A start sits R slots in along each axis of the
        # padded arrays, M = R * sum(strides) past the flat index ``at`` of
        # its unpadded position, so the views that begin at M + shift and
        # M - shift are read at ``at``: no index array per pair.
        strides = np.array(vpad.strides) // vpad.itemsize
        M = R * int(strides.sum())
        vflat, mflat = vpad.ravel(), mpad.ravel()
        at = np.ravel_multi_index(nonzero(rest), vpad.shape)
        shifts = (pair_off @ strides).tolist()

        def flat(i):
            shift = shifts[i]
            fwd, bwd = slice(M + shift, None), slice(M - shift, None)
            return mflat[fwd][at] & mflat[bwd][at], vflat[fwd][at], vflat[bwd][at]

        smoothed[rest] = _pair_average(flat, classes, center_w, vflat[M:][at])
    return (np.where(sample, smoothed, F.vminus[axis]),
            np.where(sample, smoothed, F.vplus[axis]))
