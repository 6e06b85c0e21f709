"""One-sided mollification against a reference that runs the visibility
test on every band point and both halves of every mirror pair, and the
slab crossing test at the edges of its reach."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughgg import mollify, onesided
from roughgg.dmfield import mollify_field, sample_field
from roughgg.domain import (PRESET_NAMES, RoughSet, make_grid, parse_domain, preset_set,
                            rasterize)
from roughgg.fields import seeded_trig_field
from roughgg.gridcore import Grid, box_any
from roughgg.mollify import MollifierKernel, convolve_same, smooth_cells_masked
from roughgg.onesided import (_bounding_box, _clear_crossings, _crack_planes,
                              _crossing_tables, _dense_box, _near_crack_band,
                              _weight_classes, smooth_facet_values)

from conftest import cracked_domains, random_facet_noise


def _reference_blocked(grid, planes, starts, delta):
    """Does the one segment start -> start + delta cross a crack facet?"""
    blocked = np.zeros(starts[0].shape, dtype=bool)
    for b, coord, transverse, _ in planes:
        if delta[b] == 0.0:
            continue
        t = (coord - starts[b]) / delta[b]
        hit = (t > 0.0) & (t < 1.0)
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


def _reference_smooth(F, eps, axis):
    """The mirror-pair loop with the visibility test on every band point."""
    grid, top = F.grid, F.topology
    kernel = MollifierKernel(eps, grid)
    weights, R = kernel.weights, kernel.radius_cells
    sample = top.interior[axis]
    values = np.where(sample, F.vminus[axis], 0.0)
    smoothed = convolve_same(values, weights)
    planes = _crack_planes(grid, top.crack)
    band = sample & (box_any(~sample, R, outside=True)
                     | _near_crack_band(grid, axis, planes, eps))
    support = np.argwhere(weights > 0.0)
    half = support.shape[0] // 2
    pair_off = support[:half] - R
    pair_w = weights[tuple(support[:half].T)]
    vpad = np.pad(values, R)
    strides = np.array(vpad.strides) // vpad.itemsize
    vpad = vpad.ravel()
    mpad = np.pad(sample, R).ravel()
    base = (np.argwhere(band) + R) @ strides
    points = [np.broadcast_to(c, values.shape)[band] for c in grid.facet_center_mesh(axis)]
    acc_num = np.zeros(base.shape[0])
    acc_half = np.zeros(base.shape[0])
    # per weight class in increasing weight, its pairs in np.argwhere order
    for w in np.unique(pair_w):
        total = np.zeros(base.shape[0])
        count = np.zeros(base.shape[0])
        for off in pair_off[pair_w == w]:
            shift = off @ strides
            ok = mpad[base + shift] & mpad[base - shift]
            for d in (off * grid.spacing, -off * grid.spacing):
                ok &= ~_reference_blocked(grid, planes, points, d)
            okf = ok.astype(float)
            total += (vpad[base + shift] + vpad[base - shift]) * okf
            count += okf
        acc_num += w * total
        acc_half += w * count
    center_w = weights[(R,) * grid.n]
    smoothed[band] = (acc_num + center_w * vpad[base]) / (2.0 * acc_half + center_w)
    return (np.where(sample, smoothed, F.vminus[axis]),
            np.where(sample, smoothed, F.vplus[axis]))


def _mollify_as_reference(F, mults):
    """``mollify_field(F, mult * dx)`` for each mult, each checked bit for
    bit against the reference loop."""
    out = []
    for mult in mults:
        eps = mult * F.grid.spacing
        got = mollify_field(F, eps)
        for a in range(F.grid.n):
            vminus, vplus = _reference_smooth(F, eps, a)
            assert np.array_equal(got.vminus[a], vminus)
            assert np.array_equal(got.vplus[a], vplus)
        assert got.sup_bound == F.sup_bound
        out.append(got)
    return out


def _slit_cube(half_section: bool, denom: int = 8):
    r = 0.5 if half_section else 1.0
    spec = parse_domain(json.dumps({
        "shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
        "cracks": [{"rect": [[-r, -r, 0.0], [r, r, 0.0]]}],
    }))
    return rasterize(spec, make_grid(spec, 1.0 / denom, margin_cells=4))


# on the 1/8 cubes an 8 dx kernel is wider than the 16-cell body; on the
# 1/12 half-section cube a 6 dx kernel spans the crack's rim to the side
# faces.  The band fills at least half its bounding box, which is then
# summed on dense slices as a whole, on slit-square-32 at 8 dx and on the
# 1/8 and 1/12 cubes; the other cases, the 1/16 cube at 2 dx (fill 0.43)
# among them, sum the near box densely and the rest by flat gathers.
@pytest.mark.parametrize("domain, mults", [
    ("slit-square-32", (8, 4, 2)),
    ("cantor-cross-36", (8, 4, 2)),
    ("slit-cube-half-8", (4, 2)),
    ("slit-cube-full-8", (4, 2)),
    ("slit-cube-half-12", (6,)),
    ("slit-cube-half-16", (2,)),
])
def test_mollify_matches_reference(domain, mults, slit_square_32):
    set_ = {"slit-square-32": lambda: slit_square_32,
            "cantor-cross-36": lambda: preset_set("cantor-cross", 1.0 / 36.0, k=2,
                                                  margin_cells=4),
            "slit-cube-half-8": lambda: _slit_cube(True),
            "slit-cube-full-8": lambda: _slit_cube(False),
            "slit-cube-half-12": lambda: _slit_cube(True, 12),
            "slit-cube-half-16": lambda: _slit_cube(True, 16)}[domain]()
    _mollify_as_reference(sample_field(seeded_trig_field(1), set_, 1.0), mults)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(set_=cracked_domains(), seed=st.integers(0, 2**16))
def test_mollify_matches_reference_on_random_cracked_domains(set_, seed):
    F = random_facet_noise(set_, seed=seed)
    top = set_.topology
    for Fe in _mollify_as_reference(F, (8, 4, 2) if set_.grid.n == 2 else (4, 2)):
        for a in range(set_.grid.n):
            keep = ~top.interior[a]
            assert np.array_equal(Fe.vminus[a][keep], F.vminus[a][keep])
            assert np.array_equal(Fe.vplus[a][keep], F.vplus[a][keep])
            # a renormalized convex average, up to its rounding
            for new, old in ((Fe.vminus[a], F.vminus[a]), (Fe.vplus[a], F.vplus[a])):
                assert np.abs(new).max() <= np.abs(old).max() * (1.0 + 1e-12)
        assert Fe.sup_bound <= F.sup_bound


def _per_pair_average(pair, classes, center_w, centre):
    """The pair sum before weight classes: pairs in np.argwhere order,
    each weighted by its own w * ok, the half weights summed per pair."""
    acc_num = np.zeros(centre.shape)
    acc_half = np.zeros(centre.shape)
    for i, w in sorted((int(i), w) for w, members in classes for i in members):
        ok, fwd, bwd = pair(i)
        okw = ok * w
        acc_num += (fwd + bwd) * okw
        acc_half += okw
    return (acc_num + center_w * centre) / (2.0 * acc_half + center_w)


@pytest.mark.parametrize("domain, mults", [
    ("slit-cube-half-16", (8,)),
    ("slit-square-64", (8, 4, 2)),
], ids=["slit-cube-half-16", "slit-square-64"])
def test_class_sums_drift_by_rounding_only(domain, mults, slit_square_64):
    """Summing per weight class moves each mollified value from the
    per-pair sum by rounding alone, on both sides of every axis."""
    set_ = slit_square_64 if domain == "slit-square-64" else _slit_cube(True, 16)
    F = sample_field(seeded_trig_field(1), set_, 1.0)
    for mult in mults:
        eps = mult * set_.grid.spacing
        got = mollify_field(F, eps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(onesided, "_pair_average", _per_pair_average)
            want = mollify_field(F, eps)
        drift = max(np.abs(g - w).max() for side in ("vminus", "vplus")
                    for g, w in zip(getattr(got, side), getattr(want, side)))
        assert drift <= 1e-14 * F.sup_bound


@pytest.mark.parametrize("n, spacing, pairs, classes", [
    (2, 1.0 / 64.0, (96, 22, 4), (28, 8, 2)),
    (3, 1.0 / 16.0, (1051, 125, 13), (53, 13, 3)),
], ids=["2d", "3d"])
def test_kernel_pair_and_class_counts(n, spacing, pairs, classes):
    """The work of one pair sum at 8, 4 and 2 spacings: mirror pairs
    summed per band point, and weight classes multiplied."""
    grid = Grid(n=n, spacing=spacing, origin=(0.0,) * n, extents=(8,) * n)
    got_pairs, got_classes = [], []
    for mult in (8, 4, 2):
        weights = MollifierKernel(mult * spacing, grid).weights
        support = np.argwhere(weights > 0.0)
        grouped = _weight_classes(weights[tuple(support[:support.shape[0] // 2].T)])
        got_pairs.append(sum(members.size for _, members in grouped))
        got_classes.append(len(grouped))
    assert (tuple(got_pairs), tuple(got_classes)) == (pairs, classes)


@pytest.mark.parametrize("extents", [(24, 20), (14, 12, 10)])
def test_constant_field_stays_constant_on_a_set_reaching_the_grid_edge(extents):
    """A set whose cells fill the grid, like the box set of
    ``extend_by_zero``, has interior facets whose window reaches off the
    array.  Those slots count as non-samples, so such facets lie in the
    band: a constant field stays constant and every value keeps the
    reference's bits."""
    grid = Grid(n=len(extents), spacing=1.0 / 16.0, origin=(0.0,) * len(extents),
                extents=extents)
    F = sample_field(np.ones_like, RoughSet(grid, np.ones(extents, dtype=bool)), 1.0)
    for G in _mollify_as_reference(F, (8, 4, 2)):
        for a in range(grid.n):
            inner = F.topology.interior[a]
            assert np.abs(G.vminus[a][inner] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("domain, mult, whole", [
    ("slit-cube-half-8", 4, True),   # the band fills 0.98-1.00 of its box
    ("slit-square-32", 4, False),    # a shell filling 0.37 of its box
])
def test_dense_box_is_the_band_box_only_when_the_band_fills_it(domain, mult, whole,
                                                               slit_square_32):
    set_ = slit_square_32 if domain == "slit-square-32" else _slit_cube(True)
    grid, top = set_.grid, set_.topology
    eps = mult * grid.spacing
    R = MollifierKernel(eps, grid).radius_cells
    planes = _crack_planes(grid, top.crack)
    for a in range(grid.n):
        near = _near_crack_band(grid, a, planes, eps)
        band = top.interior[a] & (box_any(~top.interior[a], R, outside=True) | near)
        band_box, near_box = _bounding_box(band), _bounding_box(band & near)
        # the two candidates differ, so the choice is seen
        assert band_box != near_box
        assert _dense_box(band, near) == (band_box if whole else near_box)


def test_blocked_at_the_edges_of_reach():
    """A crack on y = 0 for x in [-1/2, 1/2] and the offset (0, 1/4): a
    start exactly 1/4 from the plane (t = -1) or on it (t = 0) is not
    blocked, one a rounding step inside reach is, on either side, and one
    whose crossing misses the crack's extent is not.  The slab test runs on
    the box of all (x, y) pairs of the starts' coordinates and agrees with
    the per-start reference on every one."""
    spec = parse_domain(json.dumps({
        "shape": {"op": "box", "min": [-1, -1], "max": [1, 1]},
        "cracks": [{"seg": [[-0.5, 0.0], [0.5, 0.0]]}],
    }))
    set_ = rasterize(spec, make_grid(spec, 1.0 / 8.0, margin_cells=4))
    planes = _crack_planes(set_.grid, set_.topology.crack)
    assert [(b, coord) for b, coord, *_ in planes] == [(1, 0.0)]
    delta = np.array([0.0, 0.25])
    inside = np.nextafter(0.25, 0.0)
    ys = np.array([0.25, -0.25, 0.0, inside, -inside, np.nextafter(0.25, 1.0), inside])
    xs = np.array([0.0625] * 6 + [0.75])
    ok = np.ones((xs.size, ys.size), dtype=bool)
    _clear_crossings(ok, _crossing_tables(set_.grid, planes, [xs, ys], np.array([[0, 2]]))[0])
    got = ~ok
    assert np.diagonal(got).tolist() == [False, False, False, True, True, False, False]
    starts = [c.ravel() for c in np.meshgrid(xs, ys, indexing="ij")]
    want = (_reference_blocked(set_.grid, planes, starts, delta)
            | _reference_blocked(set_.grid, planes, starts, -delta))
    assert np.array_equal(got.ravel(), want)


def _two_rect_box():
    """The box [-1, 1]^3 at 1/8 with a crack in z = 0 and one in x = 1/4."""
    spec = parse_domain(json.dumps({
        "shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
        "cracks": [{"rect": [[-0.5, -0.5, 0.0], [0.5, 0.5, 0.0]]},
                   {"rect": [[0.25, -0.75, -0.5], [0.25, 0.25, 0.75]]}],
    }))
    return rasterize(spec, make_grid(spec, 1.0 / 8.0, margin_cells=4))


@pytest.mark.parametrize("domain, mult", [("cantor-cross-36", 8), ("two-rect-box-8", 4)])
def test_crossing_tables_match_the_per_start_reference(domain, mult):
    """The tables of one call, built in batches for every mirror pair, clear
    exactly the starts of the call's dense box from which either half of
    the pair crosses a crack facet by the per-start reference."""
    set_ = (preset_set("cantor-cross", 1.0 / 36.0, k=2, margin_cells=4)
            if domain == "cantor-cross-36" else _two_rect_box())
    grid, top = set_.grid, set_.topology
    eps = mult * grid.spacing
    kernel = MollifierKernel(eps, grid)
    weights, R = kernel.weights, kernel.radius_cells
    planes = _crack_planes(grid, top.crack)
    normals = {b for b, *_ in planes}
    assert normals == ({0, 1} if grid.n == 2 else {0, 2})
    assert len(planes) == (16 if grid.n == 2 else 2)
    support = np.argwhere(weights > 0.0)
    pair_off = support[:support.shape[0] // 2] - R
    for axis in range(grid.n):
        near = _near_crack_band(grid, axis, planes, eps)
        band = top.interior[axis] & (box_any(~top.interior[axis], R, outside=True) | near)
        box = _dense_box(band, near)
        coords = [c.ravel()[s] for c, s in zip(grid.facet_center_mesh(axis), box)]
        starts = [c.ravel() for c in np.meshgrid(*coords, indexing="ij")]
        tables = _crossing_tables(grid, planes, coords, pair_off)
        cleared = 0
        for off, slabs in zip(pair_off, tables):
            ok = np.ones(tuple(c.size for c in coords), dtype=bool)
            _clear_crossings(ok, slabs)
            delta = off * grid.spacing
            want = (_reference_blocked(grid, planes, starts, delta)
                    | _reference_blocked(grid, planes, starts, -delta))
            assert np.array_equal(~ok.ravel(), want)
            cleared += int(want.sum())
        # the pairs do cross cracks, so the comparison is not vacuous
        assert cleared > 0


def _drift_within_rounding(F):
    """At every ladder width and axis, the plain convolution stays within
    1e-14 of the field bound of the form renormalized by the sample mask's
    convolution at every plain-path slot (a sample outside the band):
    there the window holds samples only, so that denominator is 1 up to
    rounding.  Band values are pinned bit for bit by the reference tests.
    Returns the number of plain-path values compared."""
    grid, plain_count = F.grid, 0
    planes = _crack_planes(grid, F.topology.crack)
    for mult in (8, 4, 2):
        eps = mult * grid.spacing
        kernel = MollifierKernel(eps, grid)
        for a in range(grid.n):
            sample = F.topology.interior[a]
            values = np.where(sample, F.vminus[a], 0.0)
            plain = (sample & ~box_any(~sample, kernel.radius_cells, outside=True)
                     & ~_near_crack_band(grid, a, planes, eps))
            plain_count += int(plain.sum())
            drift = kernel.smooth_cells(values) - smooth_cells_masked(kernel, values, sample)
            assert np.abs(drift[plain]).max(initial=0.0) <= 1e-14 * F.sup_bound
    return plain_count


@pytest.mark.parametrize("domain", [*PRESET_NAMES, "slit-cube-half-8", "slit-cube-full-8"])
def test_plain_path_drifts_by_rounding_only(domain):
    set_ = (_slit_cube(domain == "slit-cube-half-8") if domain.startswith("slit-cube")
            else preset_set(domain, 1.0 / 32.0, margin_cells=4))
    plain_count = _drift_within_rounding(sample_field(seeded_trig_field(1), set_, 1.0))
    # the comparison is not vacuous: some sample takes the plain path
    assert plain_count > 0


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(set_=cracked_domains(), seed=st.integers(0, 2**16))
def test_plain_path_drifts_by_rounding_only_on_random_cracked_domains(set_, seed):
    _drift_within_rounding(random_facet_noise(set_, seed=seed))


@pytest.mark.parametrize("domain, mult, plain", [
    ("slit-square-32", 8, True), ("slit-square-32", 2, True), ("cantor-cross-36", 4, True),
    ("slit-cube-half-16", 2, True),
    ("slit-cube-half-8", 8, False),  # the band covers every sample
])
def test_one_convolved_array_per_call(domain, mult, plain, slit_square_32):
    """Each call convolves the interior values alone, or nothing when no
    sample lies outside the band; a second array (the sample mask) would
    bring back the transforms the plain path saves."""
    set_ = {"slit-square-32": lambda: slit_square_32,
            "cantor-cross-36": lambda: preset_set("cantor-cross", 1.0 / 36.0, k=2,
                                                  margin_cells=4),
            "slit-cube-half-8": lambda: _slit_cube(True),
            "slit-cube-half-16": lambda: _slit_cube(True, 16)}[domain]()
    F = sample_field(seeded_trig_field(1), set_, 1.0)
    convolved = []

    def counting(values, weights):
        convolved.append(len(values) if isinstance(values, list) else 1)
        return convolve_same(values, weights)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mollify, "convolve_same", counting)
        for a in range(set_.grid.n):
            smooth_facet_values(F, mult * set_.grid.spacing, a)
    assert convolved == ([1] * set_.grid.n if plain else [])
