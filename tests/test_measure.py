import math
import re

import numpy as np
import pytest

from roughgg.domain import RoughSet, preset_set, preset_spec
from roughgg.errors import InputError
from roughgg.gridcore import FacetArrays
from roughgg.measure import (
    ESSBOUNDARY,
    EXTERIOR,
    INTERIOR,
    ahlfors_constant,
    boundary_decomposition,
    classify,
    density,
    density_field,
    perimeter,
    refinement_order,
    star_condition_diagnostic,
)


@pytest.mark.parametrize("center, r2", [
    ((0.125, -0.375), 0.5 ** 2),     # a cell center: cells at exactly r
    ((0.0, 0.0), 0.75 ** 2),         # a grid node
    ((-1.9, 1.3), 0.6 ** 2),         # ball clipped by the grid edge
    ((0.3, 0.1, -0.2), 0.5 ** 2),
    ((0.125, 0.125, 0.125), 0.25 ** 2),
])
def test_grid_ball_matches_brute_force(center, r2):
    """``ball_count`` about a centre in cell units (off the cell lattice
    too) counts the cells whose centres lie within the ball."""
    from roughgg.gridcore import Grid, ball_count

    n = len(center)
    grid = Grid(n=n, spacing=0.25, origin=(-2.0,) * n, extents=(16,) * n)
    d2 = sum((x - c) ** 2 for x, c in zip(grid.cell_center_mesh(), center))
    at = (np.asarray(center) + 2.0) / grid.spacing - 0.5
    for cells in (np.ones(grid.extents, dtype=bool),
                  np.random.default_rng(n).random(grid.extents) < 0.5):
        got = ball_count(cells, r2 / grid.spacing**2, [at])
        assert got.tolist() == [int((cells & (d2 <= r2)).sum())]
    if n == 2 and center == (0.125, -0.375):
        assert (d2 == r2).sum() == 4  # the exact-distance cells count


def _brute_ball_count(mask, r2, points):
    slots = np.argwhere(mask)
    return np.array([int((((slots - p) ** 2).sum(axis=1) <= r2).sum()) for p in points])


@pytest.mark.parametrize("shape", [(23, 19), (11, 9, 10)], ids=["2d", "3d"])
@pytest.mark.parametrize("r2", [0.5, 25.0, 50.0, 65.0])
def test_ball_count_matches_brute_force(shape, r2):
    """Exact lattice ties (r^2 = 25, 50, 65 are sums of squares) and a
    radius below one cell, about every slot, about the array corners (where
    the ball leaves the array) and about centres off the lattice."""
    from roughgg.gridcore import ball_count

    rng = np.random.default_rng(len(shape) * 100 + int(r2))
    mask = rng.random(shape) < 0.4
    every = np.argwhere(np.ones(shape, dtype=bool))
    corners = np.argwhere(np.ones((2,) * len(shape), dtype=bool)) * (np.array(shape) - 1)
    off = rng.random((16, len(shape))) * (np.array(shape) + 4) - 2
    assert np.array_equal(ball_count(mask, r2).ravel(), _brute_ball_count(mask, r2, every))
    assert np.array_equal(ball_count(mask, r2, every), ball_count(mask, r2).ravel())
    for points in (corners, off):
        assert np.array_equal(ball_count(mask, r2, points), _brute_ball_count(mask, r2, points))


@pytest.mark.parametrize("n", [2, 3])
def test_ball_count_about_no_points_is_empty(n):
    """No centres give no counts, in ``ball_count`` and ``density_field``
    alike, rather than numpy's zero-size reduction error."""
    from roughgg.gridcore import Grid, ball_count

    grid = Grid(n=n, spacing=0.25, origin=(-2.0,) * n, extents=(16,) * n)
    cells = np.ones(grid.extents, dtype=bool)
    got = ball_count(cells, 4.0, np.zeros((0, n)))
    assert got.shape == (0,) and got.dtype == ball_count(cells, 4.0, np.zeros((1, n))).dtype
    assert density_field(RoughSet(grid, cells), 0.5, np.zeros((0, n))).shape == (0,)


def test_density_deep_interior(square_32):
    d = density(square_32, (0.1, -0.2), 8 * square_32.grid.spacing)
    assert d == pytest.approx(1.0, abs=0.01)  # lattice-count wobble only


def test_density_halfplane_edge():
    set_ = preset_set("square", 1.0 / 32.0, margin_cells=24)
    r = 16 * set_.grid.spacing
    d = density(set_, (0.0, -1.0), r)
    assert abs(d - 0.5) <= 2.0 / 16.0


def test_density_on_slit_is_interior(slit_square_64):
    r = 16 * slit_square_64.grid.spacing
    d = density(slit_square_64, (0.25, 0.0), r)
    assert d > 0.95  # the slit is volume-null


def test_density_errors(square_32):
    dx = square_32.grid.spacing
    with pytest.raises(InputError):
        density(square_32, (0.0, 0.0), dx)  # radius below two cells
    with pytest.raises(InputError):
        density(square_32, (1.0, 1.0), 10.0)  # ball exits the grid


@pytest.mark.parametrize("center", [(0, 0, 0), (0.0,), [[0, 0]]], ids=["3", "1", "1x2"])
def test_density_refuses_a_center_of_the_wrong_shape(square_32, center):
    shape = np.shape(center)
    with pytest.raises(InputError, match="^density center of shape " + re.escape(str(shape))):
        density(square_32, center, 0.5)


@pytest.mark.parametrize("name, spacing, k", [("slit-disk", 1.0 / 64.0, None),
                                              ("cantor-cross", 1.0 / 36.0, 2)],
                         ids=["slit-disk", "cantor-k2"])
@pytest.mark.parametrize("multiple", [5.0, 6.5, 8.0])
def test_density_at_cell_centres_matches_classify(name, spacing, k, multiple):
    """``density`` and ``density_field``, which ``classify`` reads at 8
    spacings, use one ball rule: at every cell whose ball stays in the grid
    the two give the same value."""
    set_ = preset_set(name, spacing, k=k)
    grid = set_.grid
    r = multiple * grid.spacing
    field = density_field(set_, r)
    if multiple == 8.0:
        # the overrides set only interior and exterior labels
        cls = classify(set_)
        ess = cls.labels == ESSBOUNDARY
        assert cls.r_star == r and ess.any()
        assert np.all((field[ess] > cls.tau) & (field[ess] < 1.0 - cls.tau))
    lo, hi = grid.bounds()
    idx = np.argwhere(np.ones(grid.extents, dtype=bool))
    centers = lo + (idx + 0.5) * grid.spacing
    inside = np.all((centers - r >= lo) & (centers + r <= hi), axis=1)
    idx, centers = idx[inside], centers[inside]
    assert len(idx) > grid.extents[0]
    assert [density(set_, c, r) for c in centers] == field[tuple(idx.T)].tolist()


@pytest.mark.parametrize("center, r", [((0.0, 0.0), math.nan), ((0.0, 0.0), math.inf),
                                       ((math.nan, 0.0), 0.5)])
def test_density_refuses_a_non_finite_ball(square_32, center, r):
    with pytest.raises(InputError, match="is not finite$"):
        density(square_32, center, r)


def test_classify_full_box_ring(square_32):
    cls = classify(square_32)
    labels = cls.labels
    cells = square_32.cells
    # a boundary band is essential boundary, the deep interior is interior
    assert np.all(labels[~cells & ~_near(square_32, cells)] == EXTERIOR)
    inner = _erode(cells, 2)
    assert np.all(labels[inner] == INTERIOR)
    ring = cells & ~_erode(cells, 1)
    assert np.all(labels[ring] == ESSBOUNDARY)


def _erode(mask, steps):
    from scipy import ndimage

    return ndimage.binary_erosion(mask, np.ones((3, 3), bool), iterations=steps)


def _near(set_, mask):
    from scipy import ndimage

    return ndimage.binary_dilation(mask, np.ones((3, 3), bool),
                                   iterations=int(set_.grid.extents[0] // 4))


@pytest.mark.parametrize("shape, r_cells", [
    ((47, 40), 8.0), ((41, 38), 5.5), ((21, 19, 18), 4.0), ((17, 16, 15), 3.5),
], ids=["2d-8", "2d-5.5", "3d-4", "3d-3.5"])
def test_density_counts_are_exact(shape, r_cells):
    """The ball counts behind the density field are the direct integer
    counts, so FFT roundoff cannot move a label across a threshold."""
    from scipy.signal import convolve

    from roughgg.gridcore import Grid, unit_ball_volume
    from roughgg.measure import density_field

    n = len(shape)
    grid = Grid(n=n, spacing=1.0 / 32.0, origin=(0.0,) * n, extents=shape)
    cells = np.random.default_rng(sum(shape)).random(shape) < 0.5
    ticks = np.arange(-int(r_cells), int(r_cells) + 1)
    mesh = np.meshgrid(*[ticks] * n, indexing="ij")
    ball = (sum(m**2 for m in mesh) <= r_cells**2).astype(float)
    counts = convolve(cells.astype(float), ball, mode="same", method="direct")
    r = r_cells * grid.spacing
    expected = np.clip(counts * grid.cell_volume / (unit_ball_volume(n) * r**n), 0.0, 1.0)
    assert np.array_equal(density_field(RoughSet(grid, cells), r), expected)


def test_classify_partition(slit_square_64):
    cls = classify(slit_square_64)
    assert cls.count(INTERIOR) + cls.count(ESSBOUNDARY) + cls.count(EXTERIOR) \
        == int(np.prod(slit_square_64.grid.extents))


def test_classify_quarter_plane_corner():
    set_ = preset_set("square", 1.0 / 64.0, margin_cells=4)
    cls = classify(set_)
    # the body-side corner cell sees about a quarter of the ball
    idx = np.argwhere(set_.cells)
    corner = tuple(idx.min(axis=0))
    assert cls.labels[corner] == ESSBOUNDARY
    assert abs(density_field(set_, 8.0 * set_.grid.spacing)[corner] - 0.25) < 0.1


def test_classify_slit_adjacent_interior(slit_square_64):
    cls = classify(slit_square_64)
    grid = slit_square_64.grid
    for a in range(2):
        mask = slit_square_64.cracks.masks[a]
        for i in np.argwhere(mask):
            lo = list(i)
            lo[a] -= 1
            assert cls.labels[tuple(lo)] == INTERIOR
            assert cls.labels[tuple(i)] == INTERIOR


def test_classify_tau_range_stable(slit_square_64):
    reference = classify(slit_square_64, tau=0.05).labels
    for tau in (0.02, 0.1):
        labels = classify(slit_square_64, tau=tau).labels
        # the three-ring structure is tau-independent on this geometry
        assert np.array_equal(labels == INTERIOR, reference == INTERIOR)


def test_classify_thin_strip_override():
    # a 3-cell-wide bar: interior cells are density-thin at the reference
    # radius, but openness forces the fully surrounded cells interior
    import json

    from roughgg.domain import make_grid, parse_domain, rasterize

    spec = parse_domain(json.dumps(
        {"shape": {"op": "box", "min": [0.0, 0.0], "max": [4.0, 0.1875]}}
    ))
    grid = make_grid(spec, 1.0 / 16.0, margin_cells=10)
    rs = rasterize(spec, grid)
    cls = classify(rs)
    middle_row = rs.cells & _erode(rs.cells, 1)
    assert middle_row.any()
    assert np.all(cls.labels[middle_row] == INTERIOR)
    assert np.all(density_field(rs, 8.0 * grid.spacing)[middle_row] < 0.9)


def test_duality_exterior_is_complement_interior(square_32):
    grid = square_32.grid
    cls = classify(square_32)
    comp = RoughSet(grid, ~square_32.cells)
    cls_c = classify(comp)
    # compare away from the grid edge where the window bias differs
    margin = 10
    sl = tuple(slice(margin, e - margin) for e in grid.extents)
    assert np.array_equal(
        (cls.labels == EXTERIOR)[sl], (cls_c.labels == INTERIOR)[sl]
    )


def test_boundary_decomposition_slit(slit_square_64):
    bd = boundary_decomposition(slit_square_64, classify(slit_square_64))
    assert abs(bd.star_measure - 10.0) <= 0.03 * 10.0
    assert bd.crack_measure == 2.0
    assert not any((r & c).any() for r, c in zip(bd.reduced.masks, bd.crack_part.masks))
    assert not bd.exterior_part.any()


def test_boundary_decomposition_box_no_crack(square_32):
    bd = boundary_decomposition(square_32, classify(square_32))
    assert bd.crack_part.count() == 0
    assert abs(bd.reduced_measure - 8.0) < 1e-9


def test_perimeter_square():
    set_ = preset_set("square", 1.0 / 256.0, margin_cells=8)
    p = perimeter(set_.grid, set_.cells, 4.0 * set_.grid.spacing)
    assert abs(p - 8.0) <= 0.02 * 8.0


def test_perimeter_disk_two_percent():
    set_ = preset_set("disk", 1.0 / 256.0, margin_cells=8)
    p = perimeter(set_.grid, set_.cells, 4.0 * set_.grid.spacing)
    assert abs(p - 2.0 * math.pi) <= 0.02 * 2.0 * math.pi


def test_perimeter_disk_monotone_refinement():
    # pre-asymptotic ladder at a fixed width ratio: the curvature error
    # dominates and halving the spacing shrinks it at first order or better
    errs = []
    for denom in (32, 64, 128):
        set_ = preset_set("disk", 1.0 / denom, margin_cells=12)
        p = perimeter(set_.grid, set_.cells, 8.0 * set_.grid.spacing)
        errs.append(abs(p - 2.0 * math.pi))
    assert errs[0] > errs[1] > errs[2]
    slope = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_perimeter_empty_and_errors(square_32):
    grid = square_32.grid
    assert perimeter(grid, np.zeros(grid.extents, bool), 4 * grid.spacing) == 0.0
    with pytest.raises(InputError):
        perimeter(grid, square_32.cells, grid.spacing)


def test_perimeter_complement_symmetry():
    # with 8 cells of margin the square's and the grid edge's gradient
    # supports are disjoint, so the complement's perimeter splits into both
    square = preset_set("square", 1.0 / 32.0, margin_cells=8)
    grid = square.grid
    eps = 4 * grid.spacing
    comp = RoughSet(grid, ~square.cells)
    assert abs(
        perimeter(grid, square.cells, eps)
        - (perimeter(grid, comp.cells, eps)
           - perimeter(grid, np.ones(grid.extents, bool), eps))
    ) < 1e-9


def test_ahlfors_straight_segment():
    set_ = preset_set("slit-disk", 1.0 / 128.0)
    dx = set_.grid.spacing
    rep = ahlfors_constant(set_.grid, set_.cracks, radii=[16 * dx, 32 * dx, 64 * dx])
    assert abs(rep.constant - 2.0) <= 0.2
    assert rep.constant == max(r for (_c, _r, r) in rep.witnesses)


def test_ahlfors_square_boundary_brute_force():
    set_ = preset_set("square", 1.0 / 64.0)
    red = FacetArrays(set_.grid, set_.topology.boundary)
    dx = set_.grid.spacing
    radii = [8 * dx, 16 * dx, 32 * dx, 1.0, 2.0]
    rep = ahlfors_constant(set_.grid, red, radii=radii)  # exhaustive centers
    # oracle: independent brute force over all centers and radii
    centers = red.centers()
    best = 0.0
    for r in radii:
        for c in centers:
            count = int((np.linalg.norm(centers - c, axis=1) <= r).sum())
            best = max(best, count * dx / r)
    assert rep.constant == pytest.approx(best)
    assert rep.constant <= 4.0 + 0.1


def test_ahlfors_monotone_in_facets():
    set_ = preset_set("slit-square", 1.0 / 32.0)
    dx = set_.grid.spacing
    red = FacetArrays(set_.grid, set_.topology.boundary)
    small = set_.cracks
    big = small.union(red)
    radii = [8 * dx, 16 * dx]
    c_small = ahlfors_constant(set_.grid, small, radii=radii).constant
    c_big = ahlfors_constant(set_.grid, big, radii=radii).constant
    assert c_big >= c_small
    with pytest.raises(InputError):
        ahlfors_constant(set_.grid, FacetArrays(set_.grid), radii=radii)


@pytest.mark.parametrize("radii, message", [
    ([], "^Ahlfors estimation needs at least one radius$"),
    ([math.nan], r"^Ahlfors radii \[nan\] are not all finite$"),
    ([0.5, math.inf], r"^Ahlfors radii \[0.5, inf\] are not all finite$"),
], ids=["empty", "nan", "inf"])
def test_ahlfors_refuses_empty_or_non_finite_radii(radii, message):
    set_ = preset_set("slit-square", 1.0 / 32.0)
    with pytest.raises(InputError, match=message):
        ahlfors_constant(set_.grid, set_.cracks, radii=radii)


def _exact_ahlfors(grid, facets, multiples):
    """The report of ``ahlfors_constant`` at radii ``m * spacing``, counted
    exactly: facet centres in doubled integer coordinates, closed balls."""
    doubled = np.concatenate([2 * np.argwhere(mask) + 1 - np.eye(grid.n, dtype=int)[a]
                              for a, mask in enumerate(facets.masks)])
    sq = ((doubled[:, None, :] - doubled[None, :, :]) ** 2).sum(axis=2)
    centers = facets.centers()
    witnesses = []
    for m in multiples:
        r = m * grid.spacing
        ratios = (sq <= 4 * m * m).sum(axis=1) * grid.facet_area / r ** (grid.n - 1)
        j = int(np.argmax(ratios))
        witnesses.append((tuple(float(v) for v in centers[j]), r, float(ratios[j])))
    return max(w[2] for w in witnesses), witnesses


@pytest.mark.parametrize("name, spacing, k, multiples", [
    ("square", 1.0 / 64.0, None, [4, 8, 16, 32, 64, 128]),
    ("slit-disk", 1.0 / 128.0, None, [4, 16, 32, 64]),
    ("cantor-cross", 1.0 / 12.0, 1, [4, 8, 16]),
    ("cantor-cross", 1.0 / 36.0, 2, [4, 8, 16, 32, 64]),
    ("cantor-cross", 1.0 / 108.0, 3, [4, 8, 16, 32, 64, 128]),
], ids=["square", "slit-disk", "cantor-k1", "cantor-k2", "cantor-k3"])
def test_ahlfors_counts_match_an_exact_integer_count(name, spacing, k, multiples):
    """A facet at distance exactly r counts (cantor-cross k=1 reads 5.375)."""
    set_ = preset_set(name, spacing, k=k)
    facets = set_.cracks if set_.cracks.count() else FacetArrays(set_.grid,
                                                                  set_.topology.boundary)
    rep = ahlfors_constant(set_.grid, facets, [m * spacing for m in multiples])
    assert (rep.constant, rep.witnesses) == _exact_ahlfors(set_.grid, facets, multiples)
    if k == 1:
        assert rep.constant == 5.375


def test_ahlfors_cantor_growth():
    # dyadic radii down to the generation scale: the constant grows
    values = []
    for k in (1, 2, 3):
        set_ = preset_set("cantor-cross", 3.0 ** (-k) / 4.0, k=k)
        radii = []
        r = 3.0 ** (-k)
        while r <= 2.0:
            radii.append(r)
            r *= 2.0
        rep = ahlfors_constant(set_.grid, set_.cracks, radii=radii)
        values.append(rep.constant)
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("p", [-0.75, 0.5, 1.0, 2.46])
def test_refinement_order_fits_a_power_law(p):
    scales = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    gaps = [3.0 * s**p for s in scales]
    want = np.polyfit(np.log(scales), np.log(gaps), 1)[0]
    assert abs(refinement_order(scales, gaps) - p) <= 1e-12
    assert abs(refinement_order(scales, gaps) - want) <= 1e-12


def test_refinement_order_is_none_at_roundoff():
    assert refinement_order([4.0, 2.0, 1.0], [0.0, 1e-300, 1e-250]) is None
    assert refinement_order([4.0, 2.0, 1.0], [0.0, 0.0, 2e-250]) is not None


def test_star_diagnostic_slopes():
    flat = star_condition_diagnostic(preset_spec("slit-square"),
                                     [1 / 32, 1 / 64, 1 / 128])
    assert abs(flat.slope) < 0.05
    disk = star_condition_diagnostic(preset_spec("disk"), [1 / 32, 1 / 64, 1 / 128])
    assert abs(disk.slope) < 0.05
    cantor = star_condition_diagnostic(preset_spec("cantor-cross", k=2),
                                       [3.0 ** (-k) for k in (2, 3, 4)])
    target = math.log(4.0 / 3.0) / math.log(3.0)
    assert abs(cantor.slope - target) <= 0.05
    with pytest.raises(InputError):
        star_condition_diagnostic(preset_spec("disk"), [1 / 32, 1 / 64])


def test_three_dimensional_classify_and_boundary():
    import json

    from roughgg.domain import make_grid, parse_domain, rasterize

    doc = json.dumps(
        {
            "shape": {"op": "box", "min": [0, 0, 0], "max": [1, 1, 1]},
            "cracks": [{"rect": [[0.25, 0.25, 0.5], [0.75, 0.75, 0.5]]}],
        }
    )
    spec = parse_domain(doc)
    grid = make_grid(spec, 1.0 / 8.0, margin_cells=2)
    rs = rasterize(spec, grid)
    cls = classify(rs)
    bd = boundary_decomposition(rs, cls)
    assert bd.star_measure == pytest.approx(6.0 + 0.25)
