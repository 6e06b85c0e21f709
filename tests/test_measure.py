import math

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
    perimeter,
    refinement_order,
    star_condition_diagnostic,
)


@pytest.mark.parametrize("center, r2", [
    ((0.125, -0.375), 0.5 ** 2),     # a cell center: cells at exactly r
    ((0.0, 0.0), 0.75 ** 2),         # a grid node
    ((-1.9, 1.3), 0.6 ** 2),         # window clipped by the grid edge
    ((0.3, 0.1, -0.2), 0.5 ** 2),
    ((0.125, 0.125, 0.125), 0.25 ** 2),
])
def test_grid_ball_matches_brute_force(center, r2):
    from roughgg.gridcore import Grid

    n = len(center)
    grid = Grid(n=n, spacing=0.25, origin=(-2.0,) * n, extents=(16,) * n)
    window, inside = grid.ball(center, r2)
    got = np.zeros(grid.extents, dtype=bool)
    got[window] = inside
    d2 = sum((x - c) ** 2 for x, c in zip(grid.cell_center_mesh(), center))
    assert np.array_equal(got, d2 <= r2)
    if n == 2 and center == (0.125, -0.375):
        assert (d2 == r2).sum() == 4  # the exact-distance cells count


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
    from roughgg.measure import _density_field

    n = len(shape)
    grid = Grid(n=n, spacing=1.0 / 32.0, origin=(0.0,) * n, extents=shape)
    cells = np.random.default_rng(sum(shape)).random(shape) < 0.5
    ticks = np.arange(-int(r_cells), int(r_cells) + 1)
    mesh = np.meshgrid(*[ticks] * n, indexing="ij")
    ball = (sum(m**2 for m in mesh) <= r_cells**2).astype(float)
    counts = convolve(cells.astype(float), ball, mode="same", method="direct")
    r = r_cells * grid.spacing
    expected = np.clip(counts * grid.cell_volume / (unit_ball_volume(n) * r**n), 0.0, 1.0)
    assert np.array_equal(_density_field(RoughSet(grid, cells), r), expected)


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
    assert abs(cls.density_at_finest[corner] - 0.25) < 0.1


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
    assert np.all(cls.density_at_finest[middle_row] < 0.9)


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
    assert bd.reduced.intersection_count(bd.crack_part) == 0
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
    cls = classify(rs, r_star=4.0 * grid.spacing)
    bd = boundary_decomposition(rs, cls)
    assert bd.star_measure == pytest.approx(6.0 + 0.25)
