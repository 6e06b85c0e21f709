import functools
import json
import math

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from roughgg.approx import (
    EXTERIOR_HALF_DENSITY,
    STAR_COVER,
    BallCover,
    _facet_cover,
    _half_density_balls,
    _remove_balls,
    approximation_sweep,
    audit_cover,
    cantor_generation_sweep,
    interior_approximation,
)
from roughgg.domain import RoughSet, make_grid, parse_domain, preset_set, rasterize
from roughgg.errors import InputError, InvariantViolation
from roughgg.gridcore import FacetArrays, Grid, _stencil, lattice_reach, touching
from roughgg.measure import EXTERIOR, boundary_decomposition, classify, density


@pytest.fixture(scope="module")
def slit_256():
    return preset_set("slit-square", 1.0 / 256.0, margin_cells=4)


def _targets(set_):
    """The facets the star cover must cover: the set's cracks and reduced facets."""
    top = set_.topology
    return FacetArrays(set_.grid, [c | b for c, b in zip(top.crack, top.boundary)])


def test_interior_approximation_square():
    set_ = preset_set("square", 1.0 / 128.0, margin_cells=4)
    rep = interior_approximation(set_, 1.0 / 8.0)
    assert rep.e_cells.any()
    assert rep.ratio <= 4.0
    assert rep.removed_volume <= 8.0 * (1.0 / 8.0) * 3.0  # C * delta
    assert rep.star_measure == pytest.approx(8.0, rel=0.02)


def test_compact_containment_exact(slit_256):
    rep = interior_approximation(slit_256, 1.0 / 16.0)
    grown = ndimage.binary_dilation(rep.e_cells, np.ones((3, 3), bool))
    assert not (grown & ~slit_256.cells).any()
    for a in range(2):
        crack = slit_256.cracks.masks[a]
        adj = np.zeros(slit_256.grid.extents, bool)
        sl_lo = [slice(None)] * 2
        sl_hi = [slice(None)] * 2
        sl_lo[a] = slice(1, None)
        sl_hi[a] = slice(0, -1)
        adj |= crack[tuple(sl_lo)]
        adj |= crack[tuple(sl_hi)]
        assert not (adj & rep.e_cells).any()


def test_cover_coverage_and_validity(slit_256):
    cls = classify(slit_256)
    bd = boundary_decomposition(slit_256, cls)
    rep = interior_approximation(slit_256, 1.0 / 8.0, cls=cls, bd=bd)
    # re-audit independently (raises on failure)
    audit_cover(slit_256, rep.cover, _targets(slit_256))
    for center, r, kind in rep.cover.balls:
        assert r < 1.0 / 8.0
        if kind == EXTERIOR_HALF_DENSITY:
            assert density(slit_256, center, r) < 0.5


def test_removed_volume_monotone_in_scale(slit_256):
    cls = classify(slit_256)
    bd = boundary_decomposition(slit_256, cls)
    removed = [
        interior_approximation(slit_256, d, cls=cls, bd=bd).removed_volume
        for d in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)
    ]
    assert removed[0] > removed[1] > removed[2]


def test_sweep_bounded_on_slit(slit_256):
    table = approximation_sweep(slit_256, [1 / 8, 1 / 16, 1 / 32])
    assert table["verdict"] == "BOUNDED"
    ratios = [r["ratio"] for r in table["rows"]]
    assert max(ratios) <= 4.0 * min(ratios)
    with pytest.raises(InputError):
        approximation_sweep(slit_256, [1 / 8, 1 / 16])


def test_cantor_ladder_growing():
    table = cantor_generation_sweep([1, 2, 3])
    assert table["verdict"] == "GROWING"
    mins = [r["min_perimeter"] for r in table["rows"]]
    assert mins[0] < mins[1] < mins[2]


def test_scale_and_volume_preconditions():
    set_ = preset_set("square", 1.0 / 32.0)
    with pytest.raises(InputError):
        interior_approximation(set_, 4.0 * set_.grid.spacing)
    empty = RoughSet(set_.grid, np.zeros(set_.grid.extents, bool))
    with pytest.raises(InputError):
        interior_approximation(empty, 1.0 / 2.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_interior_approximation_refuses_a_non_finite_scale(delta):
    set_ = preset_set("slit-square", 1.0 / 32.0)
    with pytest.raises(InputError, match=f"^approximation scale {delta} is not finite$"):
        interior_approximation(set_, delta)


def _whisker():
    """The unit box with a one-cell-thick whisker out of its right side."""
    dx = 1.0 / 32.0
    doc = json.dumps(
        {
            "shape": {
                "op": "union",
                "args": [
                    {"op": "box", "min": [-1, -1], "max": [1, 1]},
                    {"op": "box", "min": [1, 0.0], "max": [1.5, dx]},
                ],
            }
        }
    )
    spec = parse_domain(doc)
    return rasterize(spec, make_grid(spec, dx, margin_cells=16))


def test_half_density_balls_on_whisker():
    rs = _whisker()
    grid = rs.grid
    rep = interior_approximation(rs, 8 * grid.spacing)
    kinds = [k for _c, _r, k in rep.cover.balls]
    assert EXTERIOR_HALF_DENSITY in kinds
    # the thin whisker is exterior-density material and must be gone
    X = np.stack(np.broadcast_arrays(*grid.cell_center_mesh()), axis=-1)
    whisker = rs.cells & (X[..., 0] > 1.0)
    assert not (rep.e_cells & whisker).any()


def test_exterior_part_holds_the_whisker_tip():
    """The exterior-density boundary cells include body cells: the tip of
    a one-cell whisker has exterior density, and it is the one set the
    half-density search reads."""
    rs = _whisker()
    bd = boundary_decomposition(rs, classify(rs))
    tip = bd.exterior_part & rs.cells
    assert tip.any()
    X = np.stack(np.broadcast_arrays(*rs.grid.cell_center_mesh()), axis=-1)
    assert np.all(X[tip][:, 0] > 1.0)
    assert _half_density_balls(rs, bd, 8 * rs.grid.spacing)


def _half_density_loop(set_, cls, delta):
    """The halving search one centre and one ``density`` call at a time."""
    grid = set_.grid
    glo, ghi = grid.bounds()
    candidates = np.argwhere(touching(set_.topology.boundary) & (cls.labels == EXTERIOR))
    found = []
    for idx in candidates:
        center = glo + (idx + 0.5) * grid.spacing
        r = delta * 0.999
        while r >= 4.0 * grid.spacing:
            if (np.all(center - r >= glo) and np.all(center + r <= ghi)
                    and density(set_, center, r) < 0.5):
                found.append((tuple(float(c) for c in center), r))
                break
            r *= 0.5
    found.sort(key=lambda cr: (-cr[1], cr[0]))
    accepted = []
    for center, r in found:
        if all(np.linalg.norm(np.subtract(center, c2)) >= r + r2 for c2, r2 in accepted):
            accepted.append((center, r))
    return [(c, r, EXTERIOR_HALF_DENSITY) for c, r in accepted]


DUST = {"dust-2d": (2, 96, 0.02), "dust-3d": (3, 48, 0.01)}


def _dust(n, extent, dust):
    """A core box in dust: hundreds of exterior-density candidates, many
    of whose balls leave the grid at the larger scales."""
    grid = Grid(n=n, spacing=1.0 / 32.0, origin=(-1.0,) * n, extents=(extent,) * n)
    cells = np.random.default_rng(n).random(grid.extents) < dust
    cells[(slice(extent // 4, 3 * extent // 4),) * n] = True
    return RoughSet(grid, cells)


@pytest.mark.parametrize("n, extent, dust", list(DUST.values()))
def test_half_density_balls_match_a_per_centre_loop(n, extent, dust):
    set_ = _dust(n, extent, dust)
    grid = set_.grid
    cls = classify(set_)
    bd = boundary_decomposition(set_, cls)
    assert (touching(set_.topology.boundary) & (cls.labels == EXTERIOR)).sum() > 300
    for m in (8, 16, 32):
        balls = _half_density_balls(set_, bd, m * grid.spacing)
        assert balls == _half_density_loop(set_, cls, m * grid.spacing)
        assert balls
        audit_cover(set_, BallCover(balls=balls, totals={}), FacetArrays(grid))


def test_interior_approximation_deterministic(slit_256):
    a = interior_approximation(slit_256, 1.0 / 8.0)
    b = interior_approximation(slit_256, 1.0 / 8.0)
    assert np.array_equal(a.e_cells, b.e_cells)
    assert a.cover.balls == b.cover.balls


# ---------------------------------------------------------------------------
# the facet-lattice stencil against a cKDTree reference
# ---------------------------------------------------------------------------

PRESETS = ["square", "disk", "slit-square", "slit-disk", "l-shape", "cantor-cross"]


@functools.lru_cache(maxsize=None)
def _cover_case(name: str):
    """(set, target facets) of a preset at 1/128, the slit cube at 1/16 or
    a dust set (``DUST``)."""
    if name in DUST:
        set_ = _dust(*DUST[name])
    elif name == "slit-cube":
        spec = parse_domain(json.dumps({
            "shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
            "cracks": [{"rect": [[-0.5, -0.5, 0.0], [0.5, 0.5, 0.0]]}],
        }))
        set_ = rasterize(spec, make_grid(spec, 1.0 / 16.0, margin_cells=4))
    else:
        set_ = preset_set(name, 1.0 / 128.0)
    return set_, _targets(set_)


def _kdtree_cover(grid, targets, delta):
    """The greedy facet cover marked by ``cKDTree.query_ball_point``."""
    dx = grid.spacing
    rho = min(max(2.0 * dx, dx * math.floor(delta / (2.0 * dx))), delta * 0.999)
    reach = rho - dx * math.sqrt(0.25 + (grid.n - 1))
    centers = targets.centers()
    tree = cKDTree(centers)
    covered = np.zeros(centers.shape[0], dtype=bool)
    balls = []
    for i, c in enumerate(centers):
        if not covered[i]:
            balls.append((tuple(float(v) for v in c), rho, STAR_COVER))
            covered[tree.query_ball_point(c, reach + 1e-12 * dx)] = True
    return balls


def _kdtree_audit_passes(grid, balls, targets) -> bool:
    """Every target facet centre within rho - half_diag of a ball centre."""
    half_diag = 0.5 * grid.spacing * math.sqrt(grid.n - 1)
    dist, _ = cKDTree(np.array([c for c, _r, _k in balls])).query(targets.centers())
    return bool(np.all(dist <= balls[0][1] - half_diag + 1e-9 * grid.spacing))


def _audit_passes(set_, balls, targets) -> bool:
    try:
        audit_cover(set_, BallCover(balls=balls, totals={}), targets)
    except InvariantViolation:
        return False
    return True


@pytest.mark.parametrize("name", PRESETS + ["slit-cube"])
@pytest.mark.parametrize("m", [8, 12, 16])
def test_facet_cover_matches_kdtree(name, m):
    set_, targets = _cover_case(name)
    delta = m * set_.grid.spacing
    balls = _facet_cover(set_.grid, targets, delta)
    assert balls == _kdtree_cover(set_.grid, targets, delta)
    for kept in (balls, balls[:len(balls) // 2] + balls[len(balls) // 2 + 1:], balls[::2]):
        assert _audit_passes(set_, kept, targets) \
            == _kdtree_audit_passes(set_.grid, kept, targets)
    assert not _audit_passes(set_, balls[::2], targets)


@pytest.mark.parametrize("n, a, b, offset", [
    (2, 0, 0, (2, 1)), (2, 0, 1, (1, 1)), (3, 2, 0, (1, 2, -1)),
])
def test_stencil_edge_is_the_slack(n, a, b, offset):
    """Lattice distances never equal the reach, so the edge that matters is
    the cover's 1e-12 dx slack: inside it an offset is kept, beyond it not."""
    dx = 1.0 / 64.0
    shift = (np.eye(n)[a] - np.eye(n)[b]) / 2.0
    dist = dx * math.sqrt(((np.array(offset) + shift) ** 2).sum())

    def kept(reach):
        return offset in map(tuple, _stencil(n, dx, reach + 1e-12 * dx)[a][b].tolist())

    assert kept(dist - 0.5e-12 * dx)
    assert not kept(dist - 1.5e-12 * dx)


@pytest.mark.parametrize("n, largest", [(2, 1447), (3, 101)])
def test_lattice_reach_stops_at_the_cell_cap(n, largest):
    """(2 r + 1)^n stays within 2^23 points up to ``largest`` and not one
    cell further; a reach that overflowed to inf is refused too."""
    assert (2 * largest + 1) ** n <= 2**23 < (2 * largest + 3) ** n
    assert lattice_reach(float(largest), n, "reach") == largest
    for reach in (largest + 1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="reach is too large"):
            lattice_reach(reach, n, "reach")


# ---------------------------------------------------------------------------
# ball removal by cell stencil and ball rows against brute-force distances
# ---------------------------------------------------------------------------


def _ball_loop_removal(set_, balls):
    """Every ball's cells by brute-force distances from the cell centres,
    with the removal slack."""
    grid = set_.grid
    removed = np.zeros(grid.extents, dtype=bool)
    for center, r, _kind in balls:
        d2 = sum((x - c) ** 2 for x, c in zip(grid.cell_center_mesh(), center))
        removed |= d2 <= (r + 1e-9 * grid.spacing) ** 2
    return removed


@pytest.mark.parametrize("name", PRESETS + ["slit-cube", *DUST])
def test_remove_balls_matches_ball_loop(name):
    set_, targets = _cover_case(name)
    bd = boundary_decomposition(set_, classify(set_))
    for m in (8, 12, 16):
        delta = m * set_.grid.spacing
        half = _half_density_balls(set_, bd, delta)
        assert bool(half) == (name in DUST)
        balls = half + _facet_cover(set_.grid, targets, delta)
        assert np.array_equal(_remove_balls(set_, balls), _ball_loop_removal(set_, balls))


@pytest.mark.parametrize("n", [2, 3])
def test_remove_balls_clips_at_the_grid_edge(n):
    """Balls on the outermost facets, and two of half density in opposite
    corners, whose stencils and rows the grid cuts off."""
    set_ = preset_set("square", 1.0 / 8.0) if n == 2 else _cover_case("slit-cube")[0]
    grid = set_.grid
    last = np.asarray(grid.extents) - 1
    rho = 4.0 * grid.spacing
    balls = [(tuple(float(v) for v in grid.facet_center(a, idx)), rho, STAR_COVER)
             for a in range(n) for idx in (np.zeros(n, dtype=int), last + np.eye(n, dtype=int)[a])]
    half = [(tuple(float(v) for v in grid.origin + (idx + 0.5) * grid.spacing), 3.0 * grid.spacing,
             EXTERIOR_HALF_DENSITY) for idx in (np.zeros(n, dtype=int), last)]
    for kept in (balls + half, half):
        removed = _remove_balls(set_, kept)
        assert removed.any()
        assert np.array_equal(removed, _ball_loop_removal(set_, kept))
