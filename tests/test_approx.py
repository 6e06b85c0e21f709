import json
import math

import numpy as np
import pytest
from scipy import ndimage

from roughgg.approx import (
    EXTERIOR_HALF_DENSITY,
    STAR_COVER,
    approximation_sweep,
    audit_cover,
    cantor_generation_sweep,
    interior_approximation,
)
from roughgg.domain import RoughSet, make_grid, parse_domain, preset_set, rasterize
from roughgg.errors import InputError
from roughgg.measure import boundary_decomposition, classify, density


@pytest.fixture(scope="module")
def slit_256():
    return preset_set("slit-square", 1.0 / 256.0, margin_cells=4)


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
    audit_cover(slit_256, rep.cover, bd.reduced.union(bd.crack_part))
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


def test_half_density_balls_on_whisker():
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
    grid = make_grid(spec, dx, margin_cells=16)
    rs = rasterize(spec, grid)
    rep = interior_approximation(rs, 8 * dx)
    kinds = [k for _c, _r, k in rep.cover.balls]
    assert EXTERIOR_HALF_DENSITY in kinds
    # the thin whisker is exterior-density material and must be gone
    X = np.stack(np.broadcast_arrays(*grid.cell_center_mesh()), axis=-1)
    whisker = rs.cells & (X[..., 0] > 1.0)
    assert not (rep.e_cells & whisker).any()


def test_interior_approximation_deterministic(slit_256):
    a = interior_approximation(slit_256, 1.0 / 8.0)
    b = interior_approximation(slit_256, 1.0 / 8.0)
    assert np.array_equal(a.e_cells, b.e_cells)
    assert a.cover.balls == b.cover.balls
