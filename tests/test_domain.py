import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughgg.domain import (
    cantor_cross_spec,
    make_grid,
    parse_domain,
    preset_set,
    preset_spec,
    rasterize,
)
from roughgg.errors import (
    CrackPlacementError,
    DomainSemanticError,
    DomainSyntaxError,
    GridTooCoarseError,
    InputError,
)
from roughgg.gridcore import Grid

SLIT_SQUARE_DOC = json.dumps(
    {
        "shape": {"op": "box", "min": [-1, -1], "max": [1, 1]},
        "cracks": [{"seg": [[-1, 0], [1, 0]]}],
    }
)


def test_parse_minimal_disk():
    spec = parse_domain('{"shape":{"op":"disk","center":[0,0],"r":1},"cracks":[]}')
    assert spec.cracks == ()
    lo, hi = spec.bbox()
    assert np.allclose(lo, [-1, -1]) and np.allclose(hi, [1, 1])


def test_parse_slit_square_document():
    spec = parse_domain(SLIT_SQUARE_DOC)
    assert len(spec.cracks) == 1
    assert spec.cracks[0].length() == 2.0


def test_parse_negative_radius_is_semantic_error():
    with pytest.raises(DomainSemanticError):
        parse_domain('{"shape":{"op":"disk","r":-1}}')


def test_parse_zero_length_crack_is_semantic_error():
    with pytest.raises(DomainSemanticError):
        parse_domain('{"shape":{"op":"disk","r":1},"cracks":[{"seg":[[0,0],[0,0]]}]}')


def test_parse_syntax_error_reports_position():
    with pytest.raises(DomainSyntaxError) as err:
        parse_domain('{"shape": }')
    assert err.value.line == 1
    assert err.value.col is not None


def test_parse_preset_and_shape_exclusive():
    with pytest.raises(DomainSemanticError):
        parse_domain('{"preset":"disk","shape":{"op":"disk","r":1}}')


@pytest.mark.parametrize("doc,message", [
    ('{"shape":{"op":"box","min":[-1,-1],"max":[1,1]},"crack":[{"seg":[[-1,0],[1,0]]}]}',
     "top level: unknown key 'crack'; it takes shape, cracks"),
    ('{"shape":{"op":"disk","center":[0,0],"radius":1}}',
     "shape: unknown key 'radius'; it takes op, center, r"),
    ('{"shape":{"op":"union","args":[{"op":"box","min":[0,0],"max":[1,1]},'
     '{"op":"polygon","pts":[[0,0],[2,0],[0,2]],"closed":true}]}}',
     "shape.args[1]: unknown key 'closed'; it takes op, pts"),
    ('{"shape":{"op":"box","min":[-1,-1],"max":[1,1]},'
     '"cracks":[{"seg":[[-1,0],[1,0]],"rec":[[0,0,0],[1,1,0]]}]}',
     "cracks[0]: unknown key 'rec'; it takes seg, rect"),
    ('{"preset":"cantor-cross","gen":2}', "top level: unknown key 'gen'; it takes preset, k"),
], ids=["crack", "radius", "closed", "rec", "gen"])
def test_parse_refuses_unknown_keys(doc, message):
    with pytest.raises(DomainSemanticError, match=f"^{re.escape(message)}$"):
        parse_domain(doc)


def test_parse_refuses_a_crack_with_both_seg_and_rect():
    doc = ('{"shape":{"op":"box","min":[-1,-1],"max":[1,1]},"cracks":[{"seg":[[-1,0],[1,0]]},'
           '{"seg":[[0,-1],[0,1]],"rect":[[0,0,0],[1,1,0]]}]}')
    with pytest.raises(DomainSemanticError,
                       match=r"^cracks\[1\]: crack takes one of 'seg' and 'rect', not both$"):
        parse_domain(doc)


def test_rasterize_unit_square_exact_cover():
    spec = parse_domain('{"shape":{"op":"box","min":[0,0],"max":[1,1]}}')
    grid = make_grid(spec, 0.25)
    rs = rasterize(spec, grid)
    assert rs.cell_count == 16
    assert rs.cracks.count() == 0


def test_rasterize_slit_square_quarter_spacing():
    spec = parse_domain(SLIT_SQUARE_DOC)
    grid = make_grid(spec, 0.25)
    rs = rasterize(spec, grid)
    assert rs.cell_count == 64
    assert rs.cracks.count() == 8
    assert rs.crack_length() == 2.0


def test_rasterize_disk_area_within_one_percent():
    rs = preset_set("disk", 1.0 / 128.0)
    assert abs(rs.volume - math.pi) <= 0.01 * math.pi


def test_rasterize_requires_margin():
    spec = parse_domain('{"shape":{"op":"box","min":[0,0],"max":[1,1]}}')
    grid = Grid(n=2, spacing=0.25, origin=(0.0, 0.0), extents=(4, 4))
    with pytest.raises(InputError):
        rasterize(spec, grid)


def test_rasterize_determinism_bit_identical():
    spec = parse_domain(SLIT_SQUARE_DOC)
    grid = make_grid(spec, 1.0 / 32.0)
    a = rasterize(spec, grid)
    b = rasterize(spec, grid)
    assert np.array_equal(a.cells, b.cells)
    for m1, m2 in zip(a.cracks.masks, b.cracks.masks):
        assert np.array_equal(m1, m2)


def test_complement_closure():
    box = '{"op":"box","min":[-1,-1],"max":[1,1]}'
    disk = '{"op":"disk","center":[0.2,0.1],"r":0.5}'
    spec_diff = parse_domain(f'{{"shape":{{"op":"diff","args":[{box},{disk}]}}}}')
    spec_box = parse_domain(f'{{"shape":{box}}}')
    spec_disk = parse_domain(f'{{"shape":{disk}}}')
    grid = make_grid(spec_box, 1.0 / 32.0)
    got = rasterize(spec_diff, grid).cells
    expect = rasterize(spec_box, grid).cells & ~rasterize(spec_disk, grid).cells
    assert np.array_equal(got, expect)


def test_crack_nullity():
    spec_plain = parse_domain('{"shape":{"op":"box","min":[-1,-1],"max":[1,1]}}')
    spec_crack = parse_domain(SLIT_SQUARE_DOC)
    grid = make_grid(spec_plain, 1.0 / 16.0)
    assert np.array_equal(
        rasterize(spec_plain, grid).cells, rasterize(spec_crack, grid).cells
    )


def test_crack_outside_body_rejected():
    doc = json.dumps(
        {
            "shape": {"op": "box", "min": [0, 0], "max": [1, 1]},
            "cracks": [{"seg": [[0.0, 2.0], [1.0, 2.0]]}],
        }
    )
    spec = parse_domain(doc)
    grid = make_grid(preset_spec("square"), 1.0 / 8.0)
    with pytest.raises(CrackPlacementError):
        rasterize(spec, grid)


def test_far_crack_end_refused_before_walking(monkeypatch):
    # a walk to a node 8e12 cells away would build 8e12 facets first
    import roughgg.domain

    def refuse(a, b):
        raise AssertionError(f"walked a crack from {a} to {b}")

    monkeypatch.setattr(roughgg.domain, "_walk_segment", refuse)
    spec = parse_domain(json.dumps({
        "shape": {"op": "box", "min": [-1, -1], "max": [1, 1]},
        "cracks": [{"seg": [[0, 0], [1e12, 0]]}],
    }))
    with pytest.raises(CrackPlacementError, match="leaves the grid"):
        rasterize(spec, make_grid(spec, 1.0 / 8.0))


def test_crack_snapping_shift_below_half_cell():
    # slit at an off-grid height snaps to the nearest facet line
    doc = json.dumps(
        {
            "shape": {"op": "box", "min": [-1, -1], "max": [1, 1]},
            "cracks": [{"seg": [[-1, 0.01], [1, 0.01]]}],
        }
    )
    spec = parse_domain(doc)
    grid = make_grid(spec, 1.0 / 8.0)
    rs = rasterize(spec, grid)
    centers = rs.cracks.centers()
    assert np.all(np.abs(centers[:, 1] - 0.01) < 0.5 * grid.spacing)
    assert rs.cracks.count() == 16


def test_diagonal_crack_staircase_counts():
    doc = json.dumps(
        {
            "shape": {"op": "box", "min": [-2, -2], "max": [2, 2]},
            "cracks": [{"seg": [[0, 0], [1, 1]]}],
        }
    )
    spec = parse_domain(doc)
    grid = make_grid(spec, 1.0 / 8.0)
    rs = rasterize(spec, grid)
    # unit diagonal -> 8 + 8 unit steps; corrected length sqrt(2)
    assert rs.cracks.count() == 16
    assert abs(rs.crack_length() - math.sqrt(2.0)) < 1e-12


def test_slit_square_coarse_grid_counts():
    rs = preset_set("slit-square", 0.5)
    assert rs.cracks.count() == 4


def test_cantor_cross_generation_counts():
    for k in (0, 1, 2):
        dx = 3.0 ** (-k) / 4.0
        spec = cantor_cross_spec(k)
        grid = make_grid(spec, dx)
        rs = rasterize(spec, grid)
        expected = 4.0 * (4.0 / 3.0) ** k
        assert abs(rs.crack_length() - expected) < 1e-9


def test_cantor_cross_too_coarse():
    spec = cantor_cross_spec(3)
    grid = make_grid(spec, 0.25)
    with pytest.raises(GridTooCoarseError):
        rasterize(spec, grid)


def test_grid_invariants():
    with pytest.raises(InputError):
        Grid(n=2, spacing=0.0, origin=(0, 0), extents=(4, 4))
    with pytest.raises(InputError):
        Grid(n=2, spacing=0.1, origin=(0, 0), extents=(0, 4))
    with pytest.raises(InputError):
        Grid(n=4, spacing=0.1, origin=(0, 0, 0, 0), extents=(2, 2, 2, 2))


def test_preset_gallery_counts():
    for name in ("square", "disk", "slit-square", "slit-disk", "l-shape"):
        rs = preset_set(name, 1.0 / 16.0)
        assert rs.cell_count > 0
    assert abs(preset_set("l-shape", 1.0 / 32.0).volume - 3.0) < 0.05


def test_polygon_rasterization():
    doc = json.dumps(
        {"shape": {"op": "polygon",
                   "pts": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}}
    )
    spec = parse_domain(doc)
    grid = make_grid(spec, 1.0 / 64.0)
    rs = rasterize(spec, grid)
    assert rs.volume == pytest.approx(3.0, rel=0.01)
    with pytest.raises(DomainSemanticError):
        parse_domain('{"shape":{"op":"polygon","pts":[[0,0],[1,0]]}}')


def test_three_dimensional_box_with_rect_crack():
    doc = json.dumps(
        {
            "shape": {"op": "box", "min": [0, 0, 0], "max": [1, 1, 1]},
            "cracks": [{"rect": [[0.25, 0.25, 0.5], [0.75, 0.75, 0.5]]}],
        }
    )
    spec = parse_domain(doc)
    grid = make_grid(spec, 1.0 / 8.0, margin_cells=2)
    rs = rasterize(spec, grid)
    assert rs.cell_count == 512
    assert rs.cracks.count() == 16
    assert rs.crack_length() == pytest.approx(0.25)


@pytest.mark.parametrize("name", ["square", "slit-square", "l-shape"])
@pytest.mark.parametrize("n_per_unit", [16, 64])
def test_reduced_measure_oracle(name, n_per_unit):
    # perimeter 8 for all three; the slit is a crack, not reduced boundary
    rs = preset_set(name, 1.0 / n_per_unit)
    assert rs.reduced_measure == 8.0


SLIT_CUBE_DOC = json.dumps({
    "shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
    "cracks": [{"rect": [[-0.5, -0.5, 0.0], [0.5, 0.5, 0.0]]}],
})
STAR_CASES = ["square", "disk", "slit-square", "slit-disk", "l-shape", "cantor-cross",
              "slit-cube"]


def _star_case(key):
    """A preset at 1/64 (cantor-cross k=2 at 1/36) or the slit cube at 1/16."""
    if key == "slit-cube":
        spec = parse_domain(SLIT_CUBE_DOC)
        return rasterize(spec, make_grid(spec, 1.0 / 16.0))
    if key == "cantor-cross":
        return preset_set(key, 1.0 / 36.0, k=2)
    return preset_set(key, 1.0 / 64.0)


@pytest.mark.parametrize("key", STAR_CASES)
def test_star_measure_is_reduced_plus_crack(key):
    rs = _star_case(key)
    assert rs.star_measure == rs.reduced_measure + rs.crack_length()


@pytest.mark.parametrize("key", ["slit-square", "slit-cube"])
def test_topology_shares_the_crack_masks(key):
    rs = _star_case(key)
    assert all(rs.topology.crack[a] is rs.cracks.masks[a] for a in range(rs.grid.n))


def test_reduced_measure_oracle_3d_box():
    spec = parse_domain('{"shape":{"op":"box","min":[-1,-1,-1],"max":[1,1,1]}}')
    rs = rasterize(spec, make_grid(spec, 1.0 / 8.0))
    assert rs.reduced_measure == 24.0


def test_three_dimensional_ball_volume():
    spec = parse_domain('{"shape":{"op":"ball","center":[0,0,0],"r":1}}')
    grid = make_grid(spec, 1.0 / 32.0, margin_cells=2)
    rs = rasterize(spec, grid)
    assert rs.volume == pytest.approx(4.0 * math.pi / 3.0, rel=0.005)


# ---------------------------------------------------------------------------
# fuzzed domain documents through the CLI
# ---------------------------------------------------------------------------

_FUZZ_DOCS = [
    {"shape": {"op": "diff", "args": [
        {"op": "union", "args": [{"op": "box", "min": [-1, -1], "max": [1, 1]},
                                 {"op": "disk", "center": [1, 0], "r": 0.5}]},
        {"op": "disk", "center": [0, 0.5], "r": 0.25}]},
     "cracks": [{"seg": [[-0.5, -0.5], [0.5, -0.5]]}, {"seg": [[0, -0.75], [0, 0]]}]},
    {"shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
     "cracks": [{"rect": [[-0.5, -0.5, 0], [0.5, 0.5, 0]]}]},
    {"preset": "cantor-cross", "k": 1},
]
_KEYS = st.sampled_from(["op", "args", "min", "max", "center", "r", "seg", "rect",
                         "shape", "cracks", "preset", "k"]) | st.text(max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["box", "disk", "union", "diff", "cantor-cross", "slit-square"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12)


def _node_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_domain_json_fuzz(data):
    """Any node of a valid document replaced by any JSON value: ``classify``
    exits 0 or 2 and raises nothing (a tight cell cap keeps the grids that
    parse small)."""
    from roughgg import cli, gridcore

    doc = json.loads(json.dumps(data.draw(st.sampled_from(_FUZZ_DOCS))))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    value = data.draw(_JSON)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridcore, "MAX_CELLS", 2**15)
        # --domain=TEXT: a document such as -1e+16 must not read as a flag
        assert cli.main(["classify", f"--domain={json.dumps(doc)}", "--grid", "4"]) in (0, 2)
