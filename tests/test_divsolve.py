import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import roughgg.divsolve as ds
from roughgg.divsolve import (
    SolveReport,
    TraceData,
    is_compatible,
    solve_decomposed,
    solve_direct,
    verify_solution,
)
from roughgg.dmfield import FluxField, divergence_measure, sample_field, trace_measure
from roughgg.domain import PRESET_NAMES, RoughSet, preset_set
from roughgg.errors import CompatibilityError, InputError
from roughgg.fields import separated_smooth_field, slit_jump_field
from roughgg.gridcore import MINUS, PLUS, lift

from conftest import constant_field, copy_field, cracked_domains, random_facet_noise


def left_right_data(set_):
    def fn(X, nu):
        out = np.zeros(X.shape[:-1])
        if nu[0] == -1:
            out[...] = 1.0
        if nu[0] == 1:
            out[...] = -1.0
        return out

    return TraceData(set_).fill(fn)


def slit_example_data(set_):
    F = sample_field(slit_jump_field(), set_, 1.0)
    tm = trace_measure(F)
    td = TraceData(set_)
    for (a, idx, side), w in tm.side_weights.items():
        td.set_side(a, idx, side, w / set_.grid.facet_area)
    return td


def test_compatibility_examples(square_32):
    td0 = TraceData(square_32)
    assert td0.integral == 0.0
    td = left_right_data(square_32)
    assert td.integral == pytest.approx(0.0, abs=1e-12)
    assert is_compatible(td)
    td1 = TraceData(square_32).fill(lambda X, nu: np.ones(X.shape[:-1]))
    assert td1.integral == pytest.approx(8.0, rel=0.01)
    assert not is_compatible(td1)


def test_trace_data_support_guard(square_32):
    td = TraceData(square_32)
    with pytest.raises(InputError):
        td.set_side(0, (5, 5), MINUS, 1.0)  # interior facet, not a trace side


def test_solve_direct_square_analytic(square_32):
    td = left_right_data(square_32)
    rep = solve_direct(square_32, td)
    interior = rep.F.topology.interior[0]
    assert np.allclose(rep.F.vminus[0][interior], -1.0, atol=1e-9)
    assert np.allclose(rep.F.vminus[1][rep.F.topology.interior[1]], 0.0, atol=1e-9)
    assert rep.interior_div_residual <= 1e-10
    assert rep.trace_linf_gap == 0.0
    assert verify_solution(rep, square_32, td)["pass"]


def test_solve_round_trip_slit(slit_square_32):
    td = slit_example_data(slit_square_32)
    for solver in (solve_direct, solve_decomposed):
        rep = solver(slit_square_32, td)
        assert rep.trace_linf_gap <= 1e-8
        assert rep.interior_div_residual <= 1e-10
        # the crack sides really carry two distinct one-sided values
        crack = rep.F.topology.crack[1]
        assert np.allclose(rep.F.vplus[1][crack], 1.0)
        assert np.allclose(rep.F.vminus[1][crack], -1.0)


def test_full_span_slit_disconnects(slit_square_32):
    # +1 above / -1 below the slit with zero outer data: each component
    # has net prescribed flux, so the solve must refuse
    td = TraceData(slit_square_32)
    for a in range(2):
        crack = slit_square_32.cracks.masks[a]
        for i in np.argwhere(crack):
            idx = tuple(int(v) for v in i)
            td.set_side(a, idx, PLUS, 1.0)
            td.set_side(a, idx, MINUS, -1.0)
    with pytest.raises(CompatibilityError):
        solve_direct(slit_square_32, td)


def test_mode_agreement_crack_free(square_32):
    td = TraceData(square_32).fill(lambda X, nu: X[..., 1] * nu[0])
    r1 = solve_direct(square_32, td)
    r2 = solve_decomposed(square_32, td)
    t1 = trace_measure(r1.F)
    t2 = trace_measure(r2.F)
    for key in set(t1.side_weights) | set(t2.side_weights):
        assert t1.side_weights.get(key, 0.0) == pytest.approx(
            t2.side_weights.get(key, 0.0), abs=1e-8
        )


def test_decomposed_internals(slit_square_32):
    td = slit_example_data(slit_square_32)
    rep = solve_decomposed(slit_square_32, td)
    # G (step 1's gradient flux plus the facet lift) and h as steps 1-2
    # leave them, and the body field of step 3
    grid = slit_square_32.grid
    u_cells, td_hat, _ = ds._lift_and_reduce(slit_square_32, td)
    G = FluxField(RoughSet(grid, np.ones(grid.extents, dtype=bool)), 1.0)
    for a in range(2):
        flux = ds._gradient_flux(u_cells, ds._box_edges(slit_square_32, a), a, grid.spacing)
        G.vminus[a] = flux + np.where(td.topology.minus[a], td.gminus[a], 0.0)
        G.vplus[a] = flux - np.where(td.topology.plus[a], td.gplus[a], 0.0)
    h_arrays = [td_hat.net(a) for a in range(2)]
    Fhat = solve_direct(slit_square_32, td_hat).F
    # div G = -(prescribed trace measure), facet atoms and all
    div_G = divergence_measure(G)
    assert float(np.abs(div_G.cell_weights).max()) <= 1e-12
    area = slit_square_32.grid.facet_area
    tm = trace_measure(sample_field(slit_jump_field(), slit_square_32, 1.0))
    for a in range(2):
        net = div_G.facet_minus[a] + div_G.facet_plus[a]
        assert np.allclose(net, -tm.net(a) * area, rtol=0.0, atol=1e-9)
    # derived reduced-boundary data integrates to zero
    h_total = sum(float(h.sum()) for h in h_arrays) * area
    assert abs(h_total) <= 1e-9
    # the two parts add up facet-wise on the body's live facets
    topo = rep.F.topology
    for a in range(2):
        # minus slots carry the body value on interior, crack, and
        # inside-lower boundary facets; outside slots are zeroed by the
        # restriction to the body
        inside_minus = topo.interior[a] | topo.crack[a] | (
            topo.boundary[a] & topo.inside_lower[a])
        total = (G.vminus[a] + Fhat.vminus[a])[inside_minus]
        assert np.allclose(rep.F.vminus[a][inside_minus], total, atol=1e-9)


def test_incompatible_raises(square_32):
    td = TraceData(square_32).fill(lambda X, nu: np.ones(X.shape[:-1]))
    with pytest.raises(CompatibilityError):
        solve_direct(square_32, td)
    with pytest.raises(CompatibilityError):
        solve_decomposed(square_32, td)


def test_null_space_and_determinism(square_32):
    td = left_right_data(square_32)
    r1 = solve_direct(square_32, td)
    r2 = solve_direct(square_32, td)
    for a in range(2):
        assert np.array_equal(r1.F.vminus[a], r2.F.vminus[a])
        assert np.array_equal(r1.F.vplus[a], r2.F.vplus[a])


def test_global_conservation(slit_square_32):
    td = slit_example_data(slit_square_32)
    assert abs(td.integral) <= 1e-12
    rep = solve_direct(slit_square_32, td)
    m = divergence_measure(rep.F)
    assert abs(m.total()) <= 1e-9


def test_verify_solution_fault_injection(square_32):
    td = left_right_data(square_32)
    rep = solve_direct(square_32, td)
    assert verify_solution(rep, square_32, td)["pass"]
    # perturb one interior facet value: conservation breaks at that cell
    bad = copy_field(rep.F)
    interior = bad.topology.interior[0]
    idx = tuple(np.argwhere(interior)[interior.sum() // 2])
    bad.vminus[0][idx] += 1.0
    bad.vplus[0][idx] += 1.0
    bad_rep = SolveReport(F=bad, interior_div_residual=1.0, trace_linf_gap=0.0,
                          trace_l1_gap=0.0, mode="DIRECT", kappa=1.0)
    audit = verify_solution(bad_rep, square_32, td)
    assert not audit["pass"]


def test_zero_data_zero_field(square_32):
    td = TraceData(square_32)
    for solver in (solve_direct, solve_decomposed):
        rep = solver(square_32, td)
        for a in range(2):
            assert np.allclose(rep.F.vminus[a], 0.0, atol=1e-12)
            assert np.allclose(rep.F.vplus[a], 0.0, atol=1e-12)


def test_kappa_reported(square_32):
    td = left_right_data(square_32)
    rep = solve_direct(square_32, td)
    assert rep.kappa == pytest.approx(1.0, rel=1e-6)


def test_iterative_solver_branch(square_32, monkeypatch):
    # force a multilevel hierarchy and keep the conservation bar
    import roughgg.divsolve as ds

    monkeypatch.setattr(ds, "COARSE_SIZE", 16)
    td = left_right_data(square_32)
    rep = solve_direct(square_32, td)
    assert rep.levels[0] > 2 and rep.cg_iterations[0] > 1
    assert rep.interior_div_residual <= 1e-10
    assert rep.trace_linf_gap == 0.0
    interior = rep.F.topology.interior[0]
    assert np.allclose(rep.F.vminus[0][interior], -1.0, atol=1e-8)


def test_solver_stats_reported(square_32):
    # below COARSE_SIZE the coarsest level is the whole system: one
    # factorized level, and CG stops after one iteration
    import roughgg.divsolve as ds

    square_16 = preset_set("square", 1.0 / 16.0, margin_cells=4)
    assert square_16.cell_count <= ds.COARSE_SIZE
    td = left_right_data(square_16)
    rep = solve_direct(square_16, td)
    assert rep.levels == (1,) and rep.cg_iterations == (1,)
    rep = solve_decomposed(square_32, left_right_data(square_32))
    assert len(rep.levels) == 2 and len(rep.cg_iterations) == 2
    assert all(lv >= 2 for lv in rep.levels)


def test_aggregates_never_span_a_crack_facet(slit_square_32, monkeypatch):
    import roughgg.divsolve as ds

    built = []

    class Recording(ds._AggregationVCycle):
        def __init__(self, A, coords):
            super().__init__(A, coords)
            built.append(self)

    monkeypatch.setattr(ds, "_AggregationVCycle", Recording)
    monkeypatch.setattr(ds, "COARSE_SIZE", 16)
    rep = solve_direct(slit_square_32, left_right_data(slit_square_32))
    assert rep.interior_div_residual <= 1e-10
    (vcycle,) = built
    cells = slit_square_32.cells
    node_id = -np.ones(cells.shape, dtype=np.int64)
    idx = np.argwhere(cells)
    node_id[tuple(idx.T)] = np.arange(idx.shape[0])
    # node pairs across the crack facets: facet i lies between cells
    # i - e_a and i along axis a
    lower, upper = [], []
    for a in range(2):
        f = np.argwhere(slit_square_32.cracks.masks[a])
        lo = f.copy()
        lo[:, a] -= 1
        lower.append(node_id[tuple(lo.T)])
        upper.append(node_id[tuple(f.T)])
    lower = np.concatenate(lower)
    upper = np.concatenate(upper)
    assert lower.size and (lower >= 0).all() and (upper >= 0).all()
    assert len(vcycle.levels) >= 3
    to_agg = np.arange(idx.shape[0])
    shared_block = False
    for level, (_, _, agg, _) in enumerate(vcycle.levels):
        to_agg = agg[to_agg]
        assert not np.any(to_agg[lower] == to_agg[upper]), level
        block = idx // 2 ** (level + 1)
        shared_block |= bool(np.any((block[lower] == block[upper]).all(axis=1)))
    # plain 2^n blocks would have merged some pair: the split is what holds
    assert shared_block


def two_box_set(spacing):
    import json

    from roughgg.domain import make_grid, parse_domain, rasterize

    doc = json.dumps({"shape": {"op": "union", "args": [
        {"op": "box", "min": [-1, -1], "max": [-0.25, 1]},
        {"op": "box", "min": [0.25, -1], "max": [1, 1]},
    ]}})
    spec = parse_domain(doc)
    return rasterize(spec, make_grid(spec, spacing, margin_cells=4))


@pytest.mark.parametrize("build", [
    lambda: preset_set("slit-square", 1.0 / 128.0, margin_cells=4),
    lambda: two_box_set(1.0 / 128.0),
], ids=["full-span-crack", "two-boxes"])
def test_multi_component_solves(build):
    set_ = build()
    td = left_right_data(set_)
    for solver in (solve_direct, solve_decomposed):
        rep = solver(set_, td)
        assert rep.levels[-1] >= 2
        assert rep.interior_div_residual <= 1e-10
        assert verify_solution(rep, set_, td)["pass"]
        interior = rep.F.topology.interior[0]
        assert np.allclose(rep.F.vminus[0][interior], -1.0, atol=1e-8)


def slit_cube_8():
    import json

    from roughgg.domain import make_grid, parse_domain, rasterize

    doc = json.dumps({
        "shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
        "cracks": [{"rect": [[-0.5, -0.5, 0.0], [0.5, 0.5, 0.0]]}],
    })
    spec = parse_domain(doc)
    return rasterize(spec, make_grid(spec, 1.0 / 8.0, margin_cells=4))


def test_slit_cube_solve():
    # unit outward density on both crack sides, balanced by a constant
    # inflow through the outer boundary: the flux jumps across the crack
    cube = slit_cube_8()
    td = TraceData(cube)
    topo = td.topology
    n_crack = sum(2 * int(m.sum()) for m in topo.crack)
    n_outer = sum(int(m.sum()) for m in topo.boundary)
    assert n_crack > 0
    for a in range(3):
        for arr, mask in ((td.gminus[a], topo.minus[a]), (td.gplus[a], topo.plus[a])):
            arr[mask & topo.boundary[a]] = -n_crack / n_outer
            arr[topo.crack[a]] = 1.0
    assert abs(td.integral) <= 1e-12
    rep = solve_direct(cube, td)
    assert rep.levels[0] >= 2
    assert rep.interior_div_residual <= 1e-10
    assert rep.trace_linf_gap <= 1e-8
    assert verify_solution(rep, cube, td)["pass"]
    # outward on both sides: the flux runs into the crack from either side
    crack = topo.crack[2]
    assert np.allclose(rep.F.vminus[2][crack], 1.0)
    assert np.allclose(rep.F.vplus[2][crack], -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trace_rejected(square_32, bad):
    td = left_right_data(square_32)
    a, idx = 0, tuple(np.argwhere(td.topology.minus[0])[0])
    td.gminus[a][idx] = bad
    assert not is_compatible(td)
    for solver in (solve_direct, solve_decomposed):
        with pytest.raises(InputError):
            solver(square_32, td)


def test_round_trip_on_diagonal_crack_domain():
    # staircase crack, smooth divergence-free data: the whole chain
    # (sample -> trace -> prescribe -> solve -> trace) closes exactly
    import json

    from roughgg.domain import make_grid, parse_domain, rasterize
    from roughgg.fields import separated_smooth_field

    doc = json.dumps(
        {
            "shape": {"op": "box", "min": [-1, -1], "max": [1, 1]},
            "cracks": [{"seg": [[-0.5, -0.5], [0.5, 0.5]]}],
        }
    )
    spec = parse_domain(doc)
    grid = make_grid(spec, 1.0 / 32.0, margin_cells=4)
    rs = rasterize(spec, grid)
    F = sample_field(separated_smooth_field(), rs, 1.0)
    from roughgg.dmfield import divergence_measure

    assert divergence_measure(F).total_variation <= 1e-12
    tm = trace_measure(F)
    td = TraceData(rs)
    for (a, idx, side), w in tm.side_weights.items():
        td.set_side(a, idx, side, w / grid.facet_area)
    assert abs(td.integral) <= 1e-12
    for solver in (solve_direct, solve_decomposed):
        rep = solver(rs, td)
        assert rep.trace_linf_gap <= 1e-8
        assert rep.interior_div_residual <= 1e-10
        assert verify_solution(rep, rs, td)["pass"]


def test_null_space_constant_shift_invariance(square_32):
    # shifting the potential by a constant per component leaves the flux
    # untouched: the field is a pure gradient of differences
    from roughgg.dmfield import facet_topology
    from roughgg.divsolve import _gradient_flux, _laplacian_solve

    td = left_right_data(square_32)
    topo = facet_topology(square_32)
    b = -square_32.grid.spacing * td.inflow_per_cell()
    b[~square_32.cells] = 0.0
    u, _, _ = _laplacian_solve(square_32.cells, topo.interior, b)
    shifted = u + np.where(square_32.cells, 17.25, 0.0)
    for a in range(2):
        f1 = _gradient_flux(u, topo.interior[a], a, square_32.grid.spacing)
        f2 = _gradient_flux(shifted, topo.interior[a], a, square_32.grid.spacing)
        assert np.allclose(f1, f2, atol=1e-9)


# A trace-free affine field x -> A x + b is continuous across every crack.
# Its trace on both crack sides is the one-sided outward flux +-F.nu; the
# zero diagonal keeps each component constant along its own axis, so the
# quarter-cell one-sided samples equal the facet-center value.
AFFINE = {
    2: (np.array([[0.0, 0.7], [-0.4, 0.0]]), np.array([0.3, -0.6])),
    3: (np.array([[0.0, 0.7, -0.2], [-0.4, 0.0, 0.5], [0.3, 0.6, 0.0]]),
        np.array([0.3, -0.6, 0.2])),
}


@pytest.mark.parametrize("build", [
    lambda: preset_set("slit-disk", 1.0 / 64.0, margin_cells=4),
    slit_cube_8,
], ids=["slit-disk-64", "slit-cube-8"])
def test_continuous_field_keeps_both_crack_sides(build):
    set_ = build()
    A, b = AFFINE[set_.grid.n]

    def affine(X):
        return X @ A.T + b

    tm = trace_measure(sample_field(affine, set_, 10.0))  # |F| < 3 on these grids
    td = TraceData(set_).fill(lambda X, nu: affine(X) @ nu)
    nonzero = 0
    for a in range(set_.grid.n):
        crack = set_.cracks.masks[a]
        # +F.nu on the MINUS side (nu = +e_a), -F.nu on the PLUS side
        assert np.allclose(tm.gminus[a][crack], td.gminus[a][crack], rtol=0, atol=1e-12)
        assert np.allclose(tm.gplus[a][crack], td.gplus[a][crack], rtol=0, atol=1e-12)
        nonzero += int((tm.gminus[a][crack] != 0.0).sum())
    assert nonzero > 0
    rep = solve_direct(set_, td)
    assert verify_solution(rep, set_, td)["pass"]


@pytest.mark.parametrize("build", [
    lambda: preset_set("slit-square", 1.0 / 32.0, margin_cells=4),
    slit_cube_8,
], ids=["slit-square-32", "slit-cube-8"])
def test_side_weights_are_extended_divergence_where_sides_differ(build):
    # the jump construction of the trace: where a facet's two values
    # differ, the weight of each legal side is its negated facet atom in
    # the divergence of the zero extension
    from roughgg.dmfield import extend_by_zero

    set_ = build()
    F = random_facet_noise(set_, seed=17)
    tm = trace_measure(F)
    weights = tm.side_weights
    div = divergence_measure(extend_by_zero(F))
    checked = 0
    for a in range(set_.grid.n):
        differ = F.vminus[a] != F.vplus[a]
        for side, mask, atoms in ((MINUS, tm.topology.minus[a], div.facet_minus[a]),
                                  (PLUS, tm.topology.plus[a], div.facet_plus[a])):
            for i in np.argwhere(mask & differ):
                idx = tuple(int(v) for v in i)
                assert weights.get((a, idx, side), 0.0) == -atoms[idx]
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("field", ["constant", "separated-smooth"])
def test_decomposed_solve_where_cracks_enclose_regions(field):
    # the Cantor cracks close off squares, so the cut-edge box graph has
    # several components; compatible data balances on each of them
    from roughgg.fields import separated_smooth_field

    set_ = preset_set("cantor-cross", 1.0 / 36.0, k=2, margin_cells=4)
    f = constant_field([0.6, -0.8]) if field == "constant" else separated_smooth_field()
    td = trace_measure(sample_field(f, set_, 1.0))
    rep = solve_decomposed(set_, td)
    assert verify_solution(rep, set_, td)["pass"]
    direct = trace_measure(solve_direct(set_, td).F)
    got = trace_measure(rep.F)
    for (*_, want), (*_, have) in zip(direct.slots(), got.slots()):
        assert np.allclose(have, want, rtol=0, atol=1e-8)


# --- the lean assembly and audits against their first forms ---------------
#
# The references are the solver's first implementations: the Laplacian
# assembled from int64 COO edge lists, aggregates found on a COO graph,
# the Galerkin product as a remapped COO summed by ``tocsr``, and audits
# read off a whole ``divergence_measure`` and ``trace_measure``.  The
# solver must reproduce each of them array for array.


def ref_laplacian(cells, edge_masks):
    """Grounded Laplacian, component labels and node coordinates."""
    node_id = -np.ones(cells.shape, dtype=np.int64)
    idx = np.argwhere(cells)
    node_id[tuple(idx.T)] = np.arange(idx.shape[0])
    n_nodes = idx.shape[0]
    rows, cols = [], []
    for a in range(cells.ndim):
        lo_ids, up_ids = lift(node_id, a, -1)
        em = edge_masks[a] & (lo_ids >= 0) & (up_ids >= 0)
        rows.append(lo_ids[em])
        cols.append(up_ids[em])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    ones = np.ones(rows.shape[0])
    _, comp = sp.csgraph.connected_components(
        sp.coo_matrix((ones, (rows, cols)), shape=(n_nodes, n_nodes)), directed=False)
    deg = np.bincount(rows, minlength=n_nodes) + np.bincount(cols, minlength=n_nodes)
    _, first = np.unique(comp, return_index=True)
    deg[first] += 1
    diag = np.arange(n_nodes)
    lap = sp.csr_matrix(
        (np.concatenate([-ones, -ones, deg]),
         (np.concatenate([rows, cols, diag]), np.concatenate([cols, rows, diag]))),
        shape=(n_nodes, n_nodes))
    return lap, comp, idx


def ref_aggregate(A, coords):
    coo = A.tocoo()
    block = coords // 2
    bid = np.ravel_multi_index(tuple(block.T), tuple(block.max(axis=0) + 1))
    inner = (coo.row != coo.col) & (bid[coo.row] == bid[coo.col])
    graph = sp.coo_matrix((coo.data[inner], (coo.row[inner], coo.col[inner])), shape=A.shape)
    n_agg, agg = sp.csgraph.connected_components(graph, directed=False)
    coarse = np.empty((n_agg, coords.shape[1]), dtype=coords.dtype)
    coarse[agg] = block
    return agg, coarse


def ref_galerkin(A, agg, n_agg):
    coo = A.tocoo()
    return sp.csr_matrix((coo.data, (agg[coo.row], agg[coo.col])), shape=(n_agg, n_agg))


def ref_hierarchy(A, coords, coarse_size):
    """[(A, agg, n_agg) per level], coarsest matrix."""
    levels = []
    while A.shape[0] > coarse_size:
        agg, coarse_coords = ref_aggregate(A, coords)
        n_agg = coarse_coords.shape[0]
        if n_agg > ds._STALL * A.shape[0]:
            break
        levels.append((A, agg, n_agg))
        A, coords = ref_galerkin(A, agg, n_agg), coarse_coords
    return levels, A


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_same_hierarchy(cells, edge_masks, coarse_size=16):
    lap, n_comp, comp, coords = ds._laplacian(cells, edge_masks)
    want, want_comp, want_coords = ref_laplacian(cells, edge_masks)
    assert_same_csr(lap, want)
    assert lap.indices.dtype == np.int32 and lap.indptr.dtype == np.int32
    assert np.array_equal(comp, want_comp) and n_comp == want_comp.max() + 1
    assert np.array_equal(coords, want_coords)
    with patch.object(ds, "COARSE_SIZE", coarse_size):
        vcycle = ds._AggregationVCycle(lap, coords)
    want_levels, want_coarse = ref_hierarchy(want, want_coords, coarse_size)
    assert len(vcycle.levels) == len(want_levels)
    coarse = lap
    for (A, wdinv, agg, n_agg), (ref_A, ref_agg, ref_n) in zip(vcycle.levels, want_levels):
        assert_same_csr(A, ref_A)
        assert np.array_equal(wdinv, ds._OMEGA / ref_A.diagonal())
        assert np.array_equal(agg, ref_agg) and n_agg == ref_n
        coarse = ds._galerkin(A, agg, n_agg)
    assert_same_csr(coarse, want_coarse)


def box_cut_masks(set_):
    """Edge masks of the decomposed solve's first step: the whole box, cut
    along the cracks."""
    box = RoughSet(set_.grid, np.ones(set_.grid.extents, dtype=bool))
    return box.cells, [box.topology.interior[a] & ~set_.cracks.masks[a]
                       for a in range(set_.grid.n)]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_hierarchy_matches_coo_reference_on_presets(name):
    set_ = preset_set(name, 1.0 / 32.0, margin_cells=4)
    assert_same_hierarchy(set_.cells, set_.topology.interior)
    assert_same_hierarchy(*box_cut_masks(set_))
    # at the solver's own coarsening threshold as well
    assert_same_hierarchy(set_.cells, set_.topology.interior, ds.COARSE_SIZE)


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hierarchy_matches_coo_reference_on_random_cracked_domains(n, data):
    set_ = data.draw(cracked_domains(dims=(n,)), label="set_")
    assert_same_hierarchy(set_.cells, set_.topology.interior)
    assert_same_hierarchy(*box_cut_masks(set_))


def ref_audit(F, td):
    """(interior residual, trace L-inf gap, trace L1 gap)."""
    div = divergence_measure(F)
    residual = float(np.abs(div.cell_weights).max()) / F.grid.facet_area
    linf = l1 = 0.0
    for (_a, _side, mask, want), (*_, got) in zip(td.slots(), trace_measure(F).slots()):
        gap = np.abs(got - want)
        if mask.any():
            linf = max(linf, float(gap[mask].max()))
            l1 += float(gap[mask].sum()) * F.grid.facet_area
    return residual, linf, l1


def ref_verify(report, set_, td):
    F = report.F
    div = divergence_measure(F)
    tv_inside = float(np.abs(div.cell_weights[set_.cells]).sum())
    scale = max(1.0, td.sup()) * max(1, set_.cell_count)
    div_ok = tv_inside / F.grid.facet_area <= 1e-10 * scale * 100.0
    offenders = []
    bar = 1e-8 * max(1.0, td.sup())
    for (a, side, mask, want), (*_, got) in zip(td.slots(), trace_measure(F).slots()):
        gap = np.abs(got - want)
        bad = np.flatnonzero(mask & (gap > bar))
        for f in bad[np.argsort(-gap.flat[bad], kind="stable")[:3]]:
            idx = tuple(int(v) for v in np.unravel_index(f, gap.shape))
            offenders.append(((a, idx, side), float(gap.flat[f])))
    offenders.sort(key=lambda kv: -kv[1])
    return {"pass": div_ok and not offenders, "interior_tv": tv_inside, "div_ok": div_ok,
            "trace_ok": not offenders, "worst_offenders": offenders[:3]}


def perturb_sides(F, seed):
    """Shift a few legal sides of every slot, some by equal amounts (ties
    for the stable ordering of ``worst_offenders``)."""
    rng = np.random.default_rng(seed)
    bad = copy_field(F)
    top = F.topology
    for a in range(F.grid.n):
        for mask, arr in ((top.minus[a], bad.vminus[a]), (top.plus[a], bad.vplus[a])):
            slots = np.flatnonzero(mask)
            if slots.size == 0:
                continue
            picks = rng.choice(slots, size=min(6, slots.size), replace=False)
            shift = rng.uniform(-1.0, 1.0, size=picks.size)
            shift[: picks.size // 2] = 0.5
            arr.flat[picks] += shift
    return bad


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_audits_match_measure_reference(name, monkeypatch):
    set_ = preset_set(name, 1.0 / 32.0, margin_cells=4)
    td = trace_measure(sample_field(separated_smooth_field(), set_, 1.0))
    for solver in (solve_direct, solve_decomposed):
        rep = solver(set_, td)
        assert (rep.interior_div_residual, rep.trace_linf_gap,
                rep.trace_l1_gap) == ref_audit(rep.F, td)
        assert verify_solution(rep, set_, td) == ref_verify(rep, set_, td)
        bad = perturb_sides(rep.F, seed=len(name))
        # a tolerance the perturbed balance passes, so _audit reports it
        with monkeypatch.context() as m:
            m.setattr(ds, "_AUDIT_TOL", 1e6)
            got = ds._audit(bad, td, "DIRECT", [])
        assert (got.interior_div_residual, got.trace_linf_gap,
                got.trace_l1_gap) == ref_audit(bad, td)
        bad_rep = SolveReport(F=bad, interior_div_residual=0.0, trace_linf_gap=0.0,
                              trace_l1_gap=0.0, mode="DIRECT", kappa=1.0)
        want = ref_verify(bad_rep, set_, td)
        assert len(want["worst_offenders"]) == 3
        assert verify_solution(bad_rep, set_, td) == want


def test_audits_refuse_a_set_touching_the_grid_edge():
    grid = preset_set("square", 1.0 / 8.0, margin_cells=4).grid
    set_ = RoughSet(grid, np.ones(grid.extents, dtype=bool))
    td = TraceData(set_)
    with pytest.raises(InputError):
        trace_measure(FluxField(set_, 1.0))
    with pytest.raises(InputError):
        solve_direct(set_, td)
    rep = SolveReport(F=FluxField(set_, 1.0), interior_div_residual=0.0, trace_linf_gap=0.0,
                      trace_l1_gap=0.0, mode="DIRECT", kappa=0.0)
    with pytest.raises(InputError):
        verify_solution(rep, set_, td)


@pytest.mark.parametrize("solver, budget", [(solve_direct, 280), (solve_decomposed, 330)],
                         ids=["direct", "decomposed"])
def test_solve_memory_per_cell(solver, budget, square_32):
    # traced bytes at the peak of a solve and its audit, and those the
    # returned report still holds (its field is about 34), per body cell
    # on slit-square 1/128 (65,536 cells); a first small solve keeps lazy
    # imports and caches out of the count
    small = left_right_data(square_32)
    verify_solution(solver(square_32, small), square_32, small)
    set_ = preset_set("slit-square", 1.0 / 128.0, margin_cells=4)
    td = trace_measure(sample_field(slit_jump_field(), set_, 1.0))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = solver(set_, td)
        held = tracemalloc.get_traced_memory()[0] - base
        assert verify_solution(rep, set_, td)["pass"]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak / set_.cell_count <= budget
    assert held / set_.cell_count <= 48
