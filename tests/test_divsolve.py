import numpy as np
import pytest

from roughgg.divsolve import (
    TraceData,
    is_compatible,
    solve_decomposed,
    solve_direct,
    verify_solution,
)
from roughgg.dmfield import divergence_measure, sample_field, trace_measure
from roughgg.domain import preset_set
from roughgg.errors import CompatibilityError, InputError
from roughgg.fields import slit_jump_field
from roughgg.gridcore import MINUS, PLUS

from conftest import constant_field, random_facet_noise


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
    G, h_arrays, Fhat = rep.intermediate
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
    bad = rep.F.copy()
    interior = bad.topology.interior[0]
    idx = tuple(np.argwhere(interior)[interior.sum() // 2])
    bad.vminus[0][idx] += 1.0
    bad.vplus[0][idx] += 1.0
    from roughgg.divsolve import SolveReport

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
    from roughgg.divsolve import _gradient_fluxes, _laplacian_solve

    td = left_right_data(square_32)
    topo = facet_topology(square_32)
    b = -square_32.grid.spacing * td.inflow_per_cell()
    b[~square_32.cells] = 0.0
    u, _, _ = _laplacian_solve(square_32.cells, topo.interior, b, 1e-10)
    shifted = u + np.where(square_32.cells, 17.25, 0.0)
    f1 = _gradient_fluxes(square_32.grid, topo.interior, u, square_32.grid.spacing)
    f2 = _gradient_fluxes(square_32.grid, topo.interior, shifted, square_32.grid.spacing)
    for a in range(2):
        assert np.allclose(f1[a], f2[a], atol=1e-9)


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
