import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughgg.divsolve import solve_decomposed
from roughgg.dmfield import (
    FluxField,
    TestFunction,
    TraceData,
    _facet_pairing,
    _midpoint_phi,
    default_phi_basis,
    divergence_measure,
    extend_by_zero,
    extension_bound_check,
    gauss_green_residual,
    interior_normal_trace,
    mollify_field,
    normal_trace_pairing,
    product_rule_check,
    sample_field,
    trace_linfinity_check,
    trace_measure,
    trace_weak_convergence,
)
from roughgg.domain import PRESET_NAMES, RoughSet, preset_set
from roughgg.errors import InputError
from roughgg.fields import (
    linear_field,
    seeded_trig_field,
    separated_smooth_field,
    slit_jump_field,
)
from roughgg.gridcore import MINUS, PLUS, FacetArrays, side_orient

from conftest import (constant_field, copy_field, cracked_domains, measure_total,
                      random_facet_noise)


@pytest.fixture(scope="module")
def slit_field(slit_square_32):
    return sample_field(slit_jump_field(), slit_square_32, 1.0)


def cell_mesh(set_):
    return np.stack(np.broadcast_arrays(*set_.grid.cell_center_mesh()), axis=-1)


# --- test functions -------------------------------------------------------


def _stacked_term(X, coef, powers):
    """Coefficient, then axis 0, 1, ... on stacked (..., n) coordinates:
    the arithmetic ``TestFunction`` used before it took per-axis arrays."""
    out = coef * np.ones(X.shape[:-1])
    for a, p in enumerate(powers):
        if p:
            out = out * X[..., a] ** p
    return out


def _grad(phi, X):
    """Reference gradient of a monomial on stacked coordinates (..., n)."""
    g = np.zeros(X.shape)
    for a, e in enumerate(phi.exponents):
        if e:
            g[..., a] = _stacked_term(X, e, [p - (b == a) for b, p in enumerate(phi.exponents)])
    return g


def _audit(phi, X, step):
    """Max relative gap between the analytic gradient of ``phi`` and
    central differences at the given step, at stacked points (..., n)."""
    coords = [X[..., a] for a in range(X.shape[-1])]
    g = [phi.grad_component(coords, a) for a in range(len(coords))]
    scale = max(float(np.max(np.abs(ga))) for ga in g) + 1.0
    worst = 0.0
    for a in range(len(coords)):
        hi, lo = list(coords), list(coords)
        hi[a], lo[a] = coords[a] + step, coords[a] - step
        fd = (phi.value(hi) - phi.value(lo)) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(fd - g[a]))) / scale)
    return worst


def test_phi_gradient_audit(square_32):
    grid = square_32.grid
    pts = np.stack(np.broadcast_arrays(*grid.cell_center_mesh()), axis=-1)
    for phi in default_phi_basis(grid):
        assert _audit(phi, pts, grid.spacing / 8.0) <= 1e-6
    # cubic members need a finer step for the same relative bar
    fine = preset_set("square", 1.0 / 128.0, margin_cells=4)
    pts_f = np.stack(np.broadcast_arrays(*fine.grid.cell_center_mesh()), axis=-1)
    for phi in default_phi_basis(fine.grid, degree=3):
        assert _audit(phi, pts_f, fine.grid.spacing / 8.0) <= 1e-6


def test_grad_component_matches_grad_exactly():
    grid = preset_set("square", 1.0 / 16.0, margin_cells=4).grid
    rng = np.random.default_rng(7)
    for n in (2, 3):
        # points inside and well outside the grid box, as equal-shape
        # per-axis arrays and as 1-D gathers
        X = rng.uniform(-8.0, 8.0, size=(40, 7, n))
        basis = default_phi_basis(grid, degree=3) if n == 2 else [
            TestFunction(e) for e in ((0, 0, 0), (1, 2, 0), (0, 1, 3))]
        for phi in basis:
            g = _grad(phi, X)
            for pts in (X, X.reshape(-1, n)):
                coords = [pts[..., a] for a in range(n)]
                assert np.array_equal(phi.value(coords), _stacked_term(pts, 1, phi.exponents))
                for a in range(n):
                    assert np.array_equal(phi.grad_component(coords, a),
                                          g.reshape(pts.shape)[..., a])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 4, 2.5, "3"])
def test_phi_basis_degree_is_two_or_three(n, degree):
    grid = (preset_set("square", 1.0 / 16.0, margin_cells=4) if n == 2
            else _slit_cube()).grid
    with pytest.raises(InputError):
        default_phi_basis(grid, degree=degree)
    assert len(default_phi_basis(grid, degree=3)) > len(default_phi_basis(grid))


@pytest.mark.parametrize("n", [2, 3])
def test_phi_basis_names_do_not_depend_on_grid_extent(n):
    import json

    from roughgg.domain import make_grid, parse_domain, preset_spec

    spec = preset_spec("disk") if n == 2 else parse_domain(json.dumps(
        {"shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]}}))
    tight, wide = (make_grid(spec, 1.0 / 8.0, margin_cells=m) for m in (1, 40))
    assert np.max(np.abs(wide.bounds())) > 5.0 * np.max(np.abs(tight.bounds()))
    for degree in (2, 3):
        names = [phi.name for phi in default_phi_basis(tight, degree)]
        assert names == [phi.name for phi in default_phi_basis(wide, degree)]
        assert len(names) == 6 + (3 if n == 2 else 2) * (degree - 2)


# --- sampling -------------------------------------------------------------


def test_sample_slit_field_one_sided(slit_square_32, slit_field):
    F = slit_field
    crack = F.topology.crack[1]
    assert np.all(F.vplus[1][crack] == 1.0)
    assert np.all(F.vminus[1][crack] == -1.0)


def test_sample_zero_field(square_32):
    F = sample_field(constant_field([0.0, 0.0]), square_32, 1.0)
    assert all(not F.vminus[a].any() for a in range(2))


def test_sample_bound_enforced(square_32):
    with pytest.raises(InputError):
        sample_field(linear_field(), square_32, 0.5)
    F = sample_field(linear_field(), square_32, 1.5)
    F.check_bound()


def test_sample_rejects_non_finite_values(slit_square_32):
    # NaN compares False against any bound, so it is refused by name
    def nan_right(X):
        return np.where(X[..., :1] > 0.3, np.nan, 1.0) * np.ones(X.shape)

    with pytest.raises(InputError, match="non-finite"):
        sample_field(nan_right, slit_square_32, 1.0)
    F = sample_field(constant_field([1.0, 1.0]), slit_square_32, 1.0)
    F.vplus[1][F.topology.crack[1]] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        F.check_bound()


def _sample_whole_mesh(f, set_, sup_bound):
    """Reference sampler: f on every facet centre of each axis, and on a
    cracked axis on every centre shifted a quarter cell down and up, of
    which only the crack facets are kept."""
    grid = set_.grid
    F = FluxField(set_, sup_bound)
    for a in range(grid.n):
        X = np.stack(np.broadcast_arrays(*grid.facet_center_mesh(a)), axis=-1)
        F.vminus[a][...] = np.asarray(f(X))[..., a]
        F.vplus[a][...] = F.vminus[a]
        crack = F.topology.crack[a]
        if crack.any():
            off = np.zeros(grid.n)
            off[a] = 0.25 * grid.spacing
            F.vminus[a][crack] = np.asarray(f(X - off))[..., a][crack]
            F.vplus[a][crack] = np.asarray(f(X + off))[..., a][crack]
    F.restrict().check_bound()
    return F


def _fill_whole_mesh(td, fn):
    """Reference prescription: fn on every facet centre, kept on the legal
    sides only."""
    for a, side, mask, arr in td.slots():
        X = np.stack(np.broadcast_arrays(*td.grid.facet_center_mesh(a)), axis=-1)
        nu = np.zeros(td.grid.n)
        nu[a] = side_orient(side)
        arr[mask] = fn(X, nu)[mask]
    return td


def _sampling_domain(name):
    return _slit_cube() if name == "slit-cube-8" else preset_set(name, 1.0 / 32.0,
                                                                   margin_cells=4)


def _affine_field(n):
    rng = np.random.default_rng(5)
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    b = rng.uniform(-1.0, 1.0, size=n)
    return lambda X: X @ A.T + b


SAMPLING_DOMAINS = list(PRESET_NAMES) + ["slit-cube-8"]
SAMPLED_FIELDS = {
    "slit-jump": slit_jump_field,
    "separated-smooth": separated_smooth_field,
    "linear": linear_field,
    "seeded-trig": lambda: seeded_trig_field(4),
}


@pytest.mark.parametrize("domain", SAMPLING_DOMAINS)
def test_sampling_on_slots_matches_the_whole_mesh(domain):
    set_ = _sampling_domain(domain)
    fields = {name: make() for name, make in SAMPLED_FIELDS.items()}
    fields["affine"] = _affine_field(set_.grid.n)
    for name, f in fields.items():
        got, want = sample_field(f, set_, 10.0), _sample_whole_mesh(f, set_, 10.0)
        for a in range(set_.grid.n):
            for g, w in ((got.vminus[a], want.vminus[a]), (got.vplus[a], want.vplus[a])):
                assert g.tobytes() == w.tobytes(), (name, a)

        def fn(X, nu):
            return f(X) @ nu

        got, want = TraceData(set_).fill(fn), _fill_whole_mesh(TraceData(set_), fn)
        for a in range(set_.grid.n):
            for g, w in ((got.gminus[a], want.gminus[a]), (got.gplus[a], want.gplus[a])):
                assert g.tobytes() == w.tobytes(), (name, a)


def _facet_index(grid, axis, X):
    """Integer facet indices of axis-``axis`` facet centres X, or of
    points a quarter cell off them along the axis."""
    shift = np.full(grid.n, 0.5)
    shift[axis] = 0.0
    idx = np.rint((X - np.asarray(grid.origin)) / grid.spacing - shift).astype(int)
    return tuple(idx.T)


@pytest.mark.parametrize("domain", ["slit-square", "cantor-cross", "l-shape", "slit-cube-8"])
def test_sample_field_calls_f_on_live_and_crack_points_only(domain):
    set_ = _sampling_domain(domain)
    grid, top = set_.grid, set_.topology
    calls = []

    def f(X):
        calls.append(X.copy())
        return np.zeros(X.shape)

    sample_field(f, set_, 1.0)
    want = []
    for a in range(grid.n):
        live = top.interior[a] | top.boundary[a]
        want.append((a, live, 0.0))
        if top.crack[a].any():
            want += [(a, top.crack[a], -0.25), (a, top.crack[a], 0.25)]
    assert len(calls) == len(want)
    for X, (a, mask, shift) in zip(calls, want):
        assert X.ndim == 2 and X.shape == (int(mask.sum()), grid.n)
        centre = X.copy()
        centre[:, a] -= shift * grid.spacing
        hit = np.zeros(mask.shape, dtype=bool)
        hit[_facet_index(grid, a, centre)] = True
        assert np.array_equal(hit, mask)


@pytest.mark.parametrize("domain", ["slit-square", "cantor-cross", "disk", "slit-cube-8"])
def test_fill_calls_fn_on_legal_sides_only(domain):
    set_ = _sampling_domain(domain)
    grid = set_.grid
    calls = []

    def fn(X, nu):
        calls.append((X.copy(), nu.copy()))
        return np.ones(X.shape[0])

    td = TraceData(set_).fill(fn)
    slots = [(a, side, mask) for a, side, mask, _ in td.slots() if mask.any()]
    assert len(calls) == len(slots)
    for (X, nu), (a, side, mask) in zip(calls, slots):
        assert X.shape == (int(mask.sum()), grid.n)
        assert np.array_equal(nu, np.eye(grid.n)[a] * side_orient(side))
        hit = np.zeros(mask.shape, dtype=bool)
        hit[_facet_index(grid, a, X)] = True
        assert np.array_equal(hit, mask)
    for a, _, mask, arr in td.slots():
        assert np.array_equal(arr != 0.0, mask)


# --- divergence -----------------------------------------------------------


def test_divergence_slit_field_vanishes(slit_field):
    m = divergence_measure(slit_field)
    assert m.total_variation == 0.0


def test_divergence_linear_field(square_32):
    F = sample_field(linear_field(), square_32, 1.5)
    m = divergence_measure(F)
    vol = square_32.grid.cell_volume
    w = m.cell_weights[square_32.cells] / vol
    assert np.allclose(w, 2.0)
    assert measure_total(m) == pytest.approx(2.0 * square_32.volume)


def test_divergence_constant_field(square_32):
    F = sample_field(constant_field([0.7, -0.3]), square_32, 1.0)
    assert divergence_measure(F).total_variation == pytest.approx(0.0, abs=1e-12)


def test_signed_measure_invariants(square_32):
    F = random_facet_noise(square_32, seed=3)
    m = divergence_measure(F)
    assert m.total_variation == pytest.approx(
        float(np.abs(m.cell_weights).sum()), rel=1e-12
    )
    # single-valued interior facets: no facet atoms on the field's own domain
    assert not any(f.any() for f in m.facet_minus + m.facet_plus)


# --- extension ------------------------------------------------------------


def test_extension_slit_atoms_exact(slit_square_32, slit_field):
    dx = slit_square_32.grid.spacing
    m = divergence_measure(extend_by_zero(slit_field))
    grid = slit_square_32.grid
    crack_vals = []
    edge_vals = []
    for a in range(2):
        net = m.facet_minus[a] + m.facet_plus[a]
        y = np.broadcast_to(grid.facet_center_mesh(a)[1], net.shape)
        on_slit = np.abs(y) < 1e-12 if a == 1 else np.zeros(net.shape, dtype=bool)
        crack_vals += list(net[(net != 0.0) & on_slit])
        edge_vals += list(net[(net != 0.0) & ~on_slit])
    assert crack_vals and np.allclose(crack_vals, 2.0 * dx)
    assert np.allclose(np.abs(edge_vals), dx)
    assert m.total_variation == pytest.approx(8.0)
    assert measure_total(m) == pytest.approx(0.0, abs=1e-12)


def test_extension_zero_field(square_32):
    F = sample_field(constant_field([0.0, 0.0]), square_32, 1.0)
    assert divergence_measure(extend_by_zero(F)).total_variation == 0.0


@pytest.mark.parametrize("edge", [(0, 0), (1, -1)], ids=["axis0-low", "axis1-high"])
@pytest.mark.parametrize("build", [
    lambda s: extend_by_zero(FluxField(s, 1.0)),
    lambda s: solve_decomposed(s, TraceData(s)),
    lambda s: trace_measure(FluxField(s, 1.0)),
], ids=["extend_by_zero", "solve_decomposed", "trace_measure"])
def test_grid_must_strictly_contain_the_set(square_32, build, edge):
    # zero extension needs a layer of grid cells outside the body
    axis, index = edge
    cells = square_32.cells.copy()
    np.moveaxis(cells, axis, 0)[index] = True
    with pytest.raises(InputError):
        build(RoughSet(square_32.grid, cells))


# --- pairings and summation by parts --------------------------------------


def test_pairing_slit_constant_phi(slit_field, slit_square_32):
    basis = default_phi_basis(slit_square_32.grid)
    one = basis[0]
    assert normal_trace_pairing(slit_field, one) == pytest.approx(0.0, abs=1e-12)
    x2sq = [p for p in basis if p.name == "x^0,2"][0]
    assert normal_trace_pairing(slit_field, x2sq) == pytest.approx(4.0, abs=1e-12)


def test_summation_by_parts_exact(slit_square_32):
    # the pairing is exact for any bounded field against the degree-2
    # basis, whose gradients are affine (cubic members are not exact)
    for seed in range(3):
        F = random_facet_noise(slit_square_32, seed=seed)
        tm = trace_measure(F)
        for phi in default_phi_basis(slit_square_32.grid):
            lhs = normal_trace_pairing(F, phi)
            rhs = tm.integrate(phi)
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_gauss_green_up_to_the_boundary_on_random_cracked_domains(n, data, seed):
    # an arbitrary bounded field: every facet side is drawn on its own, so
    # each crack facet carries a jump
    set_ = data.draw(cracked_domains(dims=(n,)), label="set_")
    F = random_facet_noise(set_, seed=seed)
    tm = trace_measure(F)
    for phi in default_phi_basis(set_.grid):
        rhs = tm.integrate(phi)
        assert abs(normal_trace_pairing(F, phi) - rhs) <= 1e-12 * (1.0 + abs(rhs))


# --- trace measures --------------------------------------------------------


def test_trace_slit_exact(slit_square_32, slit_field):
    tm = trace_measure(slit_field)
    grid = slit_square_32.grid
    for a in range(2):
        support = tm.topology.minus[a] | tm.topology.plus[a]
        g_pair = tm.net(a)[support]
        y = np.broadcast_to(grid.facet_center_mesh(a)[1], support.shape)[support]
        if a == 1:
            slit = np.abs(y) < 1e-12
            assert slit.any() and np.allclose(g_pair[slit], -2.0, rtol=0.0, atol=1e-12)
            assert np.allclose(g_pair[~slit], 1.0, rtol=0.0, atol=1e-12)
        else:
            assert np.allclose(g_pair, 0.0, rtol=0.0, atol=1e-12)
    assert tm.g_infinity == 2.0
    assert tm.eq_mixed_gap == 0.0
    assert tm.integral == pytest.approx(0.0, abs=1e-12)


def test_trace_unit_field_square(square_32):
    F = sample_field(constant_field([1.0, 0.0]), square_32, 1.0)
    tm = trace_measure(F)
    grid = square_32.grid
    for (a, idx, _s), w in tm.side_weights.items():
        x = grid.facet_center(a, idx)
        g = w / grid.facet_area
        if a == 0 and x[0] < 0:
            assert g == pytest.approx(-1.0)
        elif a == 0:
            assert g == pytest.approx(1.0)
        else:
            assert g == pytest.approx(0.0, abs=1e-12)


def test_trace_zero_field_empty(square_32):
    F = sample_field(constant_field([0.0, 0.0]), square_32, 1.0)
    assert trace_measure(F).side_weights == {}


def test_trace_linearity(slit_square_32):
    Fa = random_facet_noise(slit_square_32, seed=11)
    Fb = random_facet_noise(slit_square_32, seed=12)
    Fc = copy_field(Fa)
    for a in range(2):
        Fc.vminus[a] = 2.0 * Fa.vminus[a] - 3.0 * Fb.vminus[a]
        Fc.vplus[a] = 2.0 * Fa.vplus[a] - 3.0 * Fb.vplus[a]
    Fc.sup_bound = 5.0
    ta, tb, tc = (trace_measure(f) for f in (Fa, Fb, Fc))
    keys = set(ta.side_weights) | set(tb.side_weights) | set(tc.side_weights)
    for key in keys:
        expect = 2.0 * ta.side_weights.get(key, 0.0) - 3.0 * tb.side_weights.get(key, 0.0)
        assert tc.side_weights.get(key, 0.0) == pytest.approx(expect, abs=1e-12)


def test_trace_concentration(slit_square_32):
    # support sides always belong to body cells, never exterior ones
    F = random_facet_noise(slit_square_32, seed=5)
    tm = trace_measure(F)
    for (a, idx, side) in tm.side_weights:
        cell = list(idx)
        if side == MINUS:  # the MINUS side belongs to the lower cell
            cell[a] -= 1
        assert slit_square_32.cells[tuple(cell)]


def test_trace_linf_check(slit_field, slit_square_32):
    tm = trace_measure(slit_field)
    rep = trace_linfinity_check(tm, slit_field)
    assert rep["ratio"] == pytest.approx(2.0)
    F0 = sample_field(constant_field([0.0, 0.0]), slit_square_32, 1.0)
    rep0 = trace_linfinity_check(trace_measure(F0), F0)
    assert rep0["ratio"] == 0.0


# --- Gauss-Green residuals --------------------------------------------------


def test_gauss_green_exact_slit(slit_field):
    tm = trace_measure(slit_field)
    for phi in default_phi_basis(slit_field.grid):
        assert gauss_green_residual(slit_field, phi, tm) <= 1e-9


def test_gauss_green_zero_field(square_32):
    F = sample_field(constant_field([0.0, 0.0]), square_32, 1.0)
    tm = trace_measure(F)
    phi = default_phi_basis(square_32.grid)[0]
    assert gauss_green_residual(F, phi, tm) == 0.0


def test_gauss_green_smooth_refines():
    cubic = TestFunction((0, 3))
    res = []
    for denom in (16, 32, 64):
        set_ = preset_set("disk", 1.0 / denom, margin_cells=4)
        F = sample_field(separated_smooth_field(), set_, 1.0)
        res.append(gauss_green_residual(F, cubic, trace_measure(F)))
    slope = np.polyfit(np.log([1 / 16, 1 / 32, 1 / 64]), np.log(res), 1)[0]
    assert slope >= 0.9


# --- interior traces --------------------------------------------------------


def test_interior_trace_subsquare():
    set_ = preset_set("square", 1.0 / 64.0, margin_cells=4)
    F = sample_field(constant_field([1.0, 0.0]), set_, 1.0)
    X = cell_mesh(set_)
    E = (np.abs(X[..., 0]) < 0.5) & (np.abs(X[..., 1]) < 0.5)
    rep = interior_normal_trace(F, E)
    assert rep.gate_passed
    area = set_.grid.facet_area
    lefts, rights = [], []
    for (a, idx), w in rep.atoms.items():
        x = set_.grid.facet_center(a, idx)
        if a == 0:
            (lefts if x[0] < 0 else rights).append(w / area)
        else:
            assert abs(w / area) <= 0.03
    # corner facets deviate; the edge means carry the half-density value
    assert np.mean(lefts) == pytest.approx(0.5, abs=0.05 * 0.5)
    assert np.mean(rights) == pytest.approx(-0.5, abs=0.05 * 0.5)


def test_interior_trace_divergence_free_total(disk_64):
    F = sample_field(separated_smooth_field(), disk_64, 1.0)
    X = cell_mesh(disk_64)
    E = (np.abs(X[..., 0]) < 0.4) & (np.abs(X[..., 1]) < 0.4)
    rep = interior_normal_trace(F, E)
    total = sum(rep.atoms.values())
    assert abs(total) <= 1e-3


def test_interior_trace_staircase_diagonal():
    set_ = preset_set("square", 1.0 / 128.0, margin_cells=4)
    F = sample_field(constant_field([1.0, 0.0]), set_, 1.0)
    X = cell_mesh(set_)
    E = (X[..., 0] + X[..., 1] < 0.0) & (np.max(np.abs(X), axis=-1) < 0.75)
    rep = interior_normal_trace(F, E)
    # flux through the diagonal face: the sloped part of dE carries
    # total chi-pairing mass ~ -(1/2) * flux = -(1/2) * sqrt(2)*L*cos45
    diag_total = sum(w for (a, idx), w in rep.atoms.items()
                     if a == 0 and abs(set_.grid.facet_center(a, idx)[0]
                                       + set_.grid.facet_center(a, idx)[1]) < 0.05)
    flux = 1.0 * 1.5  # horizontal field through the diagonal of length 1.5*sqrt2
    assert -2.0 * diag_total == pytest.approx(flux, rel=0.05)


@pytest.fixture(scope="module")
def slit_disk_trig():
    set_ = preset_set("slit-disk", 1.0 / 128.0)
    return sample_field(seeded_trig_field(0), set_, 1.0)


@pytest.mark.parametrize("cells", [32, 8])
def test_interior_trace_gate_follows_the_fitted_order(slit_disk_trig, cells):
    # E_delta of the slit disk: at 32 dx the x^1,0 pairing converges faster
    # than second order (steps 3.73e-3 then 6.77e-4), which the gate must
    # pass; at 8 dx the x^0,1 steps grow (1.37e-4 then 2.53e-4), which it
    # must fail
    from roughgg.approx import interior_approximation

    F = slit_disk_trig
    E = interior_approximation(F.set, cells * F.grid.spacing).e_cells
    rep = interior_normal_trace(F, E)
    rows = {r["phi"]: r for r in rep.gate_details}
    for r in rows.values():
        steps = abs(r["coarse"] - r["mid"]), abs(r["mid"] - r["fine"])
        assert r["ok"] == (steps[1] <= 0.75 * steps[0])
    if cells == 32:
        assert rows["x^1,0"]["order"] > 2.0
        assert rep.gate_passed
    else:
        assert rows["x^0,1"]["order"] < 0.0
        assert not rows["x^0,1"]["ok"]
        assert not rep.gate_passed


def test_interior_trace_preconditions(square_32):
    F = sample_field(constant_field([1.0, 0.0]), square_32, 1.0)
    not_contained = square_32.cells.copy()
    with pytest.raises(InputError):
        interior_normal_trace(F, not_contained)


def test_interior_trace_rejects_crack_overlap(slit_square_32, slit_field):
    X = cell_mesh(slit_square_32)
    E = (np.abs(X[..., 0]) < 0.5) & (np.abs(X[..., 1]) < 0.5)
    with pytest.raises(InputError):
        interior_normal_trace(slit_field, E)


# --- mollification -----------------------------------------------------------


def test_mollify_constant_unchanged(slit_square_32):
    F = sample_field(constant_field([0.4, -0.2]), slit_square_32, 1.0)
    Fe = mollify_field(F, 8 * slit_square_32.grid.spacing)
    for a in range(2):
        assert np.allclose(Fe.vminus[a], F.vminus[a], atol=1e-12)
        assert np.allclose(Fe.vplus[a], F.vplus[a], atol=1e-12)


def test_mollify_contraction(slit_square_32):
    for seed in range(3):
        F = random_facet_noise(slit_square_32, seed=seed)
        Fe = mollify_field(F, 4 * slit_square_32.grid.spacing)
        assert Fe.sup_bound <= F.sup_bound
        for a in range(2):
            assert np.abs(Fe.vminus[a]).max() <= F.sup_bound * (1 + 1e-12)


def test_mollify_preserves_slit_jump(slit_field, slit_square_32):
    Fe = mollify_field(slit_field, 4 * slit_square_32.grid.spacing)
    crack = Fe.topology.crack[1]
    assert np.all(Fe.vplus[1][crack] == 1.0)
    assert np.all(Fe.vminus[1][crack] == -1.0)
    # interior divergence stays zero on an interior window at both widths
    for mult in (4, 2):
        Fm = mollify_field(slit_field, mult * slit_square_32.grid.spacing)
        tv = divergence_measure(Fm).total_variation
        assert tv <= 1e-10


def test_mollify_three_dimensional_slit():
    import json

    from roughgg.domain import make_grid, parse_domain, rasterize

    spec = parse_domain(json.dumps({
        "shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
        "cracks": [{"rect": [[-1, -1, 0.0], [1, 1, 0.0]]}],
    }))
    cube = rasterize(spec, make_grid(spec, 1.0 / 8.0, margin_cells=4))
    dx = cube.grid.spacing
    F = sample_field(slit_jump_field(axis=2), cube, 1.0)
    crack = F.topology.crack[2]
    assert crack.any()
    for mult in (4, 2):
        Fe = mollify_field(F, mult * dx)
        assert np.all(Fe.vminus[2][crack] == -1.0)
        assert np.all(Fe.vplus[2][crack] == 1.0)
        assert divergence_measure(Fe).total_variation <= 1e-10
    G = sample_field(constant_field([0.4, -0.2, 0.3]), cube, 1.0)
    Ge = mollify_field(G, 4 * dx)
    for a in range(3):
        assert np.allclose(Ge.vminus[a], G.vminus[a], rtol=0, atol=1e-12)
        assert np.allclose(Ge.vplus[a], G.vplus[a], rtol=0, atol=1e-12)


def test_mollify_width_precondition(slit_field, slit_square_32):
    with pytest.raises(InputError):
        mollify_field(slit_field, slit_square_32.grid.spacing)


def test_every_audit_runs_the_pinned_ladder(square_32):
    # the ladder is fixed inside each audit: 8, 4 and 2 spacings, widest first
    dx = square_32.grid.spacing
    ladder = [8 * dx, 4 * dx, 2 * dx]
    F = sample_field(separated_smooth_field(), square_32, 1.0)
    X = cell_mesh(square_32)
    assert [r["eps"] for r in trace_weak_convergence(F)["rows"]] == ladder
    g = np.where(square_32.cells, X[..., 0], 0.0)
    assert [r["eps"] for r in product_rule_check(F, g)["rows"]] == ladder


def _slit_cube(denom: int = 8):
    import json

    from roughgg.domain import make_grid, parse_domain, rasterize

    spec = parse_domain(json.dumps({
        "shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
        "cracks": [{"rect": [[-0.5, -0.5, 0.0], [0.5, 0.5, 0.0]]}],
    }))
    return rasterize(spec, make_grid(spec, 1.0 / denom, margin_cells=4))


def test_topology_is_computed_once_per_set(slit_square_32):
    from roughgg.dmfield import TraceData, facet_topology

    top = slit_square_32.topology
    F = sample_field(seeded_trig_field(0), slit_square_32, 1.0)
    assert F.topology is top
    assert TraceData(slit_square_32).topology is top
    assert facet_topology(slit_square_32) is top


@pytest.mark.parametrize("domain", ["slit-square-32", "slit-cube-8", "cantor-36"])
def test_restrict_is_the_one_sided_slot_rule(domain, slit_square_32):
    set_ = {"slit-square-32": lambda: slit_square_32,
            "slit-cube-8": _slit_cube,
            "cantor-36": lambda: preset_set("cantor-cross", 1.0 / 36.0, k=2,
                                            margin_cells=4)}[domain]()
    rng = np.random.default_rng(7)
    F = FluxField(set_, 1.0)
    for a in range(set_.grid.n):
        F.vminus[a][...] = rng.uniform(-1.0, 1.0, F.vminus[a].shape)
        F.vplus[a][...] = rng.uniform(-1.0, 1.0, F.vplus[a].shape)
    want = copy_field(F)
    top = set_.topology
    for a in range(set_.grid.n):
        outside = ~(top.interior[a] | top.crack[a] | top.boundary[a])
        want.vminus[a][outside] = 0.0
        want.vplus[a][outside] = 0.0
        want.vplus[a][top.boundary[a] & top.inside_lower[a]] = 0.0
        want.vminus[a][top.boundary[a] & ~top.inside_lower[a]] = 0.0
    F.restrict()
    for a in range(set_.grid.n):
        assert np.array_equal(F.vminus[a], want.vminus[a])
        assert np.array_equal(F.vplus[a], want.vplus[a])


@pytest.mark.parametrize("domain", ["slit-square-32", "slit-cube-8"])
def test_weak_convergence_rows_are_public_pairing_gaps(domain, slit_square_32):
    set_ = slit_square_32 if domain == "slit-square-32" else _slit_cube()
    F = sample_field(seeded_trig_field(3), set_, 1.0)
    table = trace_weak_convergence(F)
    basis = default_phi_basis(set_.grid, degree=3)
    base = [normal_trace_pairing(F, phi) for phi in basis]
    for row in table["rows"]:
        Fe = mollify_field(F, row["eps"])
        gaps = [abs(normal_trace_pairing(Fe, phi) - b) for phi, b in zip(basis, base)]
        assert row["gap"] == max(gaps)


_SIDE_SETS = {
    "slit-square-32": lambda: preset_set("slit-square", 1.0 / 32.0, margin_cells=4),
    "slit-disk-64": lambda: preset_set("slit-disk", 1.0 / 64.0, margin_cells=4),
    "l-shape-48": lambda: preset_set("l-shape", 1.0 / 48.0, margin_cells=4),
    "cantor-36": lambda: preset_set("cantor-cross", 1.0 / 36.0, k=2, margin_cells=4),
    "slit-cube-8": _slit_cube,
}


def _reference_cutoff(grid, r):
    """The radial cutoff that basis members once carried, with its
    derivative: 1 inside 2R + 2 and a C^1 smoothstep down to 0 at 4R + 4,
    R being the largest |coordinate| of the grid box times sqrt(n)."""
    lo, hi = grid.bounds()
    radius = float(np.max(np.abs(np.stack([lo, hi])))) * math.sqrt(grid.n)
    flat, support = 2.0 * radius + 2.0, 4.0 * radius + 4.0
    t = np.clip((r - flat) / (support - flat), 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t), -6.0 * t * (1.0 - t) / (support - flat)


def _reference_monomial(phi, X):
    exps = tuple(int(e) for e in phi.name[2:].split(","))
    out = np.ones(X.shape[:-1])
    for a, e in enumerate(exps):
        if e:
            out = out * X[..., a] ** e
    return exps, out


def _reference_value(phi, grid, X):
    """The monomial times the cutoff, r^2 summed by ``np.sum``."""
    eta, _ = _reference_cutoff(grid, np.sqrt(np.sum(X * X, axis=-1)))
    return _reference_monomial(phi, X)[1] * eta


def _reference_grad_component(phi, grid, X, axis):
    """The product rule through the cutoff, with r^2 summed by ``np.sum``
    over the stacked axis and the whole gradient built, of which one
    column is kept."""
    exps, core = _reference_monomial(phi, X)
    g = np.zeros(X.shape)
    for a, e in enumerate(exps):
        if e == 0:
            continue
        term = e * np.ones(X.shape[:-1])
        for b, eb in enumerate(exps):
            p = eb - 1 if b == a else eb
            if p:
                term = term * X[..., b] ** p
        g[..., a] = term
    r = np.sqrt(np.sum(X * X, axis=-1))
    eta, deta = _reference_cutoff(grid, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(r > 0.0, X[..., axis] / np.maximum(r, 1e-300), 0.0)
    return g[..., axis] * eta + core * deta * unit


@pytest.mark.parametrize("domain", ["slit-square-32", "slit-cube-8"])
def test_monomials_match_cutoff_reference(domain):
    grid = _SIDE_SETS[domain]().grid
    meshes = [grid.cell_center_mesh()] + [grid.facet_center_mesh(a) for a in range(grid.n)]
    for phi in default_phi_basis(grid, degree=3):
        for mesh in meshes:
            X = np.stack(np.broadcast_arrays(*mesh), axis=-1)
            assert np.array_equal(phi.value(mesh), _reference_value(phi, grid, X)), phi.name
            for a in range(grid.n):
                assert np.array_equal(phi.grad_component(mesh, a),
                                      _reference_grad_component(phi, grid, X, a)), phi.name


def _reference_pairing(F, phi):
    """The midpoint pairing with every derivative evaluated on the whole
    facet lattice and read on the slots afterwards."""
    grid, top = F.grid, F.topology
    vol = grid.cell_volume
    phi_c = _reference_value(phi, grid, cell_mesh(F.set))
    total = float((phi_c * divergence_measure(F).cell_weights).sum())
    for a in range(grid.n):
        Xf = np.stack(np.broadcast_arrays(*grid.facet_center_mesh(a)), axis=-1)
        interior = top.interior[a]
        dphi = _reference_grad_component(phi, grid, Xf, a)
        total += float((F.vminus[a][interior] * dphi[interior]).sum()) * vol
        for mask, vals, sign in ((top.minus[a], F.vminus[a], -1.0),
                                 (top.plus[a], F.vplus[a], 1.0)):
            if mask.any():
                off = np.zeros(grid.n)
                off[a] = sign * 0.25 * grid.spacing
                dphi_half = _reference_grad_component(phi, grid, Xf + off, a)
                total += float((vals[mask] * dphi_half[mask]).sum()) * vol * 0.5
    return total


def _assert_pairing_matches_reference(set_, seed):
    F = random_facet_noise(set_, seed=seed)
    top = set_.topology
    for phi in default_phi_basis(set_.grid, degree=3):
        assert normal_trace_pairing(F, phi) == _reference_pairing(F, phi), phi.name
        pp = _midpoint_phi(set_.grid, phi, top)
        for a in range(set_.grid.n):
            assert pp.lower[a].shape == (int(top.minus[a].sum()),)
            assert pp.upper[a].shape == (int(top.plus[a].sum()),)


@pytest.mark.parametrize("domain", list(_SIDE_SETS))
def test_pairing_matches_full_lattice_reference(domain):
    _assert_pairing_matches_reference(_SIDE_SETS[domain](), seed=0)


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_pairing_matches_reference_on_random_cracked_domains(n, data, seed):
    _assert_pairing_matches_reference(data.draw(cracked_domains(dims=(n,)), label="set_"),
                                      seed)


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_facet_pairing_matches_stacked_centres(n, data, seed):
    """Facet centres gathered per axis pair bit for bit as the stacked
    ``FacetArrays.centers()`` rows did, for sparse weights and for the
    trace of a rough field."""
    set_ = data.draw(cracked_domains(dims=(n,)), label="set_")
    grid = set_.grid
    rng = np.random.default_rng(seed)
    sparse = [rng.uniform(-1.0, 1.0, grid.facet_shape(a))
              * (rng.random(grid.facet_shape(a)) < 0.2) for a in range(n)]
    tm = trace_measure(random_facet_noise(set_, seed=seed))
    for weights in (sparse, [tm.net(a) for a in range(n)]):
        live = [w != 0.0 for w in weights]
        x = FacetArrays(grid, live).centers()
        w = np.concatenate([w[m] for w, m in zip(weights, live)])
        for phi in default_phi_basis(grid, degree=3):
            want = float(np.dot(w, _stacked_term(x, 1, phi.exponents)))
            assert _facet_pairing(grid, weights, phi) == want, phi.name


class _CoordinateProbe:
    """A test function that records the coordinates it is evaluated at."""

    def __init__(self):
        self.seen = []

    def value(self, coords):
        self.seen.append(np.stack(np.broadcast_arrays(*coords), axis=-1))
        return np.zeros(self.seen[-1].shape[:-1])

    def grad_component(self, coords, axis):
        return self.value(coords)


@pytest.mark.parametrize("domain", ["cantor-36", "slit-square-96", "slit-cube-12"])
def test_facet_centre_producers_read_the_mesh(domain):
    """Every producer of facet centres hands out the coordinates of
    ``facet_center_mesh`` bit for bit, on grids whose spacing is not a
    power of two."""
    set_ = {"cantor-36": _SIDE_SETS["cantor-36"],
            "slit-square-96": lambda: preset_set("slit-square", 1.0 / 96.0, margin_cells=4),
            "slit-cube-12": lambda: _slit_cube(12)}[domain]()
    grid, top, n = set_.grid, set_.topology, set_.grid.n
    full = [np.broadcast_arrays(*grid.facet_center_mesh(a)) for a in range(n)]

    def mesh(a, mask, shift=0.0):
        return np.stack([c[mask] + shift * (b == a) for b, c in enumerate(full[a])], axis=-1)

    live = [top.interior[a] | top.boundary[a] | top.crack[a] for a in range(n)]
    want = np.concatenate([mesh(a, m) for a, m in enumerate(live)])
    assert np.array_equal(FacetArrays(grid, live).centers(), want)
    for a, m in enumerate(live):
        for idx in np.argwhere(m)[::37]:
            assert np.array_equal(grid.facet_center(a, idx), [c[tuple(idx)] for c in full[a]])
    probe = _CoordinateProbe()
    _facet_pairing(grid, [m.astype(float) for m in live], probe)
    assert np.array_equal(probe.seen[0], want)

    quarter = 0.25 * grid.spacing
    expect = []
    for a in range(n):
        expect.append(mesh(a, top.interior[a] | top.boundary[a]))
        if top.crack[a].any():
            expect += [mesh(a, top.crack[a], -quarter), mesh(a, top.crack[a], quarter)]
    seen = []
    sample_field(lambda X: seen.append(X) or np.zeros(X.shape), set_, 1.0)
    assert len(seen) == len(expect) and all(map(np.array_equal, seen, expect))

    seen = []
    TraceData(set_).fill(lambda X, nu: seen.append(X) or np.zeros(len(X)))
    expect = [mesh(a, mask) for a, _side, mask, _arr in TraceData(set_).slots() if mask.any()]
    assert len(seen) == len(expect) and all(map(np.array_equal, seen, expect))

    probe = _CoordinateProbe()
    _midpoint_phi(grid, probe, top)
    for a in range(n):  # per axis: the whole mesh, then the MINUS and PLUS slots
        assert np.array_equal(probe.seen[3 * a + 1], mesh(a, top.minus[a], -quarter))
        assert np.array_equal(probe.seen[3 * a + 2], mesh(a, top.plus[a], quarter))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("domain", list(_SIDE_SETS))
def test_mollify_keeps_side_values(domain, seed):
    # crack ends, junctions, corners and 3D crack edges are where a side
    # could reach around to the other side; no side slot may change
    set_ = _SIDE_SETS[domain]()
    top = set_.topology
    F = random_facet_noise(set_, seed=seed)
    for mult in (4, 2):
        Fe = mollify_field(F, mult * set_.grid.spacing)
        assert Fe.sup_bound <= F.sup_bound
        for a in range(set_.grid.n):
            assert np.array_equal(Fe.vminus[a][top.minus[a]], F.vminus[a][top.minus[a]])
            assert np.array_equal(Fe.vplus[a][top.plus[a]], F.vplus[a][top.plus[a]])


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_slit_disk_ladder_rows_do_not_increase(seed):
    disk = preset_set("slit-disk", 1.0 / 128.0, margin_cells=4)
    rows = trace_weak_convergence(sample_field(seeded_trig_field(seed), disk, 1.0))["rows"]
    gaps = [row["gap"] for row in rows]
    assert all(b <= a for a, b in zip(gaps, gaps[1:])), gaps


@pytest.mark.parametrize("seed", [1001, 1004])
def test_cantor_cross_ladder_converges(seed):
    cantor = preset_set("cantor-cross", 1.0 / 36.0, k=2, margin_cells=4)
    table = trace_weak_convergence(sample_field(seeded_trig_field(seed), cantor, 1.0))
    assert table["verdict"] == "CONVERGENT", table["rows"]


# --- product rule -------------------------------------------------------------


def test_product_rule_identity_scalar(disk_64):
    F = sample_field(linear_field(), disk_64, 1.2)
    ones = np.ones(disk_64.grid.extents)
    rep = product_rule_check(F, ones)
    assert all(r["residual"] <= 1e-12 for r in rep["rows"])


def test_product_rule_unbounded_rejected(disk_64):
    F = sample_field(linear_field(), disk_64, 1.2)
    bad = np.ones(disk_64.grid.extents)
    bad[0, 0] = np.inf
    with pytest.raises(InputError):
        product_rule_check(F, bad)


@pytest.mark.parametrize("shape", ["mesh-expression", "flat"])
def test_product_rule_refuses_g_not_on_the_grid(shape):
    # (24, 24, 1) broadcasts through lift and was taken for the whole grid;
    # (5,) failed deep inside the smoothing with numpy's own ValueError
    cube = _slit_cube()
    F = sample_field(seeded_trig_field(0), cube, 1.0)
    x, y, _ = cube.grid.cell_center_mesh()
    g = x + y if shape == "mesh-expression" else np.ones(5)
    assert cube.grid.extents == (24, 24, 24)
    with pytest.raises(InputError, match=rf"shape \({g.shape[0]},.*\(24, 24, 24\)"):
        product_rule_check(F, g)


def test_product_rule_bound_rows(disk_64):
    F = sample_field(linear_field(), disk_64, 1.2)
    X = cell_mesh(disk_64)
    g = ((X[..., 0] ** 2 + X[..., 1] ** 2) < 0.25).astype(float)
    rep = product_rule_check(F, g)
    assert all(row["ok"] for row in rep["bound_rows"])
    assert rep["order"] >= 0.9


# --- extension bound and scalar traces ----------------------------------------


def test_extension_bound_slit_numbers(slit_field):
    rep = extension_bound_check(slit_field)
    assert rep["extended_tv"] == pytest.approx(8.0)
    assert rep["interior_tv"] + rep["star_measure"] == pytest.approx(10.0)


def test_extension_bound_smooth_margin(disk_64):
    F = sample_field(separated_smooth_field(), disk_64, 1.0)
    rep = extension_bound_check(F)
    assert rep["extended_tv"] <= rep["bound"] / 2.0  # margin of at least one


def test_three_dimensional_trace_and_divergence():
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

    def jump3(X):
        out = np.zeros(X.shape)
        out[..., 2] = np.sign(X[..., 2] - 0.5)
        return out

    F = sample_field(jump3, rs, 1.0)
    assert divergence_measure(F).total_variation == pytest.approx(
        2.0 * (1.0 - 0.25), abs=1e-12
    )  # the jump is real divergence except across the crack rectangle
    tm = trace_measure(F)
    crack_pairs = np.concatenate([tm.net(a)[rs.cracks.masks[a]] for a in range(3)])
    assert crack_pairs.size and np.allclose(crack_pairs, -2.0)


def test_bounds_hold_for_rough_fields():
    # the facet-noise class is the roughest admissible member: every
    # structural bound must still hold exactly
    for preset, denom, k in (("slit-square", 32, None), ("l-shape", 32, None),
                             ("cantor-cross", 36, 2)):
        set_ = preset_set(preset, 1.0 / denom, k=k, margin_cells=4)
        for seed in range(5):
            F = random_facet_noise(set_, seed=seed)
            tm = trace_measure(F)
            assert trace_linfinity_check(tm, F)["ratio"] <= 4.0
            rep = extension_bound_check(F)
            assert rep["extended_tv"] <= rep["bound"]


def test_bench_layer_functions_resolve():
    # the benchmark tracer rebinds these names; a method must live in its
    # class's own __dict__ to be rebound there
    import importlib
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _span in tracing.LAYER_FUNCTIONS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr)), attr


def _project_to_targets_by_lines(atoms, targets, axis):
    """Line-by-line reference for the projection of facet atoms onto the
    nearest target facet (ties to the lower one)."""
    moved_atoms = np.moveaxis(atoms, axis, 0)
    moved_targets = np.moveaxis(targets, axis, 0)
    out = np.zeros(moved_atoms.shape)
    for line in np.ndindex(moved_atoms.shape[1:]):
        col = moved_atoms[(slice(None),) + line]
        tpos = np.nonzero(moved_targets[(slice(None),) + line])[0]
        if tpos.size == 0:
            continue
        for src in np.nonzero(col)[0]:
            pick = min(int(np.searchsorted(tpos, src)), tpos.size - 1)
            left = max(pick - 1, 0)
            use_left = abs(tpos[left] - src) <= abs(tpos[pick] - src)
            dst = tpos[left] if use_left else tpos[pick]
            out[(dst,) + line] += col[src]
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("shape", [(9, 7), (5, 6, 4)])
def test_project_to_targets_matches_line_reference(shape):
    from roughgg.dmfield import _project_to_targets

    rng = np.random.default_rng(5)
    atoms = np.where(rng.random(shape) < 0.5, rng.normal(size=shape), 0.0)
    targets = rng.random(shape) < 0.2
    for axis in range(len(shape)):
        assert np.array_equal(_project_to_targets(atoms, targets, axis),
                              _project_to_targets_by_lines(atoms, targets, axis))
