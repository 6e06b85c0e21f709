"""Acceptance suite: one runnable check per contract criterion.

Each criterion function returns (passed, detail); ``run_acceptance``
prints one line per criterion.  Tolerances are pinned here, not
calibrated at call sites.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .approx import approximation_sweep, cantor_generation_sweep
from .divsolve import solve_decomposed, solve_direct
from .dmfield import (
    TestFunction,
    TraceData,
    default_phi_basis,
    extension_bound_check,
    gauss_green_residual,
    interior_normal_trace,
    normal_trace_pairing,
    product_rule_check,
    sample_field,
    trace_linfinity_check,
    trace_measure,
    trace_weak_convergence,
)
from .domain import cantor_cross_spec, preset_set
from .errors import InputError, RoughGGError
from .fields import (
    linear_field,
    seeded_trig_field,
    separated_smooth_field,
    slit_jump_field,
)
from .measure import (
    ahlfors_constant,
    boundary_decomposition,
    classify,
    perimeter,
    refinement_order,
    star_condition_diagnostic,
)

SLOPE_TARGET = math.log(4.0 / 3.0) / math.log(3.0)


@lru_cache(maxsize=32)
def _set(name: str, denom: int, margin: int = 4, k: int | None = None):
    return preset_set(name, 1.0 / denom, k=k, margin_cells=margin)


def _slit_field(set_):
    return sample_field(slit_jump_field(), set_, 1.0)


def _facet_groups_slit(set_, tm):
    """Per-facet trace densities on the support, split into slit pairs,
    top/bottom and lateral facets."""
    grid = set_.grid
    support = [tm.topology.boundary[a] | tm.topology.crack[a] for a in range(grid.n)]
    on_slit = np.abs(np.broadcast_to(grid.facet_center_mesh(1)[1],
                                     grid.facet_shape(1))) < 1e-9
    net = tm.net(1)
    return {"slit": net[support[1] & on_slit],
            "horizontal": net[support[1] & ~on_slit],
            "lateral": tm.net(0)[support[0]]}


def criterion_1():
    """Exact slit trace: -2 on crack pairs, +1 top/bottom, 0 lateral."""
    worst = 0.0
    for denom in (32, 64, 128):
        set_ = _set("slit-square", denom)
        tm = trace_measure(_slit_field(set_))
        groups = _facet_groups_slit(set_, tm)
        if not groups["slit"].size or not groups["horizontal"].size:
            return False, f"missing facet groups at 1/{denom}"
        worst = max(
            worst,
            float(np.abs(groups["slit"] + 2.0).max()),
            float(np.abs(groups["horizontal"] - 1.0).max()),
            float(np.abs(groups["lateral"]).max(initial=0.0)),
        )
    return worst <= 1e-9, f"max density error {worst:.3e} (tol 1e-9)"


def criterion_2():
    """Boundary Gauss-Green: exact on the slit field, first order on
    smooth disk data."""
    names = ("x^0,0", "x^1,0", "x^0,1", "x^0,2", "x^1,1")
    worst_rel = 0.0
    for denom in (32, 64, 128):
        set_ = _set("slit-square", denom)
        F = _slit_field(set_)
        tm = trace_measure(F)
        basis = [p for p in default_phi_basis(set_.grid) if p.name in names]
        for phi in basis:
            pairing = normal_trace_pairing(F, phi)
            res = abs(pairing - tm.integrate(phi))
            worst_rel = max(worst_rel, res / (1.0 + abs(pairing)))
    if worst_rel > 1e-8:
        return False, f"slit residual {worst_rel:.3e} above 1e-8"
    # smooth data: the identity is inexact against cubic test functions,
    # decaying at second order (degree <= 2 is reproduced identically)
    cubics = [TestFunction(e) for e in ((0, 3), (2, 1), (3, 0))]
    residuals = []
    spacings = []
    for denom in (32, 64, 128):
        set_ = _set("disk", denom)
        F = sample_field(separated_smooth_field(), set_, 1.0)
        tm = trace_measure(F)
        residuals.append(max(gauss_green_residual(F, phi, tm) for phi in cubics))
        spacings.append(set_.grid.spacing)
    slope = refinement_order(spacings, residuals)
    if slope is None:
        return False, "smooth residuals at roundoff: no order to fit"
    ok = slope >= 0.9
    return ok, (f"slit rel {worst_rel:.2e} <= 1e-8; smooth order {slope:.2f} "
                f"(need >= 0.9)")


def criterion_3():
    """Uniformly bounded interior approximation on the slit domains."""
    deltas = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    details = []
    for name in ("slit-square", "slit-disk"):
        set_ = _set(name, 512)
        cls = classify(set_)
        bd = boundary_decomposition(set_, cls)
        try:
            table = approximation_sweep(set_, deltas, cls=cls, bd=bd)
        except RoughGGError as exc:
            return False, f"{name}: audit failed ({exc})"
        ratios = [r["ratio"] for r in table["rows"]]
        removed = [r["removed"] for r in table["rows"]]
        ds = [r["delta"] for r in table["rows"]]
        spread = max(ratios) / min(ratios)
        if table["verdict"] != "BOUNDED":
            return False, f"{name}: ratio spread {spread:.2f} > 4"
        if any(b >= a for a, b in zip(removed, removed[1:])):
            return False, f"{name}: removed volume not decreasing"
        slope = refinement_order(ds, removed)
        if slope is None or slope < 0.9:
            return False, f"{name}: removed-volume slope {slope or 0.0:.2f} < 0.9"
        details.append(f"{name}: spread {spread:.2f}, slope {slope:.2f}")
    return True, "; ".join(details)


def criterion_4():
    """Cantor ladder: growing minimal perimeter and the exact crack
    growth exponent."""
    sweep = cantor_generation_sweep([1, 2, 3, 4])
    mins = [r["min_perimeter"] for r in sweep["rows"]]
    if sweep["verdict"] != "GROWING":
        return False, f"minimal perimeters not increasing: {mins}"
    diag = star_condition_diagnostic(cantor_cross_spec(2),
                                     [3.0 ** (-k) for k in (2, 3, 4)])
    slope = diag.slope
    ok = abs(slope - SLOPE_TARGET) <= 0.05
    return ok, (f"mins {['%.2f' % m for m in mins]}; slope {slope:.4f} vs "
                f"{SLOPE_TARGET:.4f} +- 0.05")


def _gallery_sets():
    yield "square", _set("square", 64)
    yield "disk", _set("disk", 64)
    yield "slit-square", _set("slit-square", 64)
    yield "slit-disk", _set("slit-disk", 64)
    yield "l-shape", _set("l-shape", 64)
    yield "cantor-cross", _set("cantor-cross", 36, 4, 2)


def criterion_5():
    """Extension bound with factor 2 on the gallery and seeded fields;
    the slit example attains 8 against 10."""
    for name, set_ in _gallery_sets():
        for seed in range(10):
            F = sample_field(seeded_trig_field(seed), set_, 1.0)
            try:
                extension_bound_check(F)
            except RoughGGError as exc:
                return False, f"{name}, seed {seed}: {exc}"
    set_ = _set("slit-square", 64)
    report = extension_bound_check(_slit_field(set_))
    lhs = report["extended_tv"]
    rhs = report["interior_tv"] + 1.0 * report["star_measure"]
    ok = abs(lhs - 8.0) <= 1e-9 and abs(rhs - 10.0) <= 1e-9
    return ok, f"gallery x 10 seeds hold; slit example: {lhs:.12g} vs {rhs:.12g}"


def criterion_6():
    """Trace density bound: 4x the field bound everywhere; ratio exactly
    2 on the slit example."""
    for name, set_ in _gallery_sets():
        for seed in range(10):
            F = sample_field(seeded_trig_field(seed), set_, 1.0)
            tm = trace_measure(F)
            try:
                trace_linfinity_check(tm, F)
            except RoughGGError as exc:
                return False, f"{name}, seed {seed}: {exc}"
    set_ = _set("slit-square", 64)
    F = _slit_field(set_)
    report = trace_linfinity_check(trace_measure(F), F)
    ok = abs(report["ratio"] - 2.0) <= 1e-12
    return ok, f"all gallery ratios <= 4; slit ratio {report['ratio']:.12g}"


def criterion_7():
    """Interior trace factor -2: mollified construction reproduces the
    half-density edge values within 5 percent, gate passing."""
    set_ = _set("square", 256)
    grid = set_.grid
    F = sample_field(lambda X: np.stack(
        [np.ones(X.shape[:-1]), np.zeros(X.shape[:-1])], axis=-1), set_, 1.0)
    X = np.stack(np.broadcast_arrays(*grid.cell_center_mesh()), axis=-1)
    E = (np.abs(X[..., 0]) < 0.5) & (np.abs(X[..., 1]) < 0.5)
    rep = interior_normal_trace(F, E)
    if not rep.gate_passed:
        return False, "Richardson gate failed"
    w, horiz = (wa / grid.facet_area for wa in rep.weights)
    x = np.broadcast_to(grid.facet_center_mesh(0)[0], w.shape)
    left = float(np.mean(w[(w != 0.0) & (x < 0.0)]))
    right = float(np.mean(w[(w != 0.0) & (x >= 0.0)]))
    err = max(abs(left - 0.5), abs(right + 0.5))
    hmax = float(np.abs(horiz).max())
    ok = err <= 0.05 * 0.5 and hmax <= 0.05 * 0.5
    return ok, (f"edge densities {left:.4f}/{right:.4f} vs +-1/2 "
                f"(-2x gives -+1), gate ok, off-edge {hmax:.2e}")


def criterion_8():
    """Product rule: first-order residual in the width and the variation
    bound with one percent slack."""
    set_ = _set("disk", 128)
    grid = set_.grid
    F = sample_field(linear_field(), set_, 1.0 + 2.0 * grid.spacing)
    X = np.stack(np.broadcast_arrays(*grid.cell_center_mesh()), axis=-1)
    g = ((X[..., 0] ** 2 + X[..., 1] ** 2) < 0.25).astype(float)
    report = product_rule_check(F, g)
    order = report["order"]
    if order is None or order < 0.9:
        return False, f"residual order {order} < 0.9"
    per_half = perimeter(grid, g > 0.5, 4.0 * grid.spacing)
    for row in report["bound_rows"]:
        if not row["ok"]:
            return False, f"pointwise bound failed at eps {row['eps']}"
        if row["pairing_tv"] > F.sup_bound * per_half * 1.01:
            return False, (f"pairing variation {row['pairing_tv']:.4f} above "
                           f"bound x 1.01 at eps {row['eps']}")
    return True, (f"order {order:.2f}; variation <= bound x 1.01 at every "
                  f"width (perimeter {per_half:.4f})")


def criterion_9():
    """Weak-star trace continuity along the mollification ladder."""
    cases = [
        ("square", _set("square", 96), separated_smooth_field()),
        ("disk", _set("disk", 96), separated_smooth_field()),
        ("l-shape", _set("l-shape", 96), separated_smooth_field()),
        ("slit-square jump", _set("slit-square", 64), slit_jump_field()),
        ("slit-square smooth", _set("slit-square", 96), separated_smooth_field()),
        ("slit-disk jump", _set("slit-disk", 64), slit_jump_field()),
        ("slit-disk smooth", _set("slit-disk", 96), separated_smooth_field()),
        ("cantor-cross", _set("cantor-cross", 36, 4, 2), separated_smooth_field()),
    ]
    details = []
    for name, set_, fn in cases:
        F = sample_field(fn, set_, 1.0)
        table = trace_weak_convergence(F)
        if table["verdict"] != "CONVERGENT":
            gaps = [r["gap"] for r in table["rows"]]
            return False, f"{name}: {table['verdict']} (gaps {gaps})"
        details.append(f"{name} {table['rows'][-1]['gap']:.1e}")
    return True, "final gaps: " + ", ".join(details)


def criterion_10():
    """Divergence solver round trips, mode agreement, conservation, and
    compatibility rejection (exit code 3)."""
    set_ = _set("slit-square", 32)
    td = trace_measure(_slit_field(set_))  # prescribe the trace of a field
    gaps = []
    residuals = []
    for solver in (solve_direct, solve_decomposed):
        rep = solver(set_, td)
        gaps.append(rep.trace_linf_gap)
        residuals.append(rep.interior_div_residual)
    if max(gaps) > 1e-8:
        return False, f"slit round-trip gap {max(gaps):.2e} > 1e-8"
    sq = _set("square", 32)
    td2 = TraceData(sq).fill(lambda X, nu: X[..., 1] * nu[0])
    r1 = solve_direct(sq, td2)
    r2 = solve_decomposed(sq, td2)
    mode_gap = max(float(np.abs(g1 - g2).max()) for (*_, g1), (*_, g2)
                   in zip(trace_measure(r1.F).slots(), trace_measure(r2.F).slots()))
    residuals += [r1.interior_div_residual, r2.interior_div_residual]
    if mode_gap > 1e-8:
        return False, f"mode trace disagreement {mode_gap:.2e} > 1e-8"
    if max(residuals) > 1e-10:
        return False, f"interior residual {max(residuals):.2e} > 1e-10"
    # incompatible data must exit with code 3 through the CLI
    import contextlib
    import os
    import tempfile
    from io import StringIO

    from .cli import main
    from .io import write_trace_csv

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(StringIO()):
        bad = os.path.join(tmp, "bad.csv")
        td_bad = TraceData(sq).fill(lambda X, nu: np.ones(X.shape[:-1]))
        write_trace_csv(bad, td_bad.side_weights, sq.grid)
        code = main(["solve-div", "--preset", "square", "--grid", "32", "--margin", "4",
                     "--trace", bad])
    if code != 3:
        return False, f"incompatible data exited {code}, want 3"
    return True, (f"round-trip {max(gaps):.1e}, modes {mode_gap:.1e}, "
                  f"residual {max(residuals):.1e}, exit code 3 ok")


def criterion_11():
    """Geometry oracles: disk perimeter, slit boundary measure, straight
    segment regularity constant."""
    disk = _set("disk", 256)
    p = perimeter(disk.grid, disk.cells, 4.0 * disk.grid.spacing)
    if abs(p - 2.0 * math.pi) > 0.02 * 2.0 * math.pi:
        return False, f"disk perimeter {p:.5f} off 2 pi by > 2%"
    slit = _set("slit-square", 128)
    bd = boundary_decomposition(slit, classify(slit))
    if abs(bd.star_measure - 10.0) > 0.03 * 10.0:
        return False, f"slit boundary measure {bd.star_measure:.4f} off 10 by > 3%"
    seg = _set("slit-disk", 128)  # its crack is the unit segment
    dx = seg.grid.spacing
    constant = ahlfors_constant(seg.grid, seg.cracks, radii=[16 * dx, 32 * dx, 64 * dx])
    ok = abs(constant - 2.0) <= 0.2
    return ok, (f"perimeter {p:.4f}, star {bd.star_measure:.4f}, "
                f"segment constant {constant:.3f}")


CRITERIA = [
    (1, "exact slit trace", criterion_1),
    (2, "boundary Gauss-Green", criterion_2),
    (3, "bounded interior approximation", criterion_3),
    (4, "Cantor growth witness", criterion_4),
    (5, "extension bound", criterion_5),
    (6, "trace density bound", criterion_6),
    (7, "interior trace factor -2", criterion_7),
    (8, "product rule", criterion_8),
    (9, "weak-star trace continuity", criterion_9),
    (10, "divergence solver", criterion_10),
    (11, "geometry oracles", criterion_11),
]


def run_acceptance(only: int | None = None) -> int:
    if only is not None and all(number != only for number, *_ in CRITERIA):
        raise InputError(f"no acceptance criterion numbered {only}")
    failures = 0
    for number, name, fn in CRITERIA:
        if only is not None and number != only:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        status = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        print(f"criterion {number:02d} [{status}] {name}: {detail}")
    return failures
