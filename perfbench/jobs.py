"""Seeded inputs and the fixed job list of each workload.

``setup(workload, seed, root, work)`` builds every input from the seed:
the domains are rasterized here, fields are sampled here and trace data
is built here, so the program only ever sees generated domains, fields
and trace data.  ``root`` is the source checkout and ``work`` a scratch
directory inside it for the CLI workload's files.  ``JOBS[workload]`` is the job list run after set-up, one job
after the other.  Each job returns True when its own output check passes;
a job that raises counts as failed.

Calls into the package go through module attributes (``dmfield.trace_measure``
rather than a name bound at import), so a traced run sees them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import roughgg.approx as approx
import roughgg.divsolve as divsolve
import roughgg.dmfield as dmfield
import roughgg.domain as domain
import roughgg.io as rio
import roughgg.measure as measure
from roughgg.fields import seeded_trig_field, slit_jump_field

MARGIN = 4  # cells around the domain box, as the CLI default

# Facet-counting boundary measure plus crack measure.  Facets trace a
# disk of radius r as a staircase of length 8r, not 2 pi r.
STAR_MEASURE = {
    "slit-square": 8.0 + 2.0,
    "slit-disk": 8.0 + 1.0,
    "cantor-cross": 16.0 + 4.0 * (4.0 / 3.0) ** 2,
    "cube": 24.0 + 1.0,
}
# the mollified perimeter estimate converges to the true perimeter
PERIMETER = {"slit-square": 8.0, "slit-disk": 2.0 * math.pi,
             "cantor-cross": 4.0 * math.pi, "disk": 2.0 * math.pi}

CUBE_DOMAIN = json.dumps({
    "shape": {"op": "box", "min": [-1, -1, -1], "max": [1, 1, 1]},
    "cracks": [{"rect": [[-0.5, -0.5, 0.0], [0.5, 0.5, 0.0]]}],
})

# Known failures of today's code.  They are kept and counted in the
# failure fraction; a failure of any other job makes the run incorrect.
KNOWN_FAILURES = {
    "crack-side-weights": (
        "trace_measure keeps a crack facet's per-side weights only where "
        "the two sides differ, so data continuous across a crack fails "
        "verify_solution"),
    "ladder-10pct": (
        "the 10% monotonicity rule of trace_weak_convergence marks some "
        "smooth seeded fields DIVERGENT at gaps of about 1e-6 of scale"),
}


@dataclass
class Job:
    name: str
    run: Callable[[dict], bool]
    known: str | None = None  # key of KNOWN_FAILURES this job may show


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _preset(name: str, denom: int, k: int | None = None):
    spec = domain.preset_spec(name, k=k)
    grid = domain.make_grid(spec, 1.0 / denom, margin_cells=MARGIN)
    return domain.rasterize(spec, grid)


def _cube(denom: int):
    spec = domain.parse_domain(CUBE_DOMAIN)
    return domain.rasterize(spec, domain.make_grid(spec, 1.0 / denom,
                                                   margin_cells=MARGIN))


def _affine(rng: np.random.Generator, n: int, separated: bool = False):
    """Trace-free (so divergence-free) affine field x -> A x + b.

    ``separated`` zeroes the diagonal: each component is then constant
    along its own axis, so the sampled field balances every cell exactly,
    the quarter-cell one-sided samples at a crack included, and its trace
    measure is compatible data.
    """
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    A -= np.diag(np.diag(A)) if separated else np.trace(A) / n * np.eye(n)
    b = rng.uniform(-1.0, 1.0, size=n)
    return A, b


def _affine_bound(A, b, grid) -> float:
    lo, hi = grid.bounds()
    corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(grid.n, -1).T
    return float(np.abs(corners @ A.T + b).max()) * (1.0 + 1e-12)


def _trace_data_from_field(set_, F):
    """Prescription read off the trace measure of a sampled field."""
    tm = dmfield.trace_measure(F)
    td = divsolve.TraceData(set_)
    area = set_.grid.facet_area
    for (a, idx, side), w in tm.side_weights.items():
        td.set_side(a, idx, side, w / area)
    return td


def _affine_trace_data(set_, A, b):
    return divsolve.TraceData(set_).fill(lambda X, nu: (X @ A.T + b) @ nu)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

ANALYSIS_DOMAINS = (("slit-square", 256, None), ("slit-disk", 128, None),
                    ("cantor-cross", 36, 2))


def _setup_analysis2d(seed: int, ctx: dict) -> None:
    for name, denom, k in ANALYSIS_DOMAINS:
        set_ = _preset(name, denom, k)
        ctx[name] = (set_, dmfield.sample_field(seeded_trig_field(seed), set_, 1.0))
    jump_set = ctx["slit-square"][0]
    ctx["slit-jump"] = dmfield.sample_field(slit_jump_field(), jump_set, 1.0)
    square = _preset("square", 128)
    theta = _rng(seed, 1).uniform(0.0, 2.0 * math.pi)
    direction = np.array([math.cos(theta), math.sin(theta)])

    def constant(X):
        return np.broadcast_to(direction, X.shape).copy()

    ctx["square"] = (square, dmfield.sample_field(constant, square, 1.0), direction)


def _setup_solve2d(seed: int, ctx: dict) -> None:
    rng = _rng(seed, 2)
    A, b = _affine(rng, 2, separated=True)
    c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    jump = slit_jump_field()
    for denom in (256, 128):
        set_ = _preset("slit-square", denom)
        bound = _affine_bound(A, b, set_.grid) + abs(c)
        F = dmfield.sample_field(lambda X: X @ A.T + b + c * jump(X), set_, bound)
        ctx[f"slit-square-{denom}"] = (set_, _trace_data_from_field(set_, F))
    disk = _preset("slit-disk", 128)
    ctx["slit-disk-128"] = (disk, _affine_trace_data(disk, A, b))


def _setup_cube3d(seed: int, ctx: dict) -> None:
    set_ = _cube(16)
    A, b = _affine(_rng(seed, 3), 3)
    ctx["cube"] = (set_, dmfield.sample_field(seeded_trig_field(seed), set_, 1.0),
                   _affine_trace_data(set_, A, b))


def _setup_cli(seed: int, ctx: dict) -> None:
    """Incompatible trace data for slit-square 1/64: a seeded constant
    outward density on every side, so the net flux cannot vanish."""
    work = ctx["work"]
    set_ = _preset("slit-square", 64)
    td = _constant_trace_data(set_, _rng(seed, 4).uniform(0.5, 1.5))
    area = set_.grid.facet_area
    rio.write_trace_csv(os.path.join(work, "bad.csv"),
                        {key: g * area for key, g in td.sides().items()},
                        set_.grid)


def _constant_trace_data(set_, g: float):
    return divsolve.TraceData(set_).fill(lambda X, nu: np.full(X.shape[:-1], g))


# set-up steps a traced run records as divsolve.trace_data spans
TRACE_DATA_BUILDERS = ("_trace_data_from_field", "_affine_trace_data",
                       "_constant_trace_data")


SETUP = {
    "analysis2d": _setup_analysis2d,
    "solve2d": _setup_solve2d,
    "cube3d": _setup_cube3d,
    "cli": _setup_cli,
}


def setup(workload: str, seed: int, root: str, work: str) -> dict:
    ctx = {"seed": seed, "root": root, "work": work}
    SETUP[workload](seed, ctx)
    return ctx


# ---------------------------------------------------------------------------
# analysis jobs (2D and 3D)
# ---------------------------------------------------------------------------


def _classify(key, ref):
    def run(ctx):
        set_ = ctx[key][0]
        cls = measure.classify(set_)
        bd = measure.boundary_decomposition(set_, cls)
        ctx[key + "/cls"] = (cls, bd)
        labels = cls.count(0) + cls.count(1) + cls.count(2)
        return (labels == cls.labels.size
                and abs(bd.star_measure - ref) <= 0.05 * ref)
    return run


def _perimeter(key, ref):
    def run(ctx):
        set_ = ctx[key][0]
        value = measure.perimeter(set_.grid, set_.cells, 4.0 * set_.grid.spacing)
        return abs(value - ref) <= 0.05 * ref
    return run


def _sweep(key):
    def run(ctx):
        set_ = ctx[key][0]
        cls, bd = ctx[key + "/cls"]
        dx = set_.grid.spacing
        table = approx.approximation_sweep(set_, [32 * dx, 16 * dx, 8 * dx],
                                           cls=cls, bd=bd)
        return table["verdict"] == "BOUNDED"
    return run


def _interior_approximation(key):
    def run(ctx):
        set_ = ctx[key][0]
        cls, bd = ctx[key + "/cls"]
        rep = approx.interior_approximation(set_, 8 * set_.grid.spacing,
                                            cls=cls, bd=bd)
        kept = int(rep.e_cells.sum())
        return (0 < kept < set_.cell_count and rep.removed_volume > 0.0
                and math.isfinite(rep.ratio))
    return run


def _trace(key):
    def run(ctx):
        F = ctx[key][1]
        tm = dmfield.trace_measure(F)
        ctx[key + "/tm"] = tm
        return (tm.g_infinity <= 4.0 * F.sup_bound
                and tm.eq_mixed_gap <= 1e-12 * (1.0 + tm.g_infinity))
    return run


def _gauss_green_worst(F, tm) -> float:
    """Worst Gauss-Green residual over the basis, relative to one plus the
    trace measure's total variation (the basis is 1 on the grid)."""
    scale = 1.0 + sum(abs(w) for w in tm.side_weights.values())
    return max(dmfield.gauss_green_residual(F, phi, tm)
               for phi in dmfield.default_phi_basis(F.grid)) / scale


def _gauss_green(key):
    def run(ctx):
        return _gauss_green_worst(ctx[key][1], ctx[key + "/tm"]) <= 1e-8
    return run


def _ladder(key):
    def run(ctx):
        return dmfield.trace_weak_convergence(ctx[key][1])["verdict"] == "CONVERGENT"
    return run


def _slit_jump_densities(ctx) -> bool:
    """Exact slit trace: -2 on the crack, +1 on top/bottom, 0 laterally."""
    F = ctx["slit-jump"]
    grid = F.grid
    tm = dmfield.trace_measure(F)
    ctx["slit-jump/tm"] = tm
    per_facet: dict = {}
    for (a, idx, _side), w in tm.side_weights.items():
        per_facet[(a, idx)] = per_facet.get((a, idx), 0.0) + w / grid.facet_area
    for a in range(grid.n):
        for i in np.argwhere(tm.support_reduced.masks[a] | tm.support_crack.masks[a]):
            per_facet.setdefault((a, tuple(int(v) for v in i)), 0.0)
    slit, horizontal, lateral = [], [], []
    for (a, idx), g in per_facet.items():
        if a == 0:
            lateral.append(abs(g))
        elif abs(grid.facet_center(a, idx)[1]) < 1e-9:
            slit.append(abs(g + 2.0))
        else:
            horizontal.append(abs(g - 1.0))
    if not slit or not horizontal:
        return False
    return max(slit + horizontal + lateral) <= 1e-9


def _slit_jump_gauss_green(ctx) -> bool:
    return _gauss_green_worst(ctx["slit-jump"], ctx["slit-jump/tm"]) <= 1e-8


def _interior_trace(ctx) -> bool:
    """Interior trace of a constant field on the box |x|, |y| < 1/2: the
    edge densities are minus half the outward normal component."""
    set_, F, direction = ctx["square"]
    grid = set_.grid
    X = np.stack(np.broadcast_arrays(*grid.cell_center_mesh()), axis=-1)
    E = (np.abs(X[..., 0]) < 0.5) & (np.abs(X[..., 1]) < 0.5)
    rep = dmfield.interior_normal_trace(F, E)
    if not rep.gate_passed:
        return False
    edges: dict = {}
    for (a, idx), w in rep.atoms.items():
        upper = grid.facet_center(a, idx)[a] > 0.0
        edges.setdefault((a, upper), []).append(w / grid.facet_area)
    for (a, upper), values in edges.items():
        want = (-0.5 if upper else 0.5) * direction[a]
        if abs(float(np.mean(values)) - want) > 0.05 * 0.5:
            return False
    return len(edges) == 4


def _analysis_jobs(key, *, sweep: bool, ladder_known: str | None = None):
    jobs = [Job(f"{key}/classify", _classify(key, STAR_MEASURE[key]))]
    if sweep:
        jobs += [Job(f"{key}/perimeter", _perimeter(key, PERIMETER[key])),
                 Job(f"{key}/approximation_sweep", _sweep(key))]
    else:
        jobs.append(Job(f"{key}/interior_approximation", _interior_approximation(key)))
    jobs.append(Job(f"{key}/trace_measure", _trace(key)))
    if sweep:
        jobs.append(Job(f"{key}/gauss_green", _gauss_green(key)))
    jobs.append(Job(f"{key}/ladder", _ladder(key), known=ladder_known))
    return jobs


# ---------------------------------------------------------------------------
# solve jobs
# ---------------------------------------------------------------------------


def _solve(key, solver_name):
    def run(ctx):
        set_, td = ctx[key][0], ctx[key][-1]
        rep = getattr(divsolve, solver_name)(set_, td)
        return bool(divsolve.verify_solution(rep, set_, td)["pass"])
    return run


# ---------------------------------------------------------------------------
# CLI jobs: one subprocess each, in the run's work directory
# ---------------------------------------------------------------------------


def package_env(root: str) -> dict:
    """Environment that finds the uninstalled package under ``src``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _cli(ctx, args) -> subprocess.CompletedProcess:
    """One ``python -m roughgg.cli`` process; a traced run records it as a
    span named after the subcommand (``cli.solve_div``, ``cli.help``)."""
    tracer = ctx.get("tracer")
    if tracer is not None:
        sid = tracer.begin("cli." + args[0].lstrip("-").replace("-", "_"))
    try:
        return subprocess.run([sys.executable, "-m", "roughgg.cli", *args],
                              cwd=ctx["work"], env=package_env(ctx["root"]),
                              capture_output=True, text=True, timeout=120)
    finally:
        if tracer is not None:
            tracer.end(sid)


def _read_json(ctx, name):
    with open(os.path.join(ctx["work"], name), encoding="utf-8") as handle:
        return json.load(handle)


def _pgm_ok(path) -> bool:
    with open(path, "rb") as handle:
        data = handle.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        return False
    w, h = (int(v) for v in parts[1].split())
    return len(parts[3]) == w * h


def _expect(ctx, args, code=0):
    """The finished process when it exits with ``code``, else None (and one
    more unexpected exit counted)."""
    proc = _cli(ctx, args)
    if proc.returncode != code:
        ctx["bad_exit"] = ctx.get("bad_exit", 0) + 1
        return None
    return proc


def _cli_help(ctx):
    proc = _expect(ctx, ["--help"])
    return proc is not None and "solve-div" in proc.stdout


def _cli_classify(ctx):
    if not _expect(ctx, ["classify", "--preset", "slit-square", "--grid", "128",
                         "--png", "cls.pgm", "--out", "cls.json"]):
        return False
    rep = _read_json(ctx, "cls.json")
    return (_pgm_ok(os.path.join(ctx["work"], "cls.pgm"))
            and abs(rep["star_measure"] - 10.0) <= 0.05 * 10.0)


def _cli_perimeter(ctx):
    if not _expect(ctx, ["perimeter", "--preset", "disk", "--grid", "128",
                         "--out", "per.json"]):
        return False
    value = _read_json(ctx, "per.json")["perimeter_estimate"]
    return abs(value - PERIMETER["disk"]) <= 0.05 * PERIMETER["disk"]


def _cli_sweep(ctx):
    if not _expect(ctx, ["approx", "--preset", "slit-square", "--grid", "128",
                         "--sweep", "0.25,0.125,0.0625", "--out", "sweep.csv"]):
        return False
    with open(os.path.join(ctx["work"], "sweep.csv"), encoding="utf-8") as handle:
        rows = handle.read().split()[1:]
    return len(rows) == 3 and all(r.endswith(",BOUNDED") for r in rows)


def _cli_approx(ctx):
    if not _expect(ctx, ["approx", "--preset", "cantor-cross", "--k", "2",
                         "--grid", "36", "--delta", "0.25", "--out", "approx.json"]):
        return False
    rep = _read_json(ctx, "approx.json")
    return rep["removed_volume"] > 0.0 and math.isfinite(rep["ratio"])


# the slit-jump trace (the default field): compatible data for solve-div
TRACE_ARGS = ["trace", "--preset", "slit-square", "--grid", "64", "--csv", "tr.csv",
              "--png", "tr.pgm", "--out", "tr.json"]


def _gg_args(ctx, tag=""):
    return ["gg-check", "--preset", "slit-square", "--grid", "64",
            "--field", f"seed:{ctx['seed']}", "--out", f"gg{tag}.json"]


def _solve_args(tag=""):
    return ["solve-div", "--preset", "slit-square", "--grid", "64",
            "--trace", "tr.csv", "--flux", f"f{tag}.dmf", "--out", f"solve{tag}.json"]


def _cli_trace(ctx):
    if not _expect(ctx, TRACE_ARGS):
        return False
    rep = _read_json(ctx, "tr.json")
    return (abs(rep["g_infinity"] - 2.0) <= 1e-9
            and _pgm_ok(os.path.join(ctx["work"], "tr.pgm")))


def _cli_gg_check(ctx):
    if not _expect(ctx, _gg_args(ctx)):
        return False
    return _read_json(ctx, "gg.json")["worst_relative"] <= 1e-8


def _cli_solve_div(ctx):
    if not _expect(ctx, _solve_args()):
        return False
    rep = _read_json(ctx, "solve.json")
    return rep["audit_pass"] and rep["trace_linf_gap"] <= 1e-8


def _cli_solve_div_bad(ctx):
    return _expect(ctx, ["solve-div", "--preset", "slit-square", "--grid", "64",
                         "--trace", "bad.csv"], code=3) is not None


def _cli_gallery(ctx):
    if not _expect(ctx, ["gallery", "--out-dir", "gallery"]):
        return False
    manifest = _read_json(ctx, os.path.join("gallery", "manifest.json"))
    return sorted(manifest) == sorted(domain.PRESET_NAMES)


def _cli_rerun(ctx):
    """Rerun the seeded gg-check and the solve-div under other output
    names and compare their artifacts byte for byte."""
    ok = (_expect(ctx, _gg_args(ctx, "2")) is not None
          and _expect(ctx, _solve_args("2")) is not None)
    mismatched = 0
    for name in ("gg{}.json", "f{}.dmf", "solve{}.json"):
        first, second = (os.path.join(ctx["work"], name.format(t)) for t in ("", "2"))
        if not (os.path.exists(first) and os.path.exists(second)):
            mismatched += 1
            continue
        with open(first, "rb") as a, open(second, "rb") as b:
            mismatched += a.read() != b.read()
    ctx["artifact_mismatch"] = mismatched
    return ok and mismatched == 0


JOBS = {
    "analysis2d": (
        _analysis_jobs("slit-square", sweep=True)
        + _analysis_jobs("slit-disk", sweep=True, ladder_known="ladder-10pct")
        + _analysis_jobs("cantor-cross", sweep=True)
        + [Job("slit-jump/densities", _slit_jump_densities),
           Job("slit-jump/gauss_green", _slit_jump_gauss_green),
           Job("square/interior_normal_trace", _interior_trace)]
    ),
    "solve2d": [
        Job("slit-square-256/solve_direct", _solve("slit-square-256", "solve_direct")),
        Job("slit-square-128/solve_direct", _solve("slit-square-128", "solve_direct")),
        Job("slit-square-128/solve_decomposed",
            _solve("slit-square-128", "solve_decomposed")),
        Job("slit-disk-128/solve_direct", _solve("slit-disk-128", "solve_direct"),
            known="crack-side-weights"),
        Job("slit-disk-128/solve_decomposed",
            _solve("slit-disk-128", "solve_decomposed"), known="crack-side-weights"),
    ],
    "cube3d": (
        _analysis_jobs("cube", sweep=False)
        + [Job("cube/solve_direct", _solve("cube", "solve_direct"),
               known="crack-side-weights")]
    ),
    "cli": [
        Job("cli/help", _cli_help),
        Job("cli/classify", _cli_classify),
        Job("cli/perimeter", _cli_perimeter),
        Job("cli/approx_sweep", _cli_sweep),
        Job("cli/approx", _cli_approx),
        Job("cli/trace", _cli_trace),
        Job("cli/gg_check", _cli_gg_check),
        Job("cli/solve_div", _cli_solve_div),
        Job("cli/solve_div_incompatible", _cli_solve_div_bad),
        Job("cli/gallery", _cli_gallery),
        Job("cli/rerun_identical", _cli_rerun),
    ],
}
