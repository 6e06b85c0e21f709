"""Command-line surface: reproducible experiments over the gallery.

One binary with subcommands; outputs are written atomically and floats
are printed with 17 significant digits, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 invariant violation,
2 bad input, 3 incompatible trace data.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io as rio
from ._util import atomic_write_text, dumps_json, format_float
from .dmfield import (
    TraceData,
    default_phi_basis,
    normal_trace_pairing,
    sample_field,
    trace_measure,
)
from .domain import (
    PRESET_NAMES,
    make_grid,
    parse_domain,
    preset_spec,
    rasterize,
)
from .errors import InputError, RoughGGError
from .fields import (
    linear_field,
    seeded_trig_field,
    separated_smooth_field,
    slit_jump_field,
)
from .measure import boundary_decomposition, classify, perimeter

GALLERY_REFERENCES = {
    "square": {"area": 4.0, "perimeter": 8.0, "star_measure": 8.0,
               "crack_length": 0.0, "source": "analytic"},
    "disk": {"area": math.pi, "perimeter": 2.0 * math.pi,
             "star_measure": 2.0 * math.pi, "crack_length": 0.0,
             "source": "analytic"},
    "slit-square": {"area": 4.0, "perimeter": 8.0, "star_measure": 10.0,
                    "crack_length": 2.0, "source": "analytic"},
    "slit-disk": {"area": math.pi, "perimeter": 2.0 * math.pi,
                  "star_measure": 2.0 * math.pi + 1.0, "crack_length": 1.0,
                  "source": "analytic"},
    "l-shape": {"area": 3.0, "perimeter": 8.0, "star_measure": 8.0,
                "crack_length": 0.0, "source": "analytic"},
    "cantor-cross": {"area": 4.0 * math.pi, "perimeter": 4.0 * math.pi,
                     "star_measure": 4.0 * math.pi + 4.0 * (4.0 / 3.0) ** 2,
                     "crack_length": 4.0 * (4.0 / 3.0) ** 2,
                     "source": "analytic (crack: exact generation count, k=2)"},
}

FIELDS = {
    "slit-jump": (slit_jump_field, 1.0),
    "smooth": (separated_smooth_field, 1.0),
    "linear": (linear_field, None),  # bound depends on the domain box
}


def _load_spec(args):
    sources = [args.preset is not None, args.domain is not None,
               args.domain_file is not None]
    if sum(sources) != 1:
        raise InputError("exactly one of --preset / --domain / --domain-file")
    if args.preset:
        return preset_spec(args.preset, k=getattr(args, "k", None))
    if args.domain:
        return parse_domain(args.domain)
    try:
        with open(args.domain_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read domain file: {exc}") from exc
    return parse_domain(text)


def _build_set(args):
    if args.grid < 1:
        raise InputError(f"--grid must be a positive integer, got {args.grid}")
    spec = _load_spec(args)
    return spec, rasterize(spec, make_grid(spec, 1.0 / args.grid, margin_cells=args.margin))


def _finite_positive(text: str) -> float:
    """argparse type of widths and scales: a finite number above zero;
    anything else is a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}")
    return value


def _scale_list(text: str) -> list[float]:
    return [_finite_positive(v) for v in text.split(",")]


def _build_field(args, set_):
    name = args.field
    if name == "seed" or name.startswith("seed:"):
        text = "0" if name == "seed" else name[len("seed:"):]
        if not (text.isascii() and text.isdigit()):
            raise InputError(f"field seed must be a non-negative integer, got {text!r}")
        return sample_field(seeded_trig_field(int(text)), set_, 1.0)
    if name not in FIELDS:
        raise InputError(
            f"unknown field {name!r} (use slit-jump, smooth, linear, seed, seed:N)"
        )
    maker, bound = FIELDS[name]
    if bound is None:
        lo, hi = set_.grid.bounds()
        bound = float(np.max(np.abs(np.stack([lo, hi]))))
    return sample_field(maker(), set_, bound)


def _write_json(path, payload):
    atomic_write_text(path, dumps_json(payload))


def _domain_args(p):
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--domain", help="inline domain JSON")
    p.add_argument("--domain-file", help="path to a domain JSON document")
    p.add_argument("--grid", type=int, required=True,
                   help="cells per unit length (spacing = 1/N)")
    p.add_argument("--k", type=int, default=None, help="generation for cantor-cross")
    p.add_argument("--margin", type=int, default=4, help="margin cells around the box")


def cmd_classify(args) -> int:
    _, set_ = _build_set(args)
    cls = classify(set_, tau=args.tau)
    bd = boundary_decomposition(set_, cls)
    report = {
        "spacing": set_.grid.spacing,
        "cells": set_.cell_count,
        "volume": set_.volume,
        "labels": {"interior": cls.count(2), "essboundary": cls.count(1),
                   "exterior": cls.count(0)},
        "reduced_measure": bd.reduced_measure,
        "crack_measure": bd.crack_measure,
        "star_measure": bd.star_measure,
        "tau": cls.tau,
        "r_star": cls.r_star,
    }
    if args.out:
        _write_json(args.out, report)
    if args.png:
        rio.write_pgm(args.png, cls.to_pgm_levels())
    print(f"classify: {set_.cell_count} cells, star measure "
          f"{bd.star_measure:.6g}")
    return 0


def cmd_perimeter(args) -> int:
    _, set_ = _build_set(args)
    eps = args.eps if args.eps else 4.0 * set_.grid.spacing
    value = perimeter(set_.grid, set_.cells, eps)
    report = {
        "spacing": set_.grid.spacing,
        "eps": eps,
        "perimeter_estimate": value,
        "perimeter_facet_count": set_.reduced_measure,
    }
    if args.out:
        _write_json(args.out, report)
    print(f"perimeter: {format_float(value)}")
    return 0


def cmd_approx(args) -> int:
    from .approx import approximation_sweep, interior_approximation

    _, set_ = _build_set(args)
    if args.sweep:
        table = approximation_sweep(set_, args.sweep)
        lines = ["delta,spacing,perimeter,removed,ratio,verdict"]
        for row in table["rows"]:
            cols = [row[k] for k in ("delta", "spacing", "perimeter", "removed", "ratio")]
            lines.append(",".join([*map(format_float, cols), table["verdict"]]))
        if args.out:
            atomic_write_text(args.out, "\n".join(lines) + "\n")
        print(f"approx sweep: verdict {table['verdict']}")
        return 0
    # 8 spacings is the least scale interior_approximation accepts
    delta = args.delta if args.delta is not None else max(0.125, 8.0 * set_.grid.spacing)
    rep = interior_approximation(set_, delta)
    report = {
        "delta": rep.delta,
        "spacing": set_.grid.spacing,
        "perimeter_estimate": rep.perimeter_estimate,
        "perimeter_facet_count": rep.perimeter_facets,
        "removed_volume": rep.removed_volume,
        "star_measure": rep.star_measure,
        "ratio": rep.ratio,
        "cover_balls": len(rep.cover.balls),
        "cover_sphere_area": rep.cover.totals,
        "kappa": rep.kappa,
    }
    if args.out:
        _write_json(args.out, report)
    if args.png:
        levels = np.where(rep.e_cells, 255, 0).astype(np.uint8)
        rio.write_pgm(args.png, levels)
    print(f"approx: ratio {rep.ratio:.6g}, removed {rep.removed_volume:.6g}")
    return 0


def cmd_trace(args) -> int:
    _, set_ = _build_set(args)
    F = _build_field(args, set_)
    tm = trace_measure(F)
    per_facet = {}
    for (a, idx, _s), w in tm.side_weights.items():
        per_facet[(a, idx)] = per_facet.get((a, idx), 0.0) + w / set_.grid.facet_area
    report = {
        "field": args.field,
        "spacing": set_.grid.spacing,
        "g_infinity": tm.g_infinity,
        "total": tm.integral,
        "halving_identity_gap": tm.eq_mixed_gap,
        "facets": [
            {"axis": a, "index": list(idx), "g": g}
            for (a, idx), g in sorted(per_facet.items())
        ],
        "sides": [
            {"axis": a, "index": list(idx), "side": side,
             "g": w / set_.grid.facet_area}
            for (a, idx, side), w in sorted(tm.side_weights.items())
        ],
    }
    if args.out:
        _write_json(args.out, report)
    if args.csv:
        rio.write_trace_csv(args.csv, tm.side_weights, set_.grid)
    if args.png:
        rio.write_pgm(args.png, rio.trace_strip_levels(tm.side_weights, set_.grid))
    print(f"trace: |g|_inf {tm.g_infinity:.6g} on {len(per_facet)} facets")
    return 0


def cmd_gg_check(args) -> int:
    _, set_ = _build_set(args)
    F = _build_field(args, set_)
    tm = trace_measure(F)
    basis = default_phi_basis(set_.grid)
    rows = []
    worst = 0.0
    for phi in basis:
        pairing = normal_trace_pairing(F, phi)
        residual = abs(pairing - tm.integrate(phi))
        rel = residual / (1.0 + abs(pairing))
        worst = max(worst, rel)
        rows.append({"phi": phi.name, "pairing": pairing,
                     "residual": residual, "relative": rel})
    report = {"field": args.field, "spacing": set_.grid.spacing, "rows": rows,
              "worst_relative": worst}
    if args.out:
        _write_json(args.out, report)
    print(f"gg-check: worst relative residual {worst:.3e}")
    return 0


def cmd_solve_div(args) -> int:
    from .divsolve import solve_decomposed, solve_direct, verify_solution

    _, set_ = _build_set(args)
    td = TraceData(set_)
    for key, g in rio.read_trace_csv(args.trace, set_.grid).items():
        td.set_side(*key, g)
    if args.mode == "direct":
        rep = solve_direct(set_, td)
    else:
        rep = solve_decomposed(set_, td)
    audit = verify_solution(rep, set_, td)
    report = {
        "mode": rep.mode,
        "interior_div_residual": rep.interior_div_residual,
        "trace_linf_gap": rep.trace_linf_gap,
        "trace_l1_gap": rep.trace_l1_gap,
        "kappa": rep.kappa,
        "audit_pass": audit["pass"],
    }
    if args.out:
        _write_json(args.out, report)
    if args.flux:
        rio.write_flux_field(args.flux, rep.F)
    print(f"solve-div [{rep.mode}]: residual {rep.interior_div_residual:.3e}, "
          f"trace gap {rep.trace_linf_gap:.3e}")
    return 0 if audit["pass"] else 1


def cmd_gallery(args) -> int:
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {args.out_dir}: {exc.strerror or exc}") from exc
    manifest = {}
    for name in PRESET_NAMES:
        spec = preset_spec(name)
        doc = {"preset": name}
        if name == "cantor-cross":
            doc["k"] = spec.k
        path = os.path.join(args.out_dir, f"{name}.json")
        atomic_write_text(path, dumps_json(doc))
        manifest[name] = {"file": f"{name}.json", **GALLERY_REFERENCES[name]}
    atomic_write_text(os.path.join(args.out_dir, "manifest.json"),
                      dumps_json(manifest))
    print(f"gallery: wrote {len(manifest)} presets to {args.out_dir}")
    return 0


def cmd_accept(args) -> int:
    from .accept import run_acceptance

    failures = run_acceptance(only=args.only)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughgg",
        description="Gauss-Green calculus on rasterized rough domains with cracks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="label cells and measure the boundary")
    _domain_args(p)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--out")
    p.add_argument("--png")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("perimeter", help="mollified perimeter estimate")
    _domain_args(p)
    p.add_argument("--eps", type=_finite_positive, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_perimeter)

    p = sub.add_parser("approx", help="interior approximation at one scale")
    _domain_args(p)
    p.add_argument("--delta", type=_finite_positive, default=None,
                   help="approximation scale (default: 0.125 or 8 spacings, "
                        "whichever is larger)")
    p.add_argument("--sweep", type=_scale_list,
                   help="comma-separated scales: emit CSV instead")
    p.add_argument("--out")
    p.add_argument("--png")
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("trace", help="normal-trace measure of a field")
    _domain_args(p)
    p.add_argument("--field", default="slit-jump")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--png")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("gg-check", help="Gauss-Green residuals over a basis")
    _domain_args(p)
    p.add_argument("--field", default="slit-jump")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gg_check)

    p = sub.add_parser("solve-div", help="prescribed-trace divergence solve")
    _domain_args(p)
    p.add_argument("--trace", required=True, help="trace CSV (axis,i...,side,g)")
    p.add_argument("--mode", choices=("direct", "decomposed"), default="direct")
    p.add_argument("--out")
    p.add_argument("--flux", help="write the solution field binary")
    p.set_defaults(fn=cmd_solve_div)

    p = sub.add_parser("gallery", help="write preset documents and manifest")
    p.add_argument("--out-dir", default="gallery")
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--only", type=int, default=None)
    p.set_defaults(fn=cmd_accept)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RoughGGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
