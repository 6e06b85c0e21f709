"""Gauss-Green calculus on rasterized rough domains with explicit cracks.

The package realizes, at desk scale, the constructive side of the trace
and extension theory for bounded divergence-measure fields on open sets
whose boundary minus the measure-theoretic exterior has finite size:
measure-theoretic classification, uniformly-bounded-perimeter interior
approximation, normal traces across cracks, up-to-the-boundary
integration by parts, and prescribed-trace divergence solves.

The public names below load their module on first use (PEP 562), so
``import roughgg`` runs no submodule and loads no scipy.
"""

import importlib

_EXPORTS = {
    "approx": ("ApproxReport", "BallCover", "approximation_sweep",
               "cantor_generation_sweep", "interior_approximation"),
    "divsolve": ("SolveReport", "solve_decomposed", "solve_direct", "verify_solution"),
    "dmfield": ("FluxField", "SignedMeasure", "TestFunction", "TraceData",
                "TraceMeasure", "default_phi_basis", "divergence_measure",
                "extend_by_zero", "extension_bound_check", "gauss_green_residual",
                "interior_normal_trace", "is_compatible", "mollify_field",
                "normal_trace_pairing",
                "product_rule_check", "sample_field",
                "trace_linfinity_check", "trace_measure", "trace_weak_convergence"),
    "domain": ("DomainSpec", "RoughSet", "make_grid", "parse_domain", "preset_set",
               "preset_spec", "rasterize"),
    "errors": ("CompatibilityError", "CrackPlacementError", "DomainSemanticError",
               "DomainSyntaxError", "GridTooCoarseError", "InputError",
               "InvariantViolation", "RoughGGError"),
    "gridcore": ("MINUS", "PLUS", "FacetArrays", "Grid"),
    "measure": ("BoundaryDecomposition", "Classification",
                "ahlfors_constant", "boundary_decomposition", "classify", "density",
                "perimeter", "star_condition_diagnostic"),
    "mollify": ("MollifierKernel",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
