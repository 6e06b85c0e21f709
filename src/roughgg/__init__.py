"""Gauss-Green calculus on rasterized rough domains with explicit cracks.

The package realizes, at desk scale, the constructive side of the trace
and extension theory for bounded divergence-measure fields on open sets
whose boundary minus the measure-theoretic exterior has finite size:
measure-theoretic classification, uniformly-bounded-perimeter interior
approximation, normal traces across cracks, up-to-the-boundary
integration by parts, and prescribed-trace divergence solves.
"""

from .approx import (
    ApproxReport,
    BallCover,
    approximation_sweep,
    cantor_generation_sweep,
    interior_approximation,
)
from .divsolve import (
    SolveReport,
    is_compatible,
    solve_decomposed,
    solve_direct,
    verify_solution,
)
from .dmfield import (
    FluxField,
    SignedMeasure,
    TestFunction,
    TraceData,
    TraceMeasure,
    VectorTestFunction,
    bv_trace_check,
    default_phi_basis,
    divergence_measure,
    extend_by_zero,
    extension_bound_check,
    gauss_green_residual,
    interior_normal_trace,
    mollify_field,
    normal_trace_pairing,
    polynomial_test_function,
    product_rule_check,
    sample_field,
    trace_linfinity_check,
    trace_measure,
    trace_weak_convergence,
)
from .domain import (
    DomainSpec,
    RoughSet,
    make_grid,
    parse_domain,
    preset_set,
    preset_spec,
    rasterize,
)
from .errors import (
    CompatibilityError,
    CrackPlacementError,
    DomainSemanticError,
    DomainSyntaxError,
    GridTooCoarseError,
    InputError,
    InvariantViolation,
    RoughGGError,
)
from .gridcore import MINUS, PLUS, FacetArrays, Grid
from .measure import (
    AhlforsReport,
    BoundaryDecomposition,
    Classification,
    ahlfors_constant,
    boundary_decomposition,
    classify,
    density,
    perimeter,
    star_condition_diagnostic,
)
from .mollify import MollifierKernel

__version__ = "0.1.0"
