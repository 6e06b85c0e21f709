"""Solving div F = 0 with a prescribed boundary flux, cracks included.

Crack facets cut the cell graph, so the two sides of a crack accept
independent prescriptions.  The trace of the canonical slit-square field
(a TraceData: per-axis density arrays on the boundary facet sides) is
fed back in as data; both the direct graph solve and the two-step
decomposition through the reduced boundary reproduce it exactly, and
data with net flux is refused.
"""

import numpy as np

from roughgg import (
    CompatibilityError,
    TraceData,
    preset_set,
    sample_field,
    solve_decomposed,
    solve_direct,
    trace_measure,
    verify_solution,
)
from roughgg.fields import slit_jump_field

slit = preset_set("slit-square", 1.0 / 32.0, margin_cells=4)
td = trace_measure(sample_field(slit_jump_field(), slit, 1.0))
print(f"prescribed data: net flux {td.integral:.2e} (compatible)")

for solver in (solve_direct, solve_decomposed):
    rep = solver(slit, td)
    audit = verify_solution(rep, slit, td)
    print(f"{rep.mode:10s} interior residual {rep.interior_div_residual:.2e}  "
          f"trace gap {rep.trace_linf_gap:.2e}  field bound ratio "
          f"{rep.kappa:.3f}  audit {'PASS' if audit['pass'] else 'FAIL'}")

rep = solve_direct(slit, td)
crack = rep.F.topology.crack[1]
print("one-sided values across the slit:",
      float(rep.F.vplus[1][crack][0]), "above,",
      float(rep.F.vminus[1][crack][0]), "below")

print("\nincompatible data (unit outflow everywhere):")
bad = TraceData(slit).fill(lambda X, nu: np.ones(X.shape[:-1]))
try:
    solve_direct(slit, bad)
except CompatibilityError as exc:
    print("  refused:", exc)
