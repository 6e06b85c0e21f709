"""Integration by parts up to the boundary, cracks included.

The canonical cracked-domain example: the slit square carries the unit
field flipping sign across the slit.  Its divergence vanishes inside the
body (the jump sits on the boundary, not in it), yet the boundary
pairing is nonzero: the normal trace is the one-sided outward flux on
every boundary facet side (equivalently, the negated facet jumps of the
zero extension), with per-facet density -2 on the slit (both one-sided
fluxes point away from the material), +1 on the top and bottom edges,
and 0 on the lateral edges.  The Gauss-Green identity against
polynomial test functions is then exact to machine precision.
"""

import numpy as np

from roughgg import (
    default_phi_basis,
    divergence_measure,
    extend_by_zero,
    normal_trace_pairing,
    preset_set,
    sample_field,
    trace_linfinity_check,
    trace_measure,
)
from roughgg.fields import slit_jump_field

slit = preset_set("slit-square", 1.0 / 64.0, margin_cells=4)
F = sample_field(slit_jump_field(), slit, 1.0)

print("divergence inside the body:",
      divergence_measure(F).total_variation, "(exactly zero)")
ext = divergence_measure(extend_by_zero(F))
print(f"variation of the extended divergence: {ext.total_variation:.6f} "
      "(= 2x2 slit + 1x2 top + 1x2 bottom = 8)")

tm = trace_measure(F)
support = [tm.topology.minus[a] | tm.topology.plus[a] for a in range(2)]
densities = sorted({round(float(g), 9)
                    for a in range(2) for g in tm.net(a)[support[a]]})
print("distinct per-facet trace densities:", densities)
print(f"sup of the trace density: {tm.g_infinity} "
      f"({trace_linfinity_check(tm, F)['ratio']:.1f}x the field bound)")
print(f"total trace mass: {tm.integral:.2e}  (-2*2 + 1*2 + 1*2 = 0)")

print("\npairing vs. measure integral, per test function:")
for phi in default_phi_basis(slit.grid):
    pairing = normal_trace_pairing(F, phi)
    residual = abs(pairing - tm.integrate(phi))
    print(f"  {phi.name:8s} pairing {pairing:=10.6f}   residual {residual:.2e}")
print("(x2^2 integrates the top and bottom edges to 2 + 2 = 4;",
      "the slit sits at height zero and contributes nothing)")
