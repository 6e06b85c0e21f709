"""Smoothing that respects cracks, and traces on interior sets.

One-sided mollification never mixes the two sides of a crack, so the
slit jump survives smoothing exactly and the trace pairings of the
mollified fields converge along the width ladder.  On a set compactly
inside the body, the interior trace comes out of the mollified
indicator-gradient pairing: its density on a straight edge is half the
one-sided flux, so minus twice the measure is the classical flux -- the
factor the crack calculus hinges on.  The product rule closes the loop:
the field-against-scalar-gradient pairing converges as the smoothing
width shrinks, under the variation bound.
"""

import numpy as np

from roughgg import (
    interior_normal_trace,
    mollify_field,
    preset_set,
    product_rule_check,
    sample_field,
    trace_weak_convergence,
)
from roughgg.fields import linear_field, separated_smooth_field, slit_jump_field

slit = preset_set("slit-square", 1.0 / 64.0, margin_cells=4)
F = sample_field(slit_jump_field(), slit, 1.0)
Fe = mollify_field(F, 8 * slit.grid.spacing)
crack = F.topology.crack[1]
print("slit jump after smoothing at width 8 cells:",
      float(Fe.vminus[1][crack][0]), "/", float(Fe.vplus[1][crack][0]))

table = trace_weak_convergence(F)
print("trace-pairing ladder on the slit square:",
      [f"{row['gap']:.1e}" for row in table["rows"]], table["verdict"])

disk = preset_set("disk", 1.0 / 96.0, margin_cells=4)
Fs = sample_field(separated_smooth_field(), disk, 1.0)
table = trace_weak_convergence(Fs)
print("trace-pairing ladder on the disk:     ",
      [f"{row['gap']:.1e}" for row in table["rows"]], table["verdict"])

square = preset_set("square", 1.0 / 128.0, margin_cells=4)
Fc = sample_field(lambda X: np.stack(
    [np.ones(X.shape[:-1]), np.zeros(X.shape[:-1])], axis=-1), square, 1.0)
X = np.stack(np.broadcast_arrays(*square.grid.cell_center_mesh()), axis=-1)
E = (np.abs(X[..., 0]) < 0.5) & (np.abs(X[..., 1]) < 0.5)
rep = interior_normal_trace(Fc, E)
w = rep.weights[0] / square.grid.facet_area
x = np.broadcast_to(square.grid.facet_center_mesh(0)[0], w.shape)
lefts = w[(w != 0.0) & (x < 0.0)]
print(f"\ninterior trace on a sub-square, left-edge density "
      f"{np.mean(lefts):.4f} (half the unit flux); fitted-order gate "
      f"{'passed' if rep.gate_passed else 'failed'}")
print(f"minus twice the measure reproduces the interior pairing to "
      f"{rep.gg_residual:.1e}")

g = ((X[..., 0] ** 2 + X[..., 1] ** 2) < 0.25).astype(float)
pr = product_rule_check(sample_field(linear_field(), square, 1.5), g)
print("\nproduct-rule residual per width:",
      [f"{row['residual']:.2e}" for row in pr["rows"]],
      f"order {pr['order']:.2f}")
print("variation bound rows:",
      [f"{row['pairing_tv']:.3f} <= {row['sup_bound'] * row['dg_total']:.3f}"
       for row in pr["bound_rows"]])
