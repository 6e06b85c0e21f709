"""Rasterized rough domains and their measure-theoretic anatomy.

Build the slit square (a box with an interior fracture), classify its
cells by ball-volume fraction, and measure the discrete boundary: the
set's reduced part and crack part, to which the boundary decomposition
adds the exterior-density cells.  The headline
quantity is the measure of the boundary minus the measure-theoretic
exterior: the outer square contributes 8, the slit contributes its
length 2 exactly once, for 10 in total.
"""

import math

from roughgg import (
    boundary_decomposition,
    classify,
    density,
    parse_domain,
    preset_set,
)

slit = preset_set("slit-square", 1.0 / 128.0, margin_cells=4)
print(f"cells: {slit.cell_count}, volume {slit.volume:.6f} (target 4)")
print(f"crack facets: {slit.cracks.count()}, crack length {slit.crack_length():.6f}")

# Density tells interior from exterior from boundary.  A point on the
# slit sees full volume around it: the fracture is volume-null, so the
# slit lies inside the measure-theoretic interior even though it is part
# of the topological boundary.
r = 16 * slit.grid.spacing
print(f"density deep inside:        {density(slit, (0.3, 0.4), r):.4f}")
print(f"density on the outer edge:  {density(slit, (0.0, -1.0 + r), r):.4f}")
print(f"density on the slit:        {density(slit, (0.25, 0.0), r):.4f}")

cls = classify(slit)
bd = boundary_decomposition(slit, cls)
print(f"labels: interior {cls.count(2)}, boundary ring {cls.count(1)}, "
      f"exterior {cls.count(0)}")
print(f"reduced boundary measure:  {slit.reduced_measure:.6f}  (target 8)")
print(f"crack measure:             {slit.crack_length():.6f}  (target 2)")
print(f"boundary minus exterior:   {bd.star_measure:.6f}  (target 10)")

# The same machinery runs on arbitrary documents.
lshape = parse_domain(
    '{"shape":{"op":"diff","args":['
    '{"op":"box","min":[-1,-1],"max":[1,1]},'
    '{"op":"box","min":[0,0],"max":[1,1]}]}}'
)
print("\nparsed an L-shaped difference document:", lshape.shape)
print("area of the unit disk at 1/256:",
      f"{preset_set('disk', 1/256).volume:.6f} vs {math.pi:.6f}")
