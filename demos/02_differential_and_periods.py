"""The normalized third-kind differential on a curve with two identified
points: period normalization and the local pole data at the node charts.
"""

from pathlib import Path

import numpy as np

from nodal_theta.cli import parse_config
from nodal_theta.curve import derive_periods, is_toroidal
from nodal_theta.differentials import period_integral, third_kind

spec = parse_config(Path(__file__).with_name("config_a.cfg")).spec
r1, r2, kappa = derive_periods(spec)
print(f"instance: tau={spec.tau}, p1={spec.p1}, p2={spec.p2}")
print(f"closed-form cut periods: r1={r1}, r2={r2}  (dz coefficient {kappa})")

# the full period row of the differential, by quadrature
for contour in ("gamma1", "gamma2", "alpha", "beta"):
    print(f"  integral over {contour:6s} = {period_integral(spec, contour):.12f}")

print("note r2 - r1*tau reproduces the node offset p1 - p2 exactly:",
      r2 - r1 * spec.tau, "vs", spec.p1 - spec.p2)

# simple poles with residues +-1/(2 pi i)
diff = third_kind(spec)
for name, center, local in (("p1", spec.p1, diff.h_at_p1), ("p2", spec.p2, diff.h1_at_p2)):
    t = 1e-4
    print(f"residue scale at {name}: |t*eta| = {abs(t * diff.eta_coeff(center + t)):.6f}"
          f"  (1/(2 pi) = {1 / (2 * np.pi):.6f})")
    print(f"holomorphic part at {name}: value at 0 = {local(0.0):.6f}")

# decimal instance data makes r1, r2 rationally related (17*0.31 = 31*0.17),
# so the bounded search finds the relation; True needs genuinely
# incommensurate periods
print("irrationality diagnostic for (r1, r2):", is_toroidal(r1, r2))
print("   control with rational pair (0, 0.3):", is_toroidal(0.0, 0.3))
