"""The two-component period map on the cut curve: the closed form of the
second component, loop monodromy and the jump relations across the two cuts.
"""

import cmath
import math
from pathlib import Path

import numpy as np

from nodal_theta.abel_jacobi import a_eps, loop_increment, phi, phi1, phi2
from nodal_theta.cli import parse_config
from nodal_theta.curve import derive_periods

spec = parse_config(Path(__file__).with_name("config_a.cfg")).spec
r1, r2, _ = derive_periods(spec)

print("phi(base point) =", phi(spec, spec.z0))
P = spec.point(0.7, 0.6)
print(f"phi({P:.3f}) = ({phi1(spec, P):.6f}, {phi2(spec, P):.6f}) by the closed form, cut on [p1, p2]")

def circle(center, radius, n=24):
    return [center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n + 1)]

print("loop monodromy of the second component:")
print("   around p1:", loop_increment(spec, circle(spec.p1, spec.delta)))
print("   around p2:", loop_increment(spec, circle(spec.p2, spec.eps)))

print("cut jumps (20 points per cut):")
worst_a = max(
    abs(phi2(spec, spec.q0 + s + spec.tau) - phi2(spec, spec.q0 + s) - r2)
    for s in np.linspace(0.025, 0.975, 20)
)
worst_b = max(
    abs(phi2(spec, spec.q0 + t * spec.tau) - phi2(spec, spec.q0 + 1 + t * spec.tau) + r1)
    for t in np.linspace(0.025, 0.975, 20)
)
print(f"   alpha cut: phi jumps by (tau, r2) up to {worst_a:.2e}")
print(f"   beta  cut: phi jumps by (1, r1) up to {worst_b:.2e}")

print("circle average of the second component (enters the inversion constant):")
for eps in (0.04, 0.02, 0.01):
    print(f"   a({eps}) = {a_eps(spec, eps):.8f}")
print("   successive differences track log(2)/(2 pi) =", math.log(2) / (2 * math.pi))
