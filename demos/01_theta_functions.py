"""Theta functions with characteristics and the two-variable extension.

Walks through the basic evaluations: series values, quasi-periodicity under
lattice shifts, and the rank-3 automorphy of the two-variable function.
"""

import numpy as np

from nodal_theta import big_theta, e_func, theta_char, theta_chars, translation_factor

tau = 1j

print("classical value: theta[0;0](0, i) =", theta_char((0.0, 0.0), 0.0, tau))
print("odd characteristic vanishes:      |theta[1/2;1/2](0, i)| =",
      abs(theta_char((0.5, 0.5), 0.0, tau)))
((odd_dz,),) = theta_chars(((0.5, 0.5),), 0.0, tau, (1,))
print("derivative at the odd zero:       theta'[1/2;1/2](0, i) =", odd_dz)

z = 0.31 + 0.22j
for (p, q) in [(1, 0), (0, 1), (2, -1)]:
    lhs = theta_char((0.3, -0.1), z + p + q * tau, tau)
    rhs = translation_factor((0.3, -0.1), p, q, z, tau) * theta_char((0.3, -0.1), z, tau)
    print(f"translation ({p:+d},{q:+d}): relative error {abs(lhs - rhs) / abs(rhs):.2e}")

# the two-variable function is automorphic for the period group generated by
# (0,1), (1,r1) and (tau,r2)
r1, r2 = -0.17, 0.31
w = 0.12 - 0.40j
base = big_theta(z, w, tau, r1, r2)
print("Theta(z+1, w+r1)  = Theta(z, w):   err",
      abs(big_theta(z + 1, w + r1, tau, r1, r2) - base))
print("Theta(z, w+1)     = Theta(z, w):   err",
      abs(big_theta(z, w + 1, tau, r1, r2) - base))
print("Theta(z+tau, w+r2) picks up e(-tau/2 - z): err",
      abs(big_theta(z + tau, w + r2, tau, r1, r2) - e_func(-0.5 * tau - z) * base))

# vectorized evaluation over a grid
zs = np.linspace(0, 1, 5) + 0.2j
print("grid evaluation:", np.round(theta_char((0.0, 0.0), zs, tau), 6))
