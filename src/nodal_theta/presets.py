"""Shipped example instances.

Both place the base point on the line through the identified points (outside
the segment between them), and both leave the node disks small enough that
generic shifts rarely park a zero inside them.
"""

from .curve import NodalCurveSpec

CONFIG_A_TEXT = """\
# square lattice instance
curve.tau = 0,1
curve.p1 = 0.76,0.52
curve.p2 = 0.45,0.35
curve.z0 = 0.14,0.18
curve.q0 = 0,0
curve.delta = 0.06
curve.eps = 0.06
curve.eps_candidates = 0.05 0.04 0.03
run.samples = 10
run.seed = 20260808
run.out_dir = out
"""

CONFIG_B_TEXT = """\
# oblique lattice instance
curve.tau = 0.3,0.8
curve.p1 = 0.745,0.23
curve.p2 = 0.535,0.36
curve.z0 = 0.304,0.503
curve.q0 = 0,0
curve.delta = 0.06
curve.eps = 0.06
curve.eps_candidates = 0.045 0.035 0.025
run.samples = 10
run.seed = 20260808
run.out_dir = out
"""


def config_a() -> NodalCurveSpec:
    return NodalCurveSpec(
        tau=1j, p1=0.76 + 0.52j, p2=0.45 + 0.35j, z0=0.14 + 0.18j,
        q0=0.0, delta=0.06, eps=0.06,
    )


def config_b() -> NodalCurveSpec:
    return NodalCurveSpec(
        tau=0.3 + 0.8j, p1=0.745 + 0.23j, p2=0.535 + 0.36j, z0=0.304 + 0.503j,
        q0=0.0, delta=0.06, eps=0.06,
    )
