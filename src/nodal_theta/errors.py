"""Exception types raised by the numerical kernels."""


class NodalThetaError(Exception):
    """Base class for all library-specific failures."""


class NonConvergent(NodalThetaError):
    """A truncated series could not meet its tail bound within the index budget."""


class PoleAt(NodalThetaError):
    """An evaluation point coincides (to rounding) with a pole of the integrand."""


class QuadratureFailure(NodalThetaError):
    """Adaptive quadrature exhausted its refinement budget."""


class LogBranchUnresolved(NodalThetaError):
    """No continuous arg of R(z) = Q(z)(z - p2)/(z - p1) was resolved on the
    node grid of the cell, up to its largest grid (abel_jacobi._arg_table)."""


class ContourThroughZero(NodalThetaError):
    """A contour (winding, log tracking or moment line) runs too close to a
    zero; the thm51 suite skips and counts such a sample (THM51_SKIPS)."""


class ZeroCollision(NodalThetaError):
    """The located zeros of T_c are not two distinct simple zeros outside the
    excluded disks (they collide, Newton polish fails, or one lies in a disk)."""


class DegenerateC(NodalThetaError):
    """The shift parameter c fails a genericity guard (theta value too small)."""


class NewtonDivergence(NodalThetaError):
    """The closed-form root of the stated inverse (branches.beta_k) misses
    the computed map d2 by 1e-12 (_NEWTON_TOL) or more, which is a defect.
    No Newton iteration raises it or its subclass NoPreimage; the name stays
    because callers catch it."""


class NoPreimage(NewtonDivergence):
    """The stated map d(eps) has no c2 over the target: its closed-form
    candidate misses by a nonzero integer, has no finite value, or puts a
    zero of T_c on the chart ray."""


class JacobianSingular(NodalThetaError):
    """The closed-form c2-derivative of the d-map and its finite-difference
    dual route disagree.  The package raises it nowhere: the test oracle
    jacobian_consistency_check (tests/oracles.py) raises it, and perfbench's
    skip tuples still name it."""


class NoValidEpsilon(NodalThetaError):
    """Every candidate radius failed the period-freeness sampling test."""
