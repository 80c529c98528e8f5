"""Numerical toolkit for generalized theta functions on a nodal curve built
from an elliptic curve with two identified points: the normalized third-kind
differential, the two-component period map with branch tracking, zeros of
the pulled-back theta function, generalized Riemann constants, and the
divisor-image congruence with its branch-cut correction."""

from .abel_jacobi import a_eps, divisor_image, phi, phi1, phi2
from .branches import beta_k, select_epsilon, thm66_point, zero_set_residual
from .curve import (
    GammaDecomposition,
    NodalCurveSpec,
    PeriodGroup,
    congruent_mod_gamma,
    derive_periods,
    is_toroidal,
    mod_gamma_decompose,
    period_group,
)
from .differentials import ThirdKindDifferential, period_integral, third_kind
from .inversion import (
    DMap,
    RiemannConstants,
    ThetaPullback,
    Thm51Result,
    branch_correction,
    count_zeros,
    locate_zeros,
    riemann_constants,
    verify_thm51,
)
from .theta import (
    big_theta,
    e_func,
    theta_char,
    theta_chars,
    translation_factor,
)

__all__ = [
    "DMap",
    "GammaDecomposition",
    "NodalCurveSpec",
    "PeriodGroup",
    "RiemannConstants",
    "ThetaPullback",
    "ThirdKindDifferential",
    "Thm51Result",
    "a_eps",
    "beta_k",
    "big_theta",
    "branch_correction",
    "congruent_mod_gamma",
    "count_zeros",
    "derive_periods",
    "divisor_image",
    "e_func",
    "is_toroidal",
    "locate_zeros",
    "mod_gamma_decompose",
    "period_group",
    "period_integral",
    "phi",
    "phi1",
    "phi2",
    "riemann_constants",
    "select_epsilon",
    "theta_char",
    "theta_chars",
    "third_kind",
    "thm66_point",
    "translation_factor",
    "verify_thm51",
    "zero_set_residual",
]

__version__ = "0.1.0"
