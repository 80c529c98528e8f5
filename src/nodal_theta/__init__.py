"""Numerical toolkit for generalized theta functions on a nodal curve built
from an elliptic curve with two identified points: the normalized third-kind
differential, the two-component period map with branch tracking, zeros of
the pulled-back theta function, generalized Riemann constants, and the
divisor-image congruence with its branch-cut correction."""

from .abel_jacobi import (
    AbelJacobiValue,
    BranchedPath,
    a_eps,
    default_path,
    divisor_image,
    phi,
    phi1,
    phi2,
)
from .branches import beta_k, select_epsilon, zero_set_residual
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
from .differentials import ThirdKindDifferential, eta_coeff, h1_at_p2, h_at_p1, period_integral
from .inversion import (
    DMap,
    RiemannConstants,
    ThetaPullback,
    Thm51Result,
    branch_correction,
    count_zeros,
    d_map,
    d_map_corrected,
    locate_zeros,
    riemann_constants,
    verify_thm51,
)
from .theta import (
    DEFAULT_POLICY,
    SeriesPolicy,
    big_theta,
    e_func,
    psi,
    rho0_factor,
    theta_char,
    theta_char_and_dz,
    theta_char_dz,
    translation_factor,
)

__all__ = [
    "AbelJacobiValue",
    "BranchedPath",
    "DEFAULT_POLICY",
    "DMap",
    "GammaDecomposition",
    "NodalCurveSpec",
    "PeriodGroup",
    "RiemannConstants",
    "SeriesPolicy",
    "ThetaPullback",
    "ThirdKindDifferential",
    "Thm51Result",
    "a_eps",
    "beta_k",
    "big_theta",
    "branch_correction",
    "congruent_mod_gamma",
    "count_zeros",
    "d_map",
    "d_map_corrected",
    "default_path",
    "derive_periods",
    "divisor_image",
    "e_func",
    "eta_coeff",
    "h1_at_p2",
    "h_at_p1",
    "is_toroidal",
    "locate_zeros",
    "mod_gamma_decompose",
    "period_group",
    "period_integral",
    "phi",
    "phi1",
    "phi2",
    "psi",
    "rho0_factor",
    "riemann_constants",
    "select_epsilon",
    "theta_char",
    "theta_char_and_dz",
    "theta_char_dz",
    "translation_factor",
    "verify_thm51",
    "zero_set_residual",
]

__version__ = "0.1.0"
