"""Pullback of the generalized theta function along the period map, its
zeros, the Laurent data at the node chart, the generalized Riemann constants
and the inversion congruence check.

The pullback

    T_c(P) = Theta(phi1(P) - c1, phi2(P) - c2)

is single-valued on the cut curve because integer ambiguities of phi2 are
killed by e(.).  It is evaluated through the exact branch-free identity
e(phi2(z)) = (Q(z)/Q(z0)) e(kappa*(z - z0)) with Q the odd-theta quotient,
which also makes grid evaluation cheap.  T_c has a simple pole at p2 and
exactly two zeros.  `count_zeros` counts them by the winding of T_c along
the cell boundary; `locate_zeros` finds them from the first two moments of
T'/T on one period line, where the quasi-periodicity of T_c reduces the
argument principle over the cell.  Their divisor image W satisfies

    W == d(eps)(c) + kappa(eps)   mod Gamma,

which `verify_thm51` checks for both readings of the constant (-tau/2
versus -tau in the first component), reporting the residual of each.  The
Laurent data at p2, d(eps) and the branch-cut term all come from one node
chart per (c1, eps), `DMap`, which takes c2 as an argument; on it d(eps) is
the log of one chart value, and the quadrature of h3 is its dual route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .abel_jacobi import a_eps, divisor_image, e_phi2, phi1, phi2
from .curve import (
    NodalCurveSpec,
    derive_periods,
    lattice_coords,
    mod_gamma_decompose,
    period_group,
    reduce_to_cell,
)
from .differentials import third_kind
from .errors import ContourThroughZero, DegenerateC, QuadratureFailure, ZeroCollision
from .quadrature import _N0, _N_MAX, integrate_segment, track_log_sampled, winding_number_sampled
from .theta import TWO_PI_I, e_func, theta_char, theta_char_and_dz, theta_char_dz

GENERICITY_TOL = 1e-3
# Newton polish of the located zeros: step tolerance and iteration cap
_POLISH_TOL, _POLISH_MAX_ITER = 1e-12, 60
# relative disagreement at which jacobian_consistency_check raises
_JACOBIAN_REL_TOL = 1e-5
# draws of sample_generic_c before it gives up
_MAX_TRIES = 64

# What a thm51 sample may raise on a non-generic draw of c: a contour through
# a zero, a zero inside an excluded disk, or a failed genericity guard.  The
# CLI skips and counts such samples.
THM51_SKIPS = (ContourThroughZero, ZeroCollision, DegenerateC)


@lru_cache(maxsize=16)
def _theta_scale(tau: complex, char: tuple[float, float]) -> float:
    """Coarse-grid maximum of |theta[char]| over one fundamental cell."""
    s = np.linspace(0.0, 1.0, 12)
    zs = (s[:, None] + s[None, :] * tau).ravel()
    return float(np.max(np.abs(theta_char(char, zs, tau))))


@lru_cache(maxsize=64)
def genericity_failure(spec: NodalCurveSpec, c1) -> str | None:
    """Name of the first genericity guard that the shift c1 fails, or None.

    T_c needs theta00(phi1(p1) - c1) != 0 (its value at p1), and the node
    chart needs theta00(phi1(p2) - c1) != 0 (the Moebius determinant).  Each
    counts as zero at or below GENERICITY_TOL times theta00's scale over one
    cell.  The chart's residue c_minus1 needs theta[-r1;r2](phi1(p2) - c1)
    != 0 too, but since r2 - r1 tau = p1 - p2 that theta is
    e(r1^2 tau/2 - r1 (x2 + r2)) theta00(phi1(p1) - c1), x2 = phi1(p2) - c1,
    so the p1 guard covers it.  Cached per (spec, c1): the pullbacks and
    charts of one c1 share it.
    """
    scale = GENERICITY_TOL * _theta_scale(spec.tau, (0.0, 0.0))
    for name, point in (("theta00(phi1(p1) - c1)", spec.p1), ("theta00(phi1(p2) - c1)", spec.p2)):
        if abs(theta_char((0.0, 0.0), phi1(spec, point) - c1, spec.tau, spec.policy)) <= scale:
            return name
    return None


class ThetaPullback:
    """T_c for one shift c = (c1, c2) on a given curve instance."""

    def __init__(self, c, spec: NodalCurveSpec):
        self.c1 = complex(c[0])
        self.c2 = complex(c[1])
        self.spec = spec
        failed = genericity_failure(spec, self.c1)
        if failed is not None:
            raise DegenerateC(failed)
        self.r1, self.r2, _ = derive_periods(spec)
        self._rchar = (-self.r1, self.r2)

    # -- building blocks ----------------------------------------------------

    def value(self, P):
        """T_c(P) for scalars or arrays."""
        spec = self.spec
        x = (P - spec.z0) - self.c1
        ew = e_phi2(spec, P) * e_func(-self.c2)
        return (
            theta_char((0.0, 0.0), x, spec.tau, spec.policy)
            + theta_char(self._rchar, x, spec.tau, spec.policy) * ew
        )

    def value_from_phi(self, P, path=None):
        """T_c(P) through the tracked period map (dual route, for tests)."""
        from .theta import big_theta

        val = phi2(self.spec, P, path)
        return big_theta(
            phi1(self.spec, P) - self.c1,
            val - self.c2,
            self.spec.tau,
            self.r1,
            self.r2,
            self.spec.policy,
        )

    def value_and_dvalue(self, P):
        """(T_c(P), dT_c/dz(P)); the derivative by the chain rule through the
        theta kernel and eta.  One pass per theta characteristic gives each
        theta with its derivative; the value equals `value(P)` bit for bit."""
        spec = self.spec
        x = (P - spec.z0) - self.c1
        ew = e_phi2(spec, P) * e_func(-self.c2)
        th0, th0p = theta_char_and_dz((0.0, 0.0), x, spec.tau, spec.policy)
        thr, thrp = theta_char_and_dz(self._rchar, x, spec.tau, spec.policy)
        eta = third_kind(spec).eta_coeff(P)
        return th0 + thr * ew, th0p + (thrp + TWO_PI_I * eta * thr) * ew


# -- zero counting and location ---------------------------------------------


def count_zeros(tp: ThetaPullback) -> int:
    """Number of zeros of T_c: boundary winding plus one for the pole at p2.

    Should the walk along the cell boundary pass through a zero, the cell
    translated by (1 + tau)/2 is walked instead; every fundamental cell holds
    one translate of p2, so the + 1 holds there too."""
    corners = tp.spec.corners
    try:
        return winding_number_sampled(tp.value, corners) + 1
    except ContourThroughZero:
        shift = 0.5 * (1.0 + tp.spec.tau)
        return winding_number_sampled(tp.value, [z + shift for z in corners]) + 1


def alpha_dlog_integral(tp: ThetaPullback) -> complex:
    """(1/2*pi*i) * integral of dlog T_c along the bottom edge q0 -> q0+1."""
    spec = tp.spec
    d, _ = track_log_sampled(tp.value, spec.q0, spec.q0 + 1.0)
    return d / TWO_PI_I


def beta_dlog_integral(tp: ThetaPullback) -> complex:
    """(1/2*pi*i) * integral of dlog T_c along the left edge q0 -> q0+tau."""
    spec = tp.spec
    d, _ = track_log_sampled(tp.value, spec.q0, spec.q0 + spec.tau)
    return d / TWO_PI_I


def _newton_polish(tp: ThetaPullback, z: np.ndarray) -> np.ndarray:
    """Newton steps on T_c from the starts z, all in one array call per step,
    until every step is below _POLISH_TOL."""
    for _ in range(_POLISH_MAX_ITER):
        f, df = tp.value_and_dvalue(z)
        if np.any(df == 0):
            raise ZeroCollision("vanishing derivative during Newton polish")
        step = f / df
        z = z - step
        if np.all(np.abs(step) < _POLISH_TOL):
            return z
    raise ZeroCollision(f"Newton polish did not converge near {', '.join(f'{x:.6g}' for x in z)}")


def _moment_roots(tp: ThetaPullback, a: complex):
    """(e(q1), e(q2)) for the zeros q1, q2 of T_c in the strip between the
    lines a and a + tau, or None when the moments do not converge.

    T_c is 1-periodic and T'/T drops by 2*pi*i from a line to its tau
    translate, so the argument principle over the cell collapses onto the
    line a: for k = 1, 2

        e(k q1) + e(k q2) - e(k p2') = (1 - e(k tau))/(2 pi i) * int_a^{a+1} e(k z) T'/T dz

    with p2' the representative of p2 in the strip.  The integrand is
    1-periodic, so the trapezoid rule converges spectrally; n doubles from
    _N0 until both moments agree within quad_tol (relative), up to _N_MAX.
    """
    spec = tp.spec
    p2 = spec.p2 if lattice_coords(spec.p2, a, spec.tau)[1] >= 0 else spec.p2 + spec.tau
    k = np.array([[1.0], [2.0]])
    scale = (1.0 - e_func(k[:, 0] * spec.tau)) / TWO_PI_I

    def sums(z):
        T, dT = tp.value_and_dvalue(z)
        return np.sum(e_func(k * z) * (dT / T), axis=1)

    n = _N0
    acc = sums(a + np.arange(n) / n)
    m = scale * acc / n
    while n < _N_MAX:
        acc = acc + sums(a + (np.arange(n) + 0.5) / n)
        n *= 2
        m, m_prev = scale * acc / n, m
        if np.max(np.abs(m - m_prev)) <= spec.quad_tol * np.max(np.abs(m)):
            s1 = m[0] + e_func(p2)
            s2 = m[1] + e_func(2 * p2)
            prod = (s1 * s1 - s2) / 2
            r = cmath.sqrt(2 * s2 - s1 * s1)
            w1 = max((s1 + r) / 2, (s1 - r) / 2, key=abs)
            return w1, prod / w1
    return None


def locate_zeros(tp: ThetaPullback) -> tuple[complex, complex]:
    """The two zeros of T_c in the cell, from the moments of T'/T on the
    line q0 (or, should they not converge there, on the line q0 + tau/2).
    A Newton polish of both roots in one array call per step confirms that
    each is a zero; from the moment roots that usually takes one step."""
    spec = tp.spec
    for a in (spec.q0, spec.q0 + 0.5 * spec.tau):
        w = _moment_roots(tp, a)
        if w is not None:
            break
    else:
        raise ContourThroughZero("moments of T'/T did not converge on the lines q0 and q0 + tau/2")

    def cell(z):
        return reduce_to_cell(z, spec.q0, spec.tau)

    starts = np.array([cell(cmath.log(x) / TWO_PI_I) for x in w])
    q1, q2 = (cell(complex(z)) for z in _newton_polish(tp, starts))
    if abs(q1 - q2) < 1e-6:
        raise ZeroCollision("zeros collided after polishing")
    for z in (q1, q2):
        if abs(z - spec.p1) <= spec.delta or abs(z - spec.p2) <= spec.eps:
            raise ZeroCollision(f"zero {z:.6g} inside an excluded disk")
    q1, q2 = sorted((q1, q2), key=lambda z: (z.imag, z.real))
    return q1, q2


# -- the node chart and the d-map ---------------------------------------------


def _moebius(abcd, ec):
    A, B, C, D = abcd
    return (A + B * ec) / (C + D * ec)


class DMap:
    """The node chart z = p2 + t of T_c for one (c1, eps), and the second
    component of d(eps)(c) as a function of c2.

    With w = e(-c2), G(t) = theta[-r1;r2](x2 + t) g(t) and G0 = G(0) =
    beta_coeff, the chart reads t T_c(p2 + t) = c_minus1 f(t), where
    c_minus1 = G0 w and

        f(t) = (t alpha1(t)/w + G(t))/G0,   f(0) = 1.

    So T_c(t) = c_minus1/t + h2(t), and h3 = T'/T + 1/t = f'/f =
    (A + B w)/(C + D w) with (A, B, C, D) = (alpha1 + t alpha1', G', t alpha1, G)
    independent of c2.  Its integral H3(eps) is therefore Log f(eps) + 2*pi*i*n,
    n the winding of f along [0, eps]: `d2` and `d2_dc2` are these closed
    forms, and `H3`, the quadrature of h3, is their dual route.  The chart
    holds what does not depend on c2 (the factor g anchored at eps,
    beta_coeff = G0, G'(0), and theta00(phi1(p1) - c1) on first use);
    everything that does takes c2 as an argument.

    `h3_zero` is the value h3(0; c) implied by the definitions; the shorter
    closed form lacking the derivative term (`h3_zero_no_derivative`) is kept
    for comparison, and its deviation is exactly `h3_zero_defect`.  The
    genericity guard runs once, at construction.
    """

    def __init__(self, spec: NodalCurveSpec, c1, eps: float):
        if eps <= 0 or eps >= spec.eps * 1.0001:
            raise ValueError("chart radius eps must lie in (0, spec.eps]")
        self.c1 = complex(c1)
        failed = genericity_failure(spec, self.c1)
        if failed is not None:
            raise DegenerateC(failed)
        self.spec = spec
        self.eps = float(eps)
        self.r1, r2, _ = derive_periods(spec)
        self.diff = third_kind(spec)
        self.x2 = phi1(spec, spec.p2) - self.c1
        self._rchar = (-self.r1, r2)
        self._e_phi2_eps = e_phi2(spec, spec.p2 + self.eps)  # e(phi2) at the chart anchor t = eps
        self.g0 = complex(self.g(0.0))
        _, h1c = self.diff._h1_series()
        th, thp = theta_char_and_dz(self._rchar, self.x2, spec.tau, spec.policy)
        self.beta_coeff = th * self.g0
        self._dG0 = (thp + TWO_PI_I * complex(h1c[0]) * th) * self.g0

    # -- chart factor g and the Moebius coefficients --------------------------

    def g(self, t):
        """g(t) = e(phi2(p2 + eps)) * eps * e(int_eps^t h1), so e(phi2(p2+t)) = g(t)/t."""
        prim = self.diff.h1_primitive
        return self._e_phi2_eps * self.eps * np.exp(TWO_PI_I * (prim(t) - prim(self.eps)))

    def alpha1(self, t):
        return theta_char((0.0, 0.0), self.x2 + t, self.spec.tau, self.spec.policy)

    def alpha1_prime(self, t):
        return theta_char_dz((0.0, 0.0), self.x2 + t, self.spec.tau, self.spec.policy)

    def G(self, t):
        """G(t) = theta[-r1;r2](x2 + t) g(t), the residue factor of the chart."""
        return theta_char(self._rchar, self.x2 + t, self.spec.tau, self.spec.policy) * self.g(t)

    def _G_and_dG(self, t):
        """(G, G') with G' = (theta_r' + 2*pi*i*h1 theta_r) g; one pass gives theta_r and theta_r'."""
        th, thp = theta_char_and_dz(self._rchar, self.x2 + t, self.spec.tau, self.spec.policy)
        g = self.g(t)
        return th * g, (thp + TWO_PI_I * self.diff.h1_at_p2(t) * th) * g

    def alpha2(self, t):
        """alpha2 = (G(t) - G(0))/t and alpha2', for t != 0."""
        G, dG = self._G_and_dG(t)
        rise = G - self.beta_coeff
        return rise / t, (dG * t - rise) / (t * t)

    def mobius_coeffs(self, t):
        """(A, B, C, D) = (alpha1 + t alpha1', G', t alpha1, G), so that
        h3 = (A + B e(-c2)) / (C + D e(-c2)); nothing is divided by t."""
        a1, a1p = theta_char_and_dz((0.0, 0.0), self.x2 + t, self.spec.tau, self.spec.policy)
        G, dG = self._G_and_dG(t)
        return a1 + t * a1p, dG, t * a1, G

    @property
    def h3_zero_defect(self) -> complex:
        """Gap between the two closed forms of h3(0; c):
        theta_r'/theta_r(x2) + 2*pi*i*h1(0)."""
        return complex(self._dG0 / self.beta_coeff)

    # -- c2-dependent quantities ----------------------------------------------

    def c_minus1(self, c2) -> complex:
        """Residue of T_c at p2: G(0) e(-c2)."""
        return self.beta_coeff * e_func(-complex(c2))

    def f(self, t, c2):
        """f(t) = t T_c(p2 + t)/c_minus1 = (t alpha1(t)/w + G(t))/G0, w = e(-c2); f(0) = 1."""
        return (t * self.alpha1(t) * e_func(complex(c2)) + self.G(t)) / self.beta_coeff

    def h2(self, t, c2):
        return self.alpha1(t) + self.alpha2(t)[0] * e_func(-complex(c2))

    def h2_prime(self, t, c2):
        return self.alpha1_prime(t) + self.alpha2(t)[1] * e_func(-complex(c2))

    def h3(self, t, c2):
        return _moebius(self.mobius_coeffs(t), e_func(-complex(c2)))

    def h3_zero(self, c2) -> complex:
        """h3(0; c) implied by the definitions (includes the derivative term)."""
        ec = e_func(-complex(c2))
        return complex((self.alpha1(0.0) + self._dG0 * ec) / (self.beta_coeff * ec))

    def h3_zero_no_derivative(self, c2) -> complex:
        """Shorter closed form theta00(x2) e(c2) / (theta_r(x2) g(0)); deviates
        from h3_zero by h3_zero_defect."""
        return complex(self.alpha1(0.0) * e_func(complex(c2)) / self.beta_coeff)

    def H3(self, c2, t=None) -> complex:
        """Quadrature of h3 along the straight segment from 0 to t (default
        eps): the dual route of the closed form in d2."""
        t = self.eps if t is None else t
        if t == 0:
            return 0.0 + 0.0j
        ec = e_func(-complex(c2))
        return integrate_segment(
            lambda s: _moebius(self.mobius_coeffs(s), ec), 0.0, complex(t), self.spec.quad_tol
        )

    def d2(self, c2) -> complex:
        """c1*r1 + H3(eps; (c1, c2))/(2*pi*i) with H3 = Log f(eps) + 2*pi*i*n:
        n comes from the continuous log of f along [0, eps], tracked from
        f(0) = 1.  Raises ContourThroughZero when a zero of T_c lies on that
        segment."""
        d, f_eps = track_log_sampled(lambda t: self.f(t, c2), 0j, complex(self.eps))
        log_f = complex(np.log(f_eps))
        n = round((d - log_f).imag / (2 * math.pi))
        return self.c1 * self.r1 + log_f / TWO_PI_I + n

    def d2_dc2(self, c2) -> complex:
        """dH3/dc2 (eps; (c1, c2))/(2*pi*i) = eps alpha1(eps) / (eps alpha1(eps) + w G(eps))."""
        a = self.eps * complex(self.alpha1(self.eps))
        return a / (a + e_func(-complex(c2)) * complex(self.G(self.eps)))

    @cached_property
    def theta00_p1(self) -> complex:
        """theta00(phi1(p1) - c1), the value of T_c at p1 (read by branch_log only)."""
        spec = self.spec
        return theta_char((0.0, 0.0), phi1(spec, spec.p1) - self.c1, spec.tau, spec.policy)

    def branch_log(self, log_pole) -> complex:
        """Log theta00(phi1(p1) - c1) - log_pole + log eps, the part of the
        branch-cut term A(eps, c) that the corrected map keeps; log_pole is a
        log of the pole coefficient (Log c_minus1, or Log beta_coeff where c2
        is solved for)."""
        return np.log(self.theta00_p1) - log_pole + math.log(self.eps)


def d_map(eps: float, c, spec: NodalCurveSpec) -> tuple[complex, complex]:
    """d(eps)(c) = (c1, c1*r1 + H3(eps; c)/(2*pi*i))."""
    dm = DMap(spec, c[0], eps)
    return (dm.c1, dm.d2(c[1]))


# -- generalized Riemann constants -------------------------------------------


@dataclass(frozen=True)
class RiemannConstants:
    """Generalized Riemann constants; `kappa_vector` produces the two
    candidate readings (-tau/2 from the definition, -tau from the final
    display of the congruence derivation)."""

    kappa1: complex
    kappa2: complex
    eps: float
    a_value: complex
    alpha_phi1_integral: complex
    alpha_phi2_integral: complex


@lru_cache(maxsize=16)
def riemann_constants(spec: NodalCurveSpec, eps: float) -> RiemannConstants:
    """kappa1 = -tau/2 - phi1(Q0) + phi1(P2) + int_alpha phi1 dz and
    kappa2 = (-tau/2 - phi1(Q0)) r1 + a(eps) + int_alpha phi2 dz, each
    integral to spec.quad_tol.  Cached per (spec, eps)."""
    tol = spec.quad_tol
    r1, _, _ = derive_periods(spec)
    diff = third_kind(spec)

    def phi1_integrand(s):
        return (spec.q0 + s) - spec.z0

    i_phi1 = integrate_segment(phi1_integrand, 0.0, 1.0, tol)

    # int_alpha phi2 dz = phi2(q0) + int_0^1 (1 - x) eta(q0 + x) dx
    phi2_q0 = phi2(spec, spec.q0)

    def phi2_integrand(x):
        return (1.0 - x) * diff.eta_coeff(spec.q0 + x)

    i_phi2 = phi2_q0 + integrate_segment(phi2_integrand, 0.0, 1.0, tol)

    a_val = a_eps(spec, eps)
    phi1_q0 = phi1(spec, spec.q0)
    phi1_p2 = phi1(spec, spec.p2)
    kappa1 = -0.5 * spec.tau - phi1_q0 + phi1_p2 + i_phi1
    kappa2 = (-0.5 * spec.tau - phi1_q0) * r1 + a_val + i_phi2
    return RiemannConstants(
        kappa1=kappa1,
        kappa2=kappa2,
        eps=eps,
        a_value=a_val,
        alpha_phi1_integral=i_phi1,
        alpha_phi2_integral=i_phi2,
    )


def kappa_vector(rc: RiemannConstants, spec: NodalCurveSpec, variant: str):
    """Constant vector for the chosen first-component reading."""
    r1, _, _ = derive_periods(spec)
    if variant == "half_tau":
        return (rc.kappa1, rc.kappa2)
    if variant == "full_tau":
        shift = -0.5 * spec.tau
        return (rc.kappa1 + shift, rc.kappa2 + shift * r1)
    raise ValueError(f"unknown variant {variant!r}")


# -- the inversion congruence -------------------------------------------------


def branch_correction(dm: DMap, c2) -> complex:
    """Branch-cut contribution A(eps, c) missing from the naive argument
    principle for the two-component period map.

    The second component of the period map is multivalued around the
    identified points; cutting the domain to make it single-valued adds the
    continued-log term

        A = (1/2*pi*i) * [log T_c(P1) - log T_c(p2 + eps)]

    to the divisor-image congruence.  A is well defined modulo 1 (path and
    branch choices shift it by integers, absorbed by the period group).  The
    returned representative uses principal logs of the closed form

        A = (1/2*pi*i) [Log theta00(phi1(P1)-c1) - Log c_minus1 + log eps
                        - Log f(eps)]

    on the chart dm of (c1, eps), where f(eps) = eps T_c(p2 + eps)/c_minus1.
    """
    tail = np.log(dm.f(dm.eps, c2))
    return complex((dm.branch_log(np.log(dm.c_minus1(c2))) - tail) / TWO_PI_I)


def branch_correction_tracked(tp: ThetaPullback, eps: float) -> complex:
    """A(eps, c) by continued-log tracking of T_c from p2+eps to p1 (clockwise
    chart arc to the p1 direction, then the straight ray).  Independent route
    used to validate the closed form; equals branch_correction mod 1."""
    spec = tp.spec
    d_hat = (spec.p1 - spec.p2) / abs(spec.p1 - spec.p2)
    theta_f = cmath.phase(d_hat)
    if theta_f > 0:
        theta_f -= 2 * math.pi
    n_arc = 48
    angs = np.linspace(0.0, theta_f, n_arc + 1)
    pts = [spec.p2 + eps * cmath.exp(1j * a) for a in angs] + [spec.p1]
    total = 0.0 + 0.0j
    for k in range(len(pts) - 1):
        d, _ = track_log_sampled(tp.value, pts[k], pts[k + 1])
        total += d
    return complex(total / TWO_PI_I)


def d_map_corrected(eps: float, c, spec: NodalCurveSpec) -> tuple[complex, complex]:
    """Branch-corrected inversion map: d(eps)(c) + (0, A(eps, c)).

    Collapses to the closed form (c1, c1*r1 + (1/2*pi*i)[Log theta00(phi1(P1)-c1)
    - Log c_minus1 + log eps]), which is affine in c2 with unit slope; the
    congruence W == d_corr(eps)(c) + kappa(eps) mod Gamma closes numerically,
    whereas the uncorrected form leaves exactly the A(eps, c) defect.
    """
    dm = DMap(spec, c[0], eps)
    return (dm.c1, complex(dm.c1 * dm.r1 + dm.branch_log(np.log(dm.c_minus1(c[1]))) / TWO_PI_I))


def jacobian_consistency_check(dm: DMap, c2) -> float:
    """Double-entry check of dH3/dc2 at (dm.c1, c2): the closed form
    2*pi*i*d2_dc2 against a Richardson-extrapolated central difference of
    the H3 quadrature on the same chart.  Returns the relative disagreement
    and raises JacobianSingular beyond _JACOBIAN_REL_TOL."""
    from .errors import JacobianSingular

    analytic = TWO_PI_I * dm.d2_dc2(c2)
    h = 1e-3
    d1 = (dm.H3(c2 + h) - dm.H3(c2 - h)) / (2 * h)
    d2 = (dm.H3(c2 + h / 2) - dm.H3(c2 - h / 2)) / h
    fd = (4 * d2 - d1) / 3.0
    rel = abs(analytic - fd) / max(1e-30, abs(analytic))
    if rel > _JACOBIAN_REL_TOL:
        raise JacobianSingular(
            f"dH3/dc2 dual-route disagreement {rel:.3e} exceeds {_JACOBIAN_REL_TOL:g}"
        )
    return rel


@dataclass(frozen=True)
class Thm51Result:
    """Divisor-image congruence residuals.

    residual_half_tau / residual_full_tau follow the stated constant
    (first component -tau/2 resp. -tau); the corrected_* fields add the
    branch-cut term A(eps, c) to the congruence.  variant_used names the
    constant whose corrected residual closes.
    """

    c: tuple[complex, complex]
    n_zeros: int
    zeros: tuple[complex, complex]
    w: tuple[complex, complex]
    d_value: tuple[complex, complex]
    correction: complex
    residual_half_tau: float
    residual_full_tau: float
    corrected_residual_half_tau: float
    corrected_residual_full_tau: float
    variant_used: str
    coeffs: tuple[int, int, int]

    @property
    def residual(self) -> float:
        """Residual of the closing (corrected) variant."""
        return min(self.corrected_residual_half_tau, self.corrected_residual_full_tau)

    @property
    def literal_residual(self) -> float:
        """Best stated-form residual (no branch correction)."""
        return min(self.residual_half_tau, self.residual_full_tau)


def verify_thm51(c, spec: NodalCurveSpec, eps: float | None = None) -> Thm51Result:
    """Check W = phi(Q1) + phi(Q2) == d(eps)(c) + kappa(eps) mod Gamma.

    Residuals are reported for both candidate constants (-tau/2 and -tau in
    the first component) and both congruence forms (stated, and with the
    branch-cut term A(eps, c) added to the second component).  Only the
    corrected form closes; see branch_correction.

    The closed-form d2 is checked against its dual route, one quadrature of
    h3: they must agree within spec.quad_tol (the quadrature's error budget;
    its accepted panel tolerances sum to at most quad_tol), else
    QuadratureFailure.
    """
    eps_w = spec.eps / 2 if eps is None else eps
    tp = c if isinstance(c, ThetaPullback) else ThetaPullback(c, spec)
    n = count_zeros(tp)
    zeros = locate_zeros(tp)
    w = divisor_image(spec, list(zeros))
    dm = DMap(spec, tp.c1, eps_w)
    d_val = (dm.c1, dm.d2(tp.c2))
    h3_gap = abs(dm.H3(tp.c2) - TWO_PI_I * (d_val[1] - dm.c1 * dm.r1))
    if h3_gap > spec.quad_tol:
        raise QuadratureFailure(f"H3 quadrature misses the closed-form d2 by {h3_gap:.3e}")
    corr = branch_correction(dm, tp.c2)
    rc = riemann_constants(spec, eps_w)
    pg = period_group(spec)
    res = {}
    decs = {}
    for variant in ("half_tau", "full_tau"):
        k1, k2 = kappa_vector(rc, spec, variant)
        for corrected in (False, True):
            vec = (
                w[0] - d_val[0] - k1,
                w[1] - d_val[1] - k2 - (corr if corrected else 0.0),
            )
            dec = mod_gamma_decompose(vec, pg)
            res[(variant, corrected)] = dec.residual_norm
            decs[(variant, corrected)] = dec
    variant = min(("half_tau", "full_tau"), key=lambda v: res[(v, True)])
    dec = decs[(variant, True)]
    return Thm51Result(
        c=(tp.c1, tp.c2),
        n_zeros=n,
        zeros=zeros,
        w=w,
        d_value=d_val,
        correction=corr,
        residual_half_tau=res[("half_tau", False)],
        residual_full_tau=res[("full_tau", False)],
        corrected_residual_half_tau=res[("half_tau", True)],
        corrected_residual_full_tau=res[("full_tau", True)],
        variant_used=variant,
        coeffs=(dec.m, dec.p, dec.q),
    )


def sample_generic_c(spec: NodalCurveSpec, rng: np.random.Generator):
    """Draw c from the fundamental box, rejecting shifts that fail
    genericity_failure.  Returns (c, n_rejected)."""
    rejected = 0
    for _ in range(_MAX_TRIES):
        s, t = rng.uniform(0.0, 1.0, size=2)
        c1 = s + t * spec.tau
        c2 = complex(rng.uniform(0.0, 1.0), rng.uniform(-0.25, 0.25))
        if genericity_failure(spec, c1) is None:
            return (c1, c2), rejected
        rejected += 1
    raise DegenerateC(f"no generic c found in {_MAX_TRIES} draws")
